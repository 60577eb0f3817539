// Simulation results: coverage, diagnostics, monitored signals, outputs,
// timing — the information AccMoS prints "at the conclusion of the
// simulation" (paper §3.2-3.3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cov/coverage.h"
#include "diag/diagnosis.h"
#include "ir/value.h"
#include "opt/stats.h"
#include "sim/failure.h"

namespace accmos {

// Signal-monitor record (paper Fig. 3): last value plus occurrence count.
struct CollectedSignal {
  std::string path;  // producer actor path + ":" + port
  Value last;
  uint64_t count = 0;
};

struct SimulationResult {
  uint64_t stepsExecuted = 0;
  bool stoppedEarly = false;  // StopSimulation actor or stop-on-diagnostic

  // The run was retired by its wall-clock deadline
  // (SimOptions::runTimeoutSec) on every rung it tried: set only together
  // with failed and a FailureKind::Timeout failure.
  bool timedOut = false;

  // Containment record: the AccMoS engine returns a failed result instead
  // of throwing, so one bad seed cannot abort a whole campaign and every
  // caller reports a fault the same way. When failed is true the rest of
  // the result carries no observations and `failure` says what happened.
  bool failed = false;
  RunFailure failure;

  // Wall-clock split. For in-process engines only execSeconds is set; the
  // AccMoS path also reports generation and compilation time, and — when
  // the library loaded in-process — the one-time load time.
  double execSeconds = 0.0;
  double generateSeconds = 0.0;
  double compileSeconds = 0.0;
  double loadSeconds = 0.0;

  // Where the AccMoS engine ran this result: "dlopen" (in-process) or
  // "process" (the accmos-run-lib rung, after a load failure, a struck run
  // or quarantine); empty for the interpreting engines.
  std::string execMode;

  bool hasCoverage = false;
  CoverageReport coverage;
  CoverageRecorder bitmaps;

  std::vector<DiagRecord> diagnostics;  // sorted by first step
  std::optional<uint64_t> firstDiagStep() const {
    if (diagnostics.empty()) return std::nullopt;
    return diagnostics.front().firstStep;
  }
  const DiagRecord* findDiag(const std::string& pathSubstr,
                             DiagKind kind) const;

  std::vector<CollectedSignal> collected;

  // Final value of each root outport (ordered by port index).
  std::vector<Value> finalOutputs;

  // What the pre-engine optimization pipeline did (all zero when an
  // engine was called directly, without the Simulator facade).
  OptStats optStats;

  std::string summary() const;
};

}  // namespace accmos
