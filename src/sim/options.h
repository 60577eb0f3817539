// Simulation options shared by every engine (the AccMoS generated-code
// path, the SSE interpreter, and the two fast modes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "diag/custom.h"

namespace accmos {

enum class Engine : uint8_t {
  AccMoS,  // generate C++ -> compile -> execute (the paper's contribution)
  SSE,     // interpreting engine (baseline)
  SSEac,   // Accelerator-mode stand-in: bytecode + per-step host sync
  SSErac,  // Rapid-Accelerator-mode stand-in: fused closures, root-I/O sync
};

std::string_view engineName(Engine e);

// Multi-seed campaign execution knobs. The compiled AccMoS simulator takes
// the stimulus seed as a run argument, so a campaign fans seeds out across
// a worker pool: N concurrent executions of the one compiled library (or one interpreter instance per worker for SSE).
// Results are merged deterministically in seed order, so campaign output is
// bit-identical regardless of worker count.
struct CampaignOptions {
  // Number of concurrent workers. 1 = sequential (the default);
  // 0 = one worker per hardware thread.
  size_t workers = 1;
};

struct SimOptions {
  Engine engine = Engine::SSE;

  // Stop conditions (whichever comes first).
  uint64_t maxSteps = 1000;
  double timeBudgetSec = 0.0;  // 0 = unlimited
  bool stopOnDiagnostic = false;

  // Fault-containment deadline (0 = unlimited). Unlike timeBudgetSec — a
  // soft "stop collecting after N seconds" knob honoured mid-loop — it
  // retires the run as *timed out* (ABI deadlineSeconds), and the
  // subprocess backend additionally arms a host-side watchdog that kills
  // the child's process group if the cooperative check never fires. Only
  // generated code observes it: other engines refuse a nonzero value.
  double runTimeoutSec = 0.0;

  // Instrumentation. The fast modes cannot collect coverage or diagnose
  // (paper §2) — the facade rejects these combinations.
  bool coverage = true;
  bool diagnosis = true;

  // Actor paths whose outputs are monitored (paper Fig. 3 outputCollect).
  // Scope/Display actors are always monitored.
  std::vector<std::string> collectList;

  // Custom signal diagnoses (§3.2.B).
  std::vector<CustomDiagnostic> customDiagnostics;

  // AccMoS codegen knobs. How a run executes is the engine's decision,
  // not an option (docs/EXECUTION.md).
  //
  // Inert: nothing reads it, and no CLI flag, environment variable or
  // wire field sets it. It exists only because the frozen benchmark
  // harness (accbench/harness/campaign.cpp) still assigns it.
  size_t batchLanes = 0;
  // Compiler optimization level: exactly -O0, -O1, -O2 or -O3
  // (isOptLevel in codegen/compiler_driver.h).
  std::string optFlag = "-O3";

  // Multi-seed campaign execution (runCampaign only).
  CampaignOptions campaign;
};

}  // namespace accmos
