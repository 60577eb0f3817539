// Simulation options shared by every engine (the AccMoS generated-code
// path, the SSE interpreter, and the two fast modes).
#pragma once

#include <cstdint>
#include <cstdlib>
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

// How the AccMoS engine executes the compiled simulator. Both modes run
// the same shared library, compiled -shared -fPIC once per model.
//   Dlopen  — dlopen once, run in-process through the binary result ABI
//             (no subprocess per run). Falls back to Process automatically
//             when the library cannot be loaded.
//   Process — per run, spawn the accmos-run-lib runner, which loads the
//             library in a child process and returns one binary result
//             frame (OS isolation; also the fallback).
enum class ExecMode : uint8_t { Dlopen, Process };

std::string_view execModeName(ExecMode m);

// Default for SimOptions::execMode: ACCMOS_EXEC_MODE=process selects the
// subprocess backend, anything else (including unset) selects dlopen.
inline ExecMode defaultExecMode() {
  const char* v = std::getenv("ACCMOS_EXEC_MODE");
  if (v != nullptr && std::string(v) == "process") return ExecMode::Process;
  return ExecMode::Dlopen;
}

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

// Default for SimOptions::optimize. The pre-engine optimization pipeline is
// on unless the environment says otherwise: ACCMOS_NO_OPT=1 disables it
// process-wide (the CI toggle that reruns the whole test suite
// unoptimized). The CLI exposes the same switch as --no-opt.
inline bool defaultOptimize() {
  const char* v = std::getenv("ACCMOS_NO_OPT");
  return v == nullptr || v[0] == '\0' || v[0] == '0';
}

struct SimOptions {
  Engine engine = Engine::SSE;

  // Stop conditions (whichever comes first).
  uint64_t maxSteps = 1000;
  double timeBudgetSec = 0.0;  // 0 = unlimited
  bool stopOnDiagnostic = false;

  // Fault-containment deadlines (0 = unlimited). Unlike timeBudgetSec —
  // a soft "stop collecting after N seconds" knob honoured mid-loop — these
  // mark the run as *timed out*: the generated code retires the run with
  // SimulationResult::timedOut set (ABI v3 deadlineSeconds / stepBudget),
  // and the subprocess backend additionally arms a host-side watchdog that
  // kills the child's process group if the cooperative check never fires.
  double runTimeoutSec = 0.0;
  uint64_t stepBudget = 0;

  // Instrumentation. The fast modes cannot collect coverage or diagnose
  // (paper §2) — the facade rejects these combinations.
  bool coverage = true;
  bool diagnosis = true;

  // Run the optimization pipeline (src/opt: constant folding, identity
  // simplification, dead-code elimination, schedule compaction) on the
  // flattened model before the engine sees it. Observation-equivalent by
  // construction: outputs, collected signals, coverage and diagnostics are
  // bit-identical with it on or off, for every engine.
  bool optimize = defaultOptimize();

  // Actor paths whose outputs are monitored (paper Fig. 3 outputCollect).
  // Scope/Display actors are always monitored.
  std::vector<std::string> collectList;

  // Custom signal diagnoses (§3.2.B).
  std::vector<CustomDiagnostic> customDiagnostics;

  // AccMoS codegen knobs.
  ExecMode execMode = defaultExecMode();  // see ExecMode above
  // Inert: nothing reads it, and no CLI flag, environment variable or
  // wire field sets it. It exists only because the frozen benchmark
  // harness (accbench/harness/campaign.cpp) still assigns it.
  size_t batchLanes = 0;
  std::string optFlag = "-O3";   // compiler optimization level
  bool keepGeneratedCode = false;
  std::string workDir;           // empty = temp directory
  // Reuse compiled simulators across engine constructions via the
  // content-addressed cache (key: compiler + flags + generated source).
  // The cache lives under $ACCMOS_CACHE_DIR (default: <tmp>/accmos-cache).
  bool compileCache = true;

  // Multi-seed campaign execution (runCampaign only).
  CampaignOptions campaign;
};

}  // namespace accmos
