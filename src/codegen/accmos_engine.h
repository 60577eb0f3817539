// The AccMoS engine: the full pipeline of the paper — simulation-oriented
// instrumentation, simulation code synthesis, compilation, execution, and
// result recovery.
//
// The generated code is compiled once, -shared -fPIC, and every run
// executes that one library. Where it runs is the engine's decision
// (docs/EXECUTION.md), not an option:
//   in-process — the library is dlopen'd once; every run() is an
//                accmos_run() call filling caller-owned binary buffers,
//                with no subprocess on the hot path.
//   subprocess — the containment rung: the model-independent
//                accmos-run-lib runner loads the library in a child
//                process and sends the same buffers back as one binary
//                frame. Used when the library cannot be loaded, for a
//                struck run's one retry, and after quarantine.
// Both decode through decodeBinaryResults and produce bit-identical
// SimulationResults. Every run() walks the two rungs as one ladder, and a
// fault that survives it comes back as a RunFailure, not an exception.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string_view>

#include "codegen/run_abi.h"
#include "cov/coverage.h"
#include "diag/diagnosis.h"
#include "graph/flat_model.h"
#include "sim/failure.h"
#include "sim/options.h"
#include "sim/result.h"
#include "sim/testcase.h"

namespace accmos {

enum class ArtifactKind : uint8_t;

// The emit phase of the pipeline, detached from compilation: everything
// AccMoSEngine derives from (model, options, stimulus) before the compiler
// runs. Produced by AccMoSEngine::generate(); the benchmark harness
// (accbench/) times it apart from the compile.
struct GeneratedModel {
  CoveragePlan covPlan;
  std::vector<int> collectSignals;
  std::string source;
  double generateSeconds = 0.0;
};

class AccMoSEngine {
 public:
  // Builds the plans and generates + compiles the simulation program once;
  // run() can then execute it repeatedly (with step/budget overrides) —
  // mirroring how a generated simulator is reused across test campaigns.
  AccMoSEngine(const FlatModel& fm, const SimOptions& opt,
               const TestCaseSpec& tests);

  // Same, from an already-emitted GeneratedModel (skips the emit phase).
  // `gen` must come from generate() with the same (fm, opt, tests). Public
  // because the benchmark harness (accbench/harness/table1.cpp) times the
  // emit and engine phases separately through it.
  AccMoSEngine(const FlatModel& fm, const SimOptions& opt,
               const TestCaseSpec& tests, GeneratedModel&& gen);

  // Validates the model/spec/options and runs the emitter — the pure
  // front half of the constructor. Throws ModelError exactly where the
  // constructor would.
  static GeneratedModel generate(const FlatModel& fm, const SimOptions& opt,
                                 const TestCaseSpec& tests);

  // The artifact the constructor asks the compiler for: always the shared
  // library, with no extra compiler flags (`extraFlags`, when non-null, is
  // cleared). Inert; it stays because the benchmark harness (accbench/)
  // calls it.
  static ArtifactKind artifactPlan(const SimOptions& opt,
                                   std::string* extraFlags);

  ~AccMoSEngine();

  AccMoSEngine(const AccMoSEngine&) = delete;
  AccMoSEngine& operator=(const AccMoSEngine&) = delete;

  // Executes the compiled simulation. maxSteps/timeBudget default to the
  // options used at construction; pass nonzero values to override. The
  // stimulus seed can be overridden per run — accmos_run takes it as an
  // argument, so one compiled simulator serves a whole campaign.
  // Thread-safe: concurrent campaign/gen workers share one engine and its
  // one loaded library.
  //
  // Every run walks the containment ladder (docs/ROBUSTNESS.md)
  //   dlopen -> subprocess -> structured failure,
  // and never throws for a per-run fault: an in-process run that crashes
  // (caught by the signal guard) or hangs (retired by its deadline) earns
  // the engine a strike and is retried exactly once on the subprocess
  // backend, whose host-side watchdog can kill even an uncooperative
  // child. If that attempt also fails, the returned SimulationResult has
  // failed == true and a populated RunFailure instead of observations. A
  // run retired at its deadline carries wall-clock-dependent partial
  // observations, so it is reported as FailureKind::Timeout, never as a
  // result.
  SimulationResult run(uint64_t maxStepsOverride = 0,
                       double timeBudgetOverride = -1.0,
                       std::optional<uint64_t> seedOverride = std::nullopt);

  // Executes one simulation per seed — run() in a loop, results in seed
  // order. Thread-safe like run().
  std::vector<SimulationResult> runBatch(
      const std::vector<uint64_t>& seeds, uint64_t maxStepsOverride = 0,
      double timeBudgetOverride = -1.0);

  // Quarantine: after two strikes (in-process crash or hang) the engine
  // stops using the dlopen library for the rest of its lifetime and routes
  // every run through the subprocess backend, where the OS cleans up
  // whatever a fault leaves behind. Monotonic — there is no parole.
  int strikes() const { return strikes_.load(std::memory_order_relaxed); }
  bool quarantined() const { return strikes() >= 2; }

  const std::string& generatedSource() const { return source_; }
  double generateSeconds() const { return generateSeconds_; }
  double compileSeconds() const { return compileSeconds_; }
  // Wall time spent loading the shared library in-process (0 when the
  // load failed).
  double loadSeconds() const { return loadSeconds_; }
  // True when the compiled simulator came from the content-addressed cache
  // (compileSeconds is then the cache-verification time, near zero).
  bool compileCacheHit() const { return compileCacheHit_; }
  const std::string& exePath() const { return exePath_; }
  // Where the next run() executes: "dlopen", or "process" when the
  // library could not be loaded or is quarantined.
  std::string_view execModeUsed() const {
    return libUsable() ? "dlopen" : "process";
  }
  const CoveragePlan* coveragePlan() const {
    return opt_.coverage ? &covPlan_ : nullptr;
  }

 private:
  SimulationResult runInProcess(uint64_t steps, double budget, uint64_t seed);
  SimulationResult runSubprocess(uint64_t steps, double budget,
                                 uint64_t seed);
  // The decode of a filled result buffer, wherever the run executed.
  SimulationResult decode(const AccmosRunResult& res,
                          const char* execMode) const;
  // Common result tail: coverage report + generate/compile/load timings.
  void finishResult(SimulationResult& r) const;
  // The library geometry this engine's plans imply; a loaded library and
  // every subprocess result frame must report exactly this.
  AccmosModelInfo planGeometry() const;

  void strike() { strikes_.fetch_add(1, std::memory_order_relaxed); }
  // Whether a run may use the loaded library right now.
  bool libUsable() const { return lib_ != nullptr && !quarantined(); }
  SimulationResult failedResult(FailureKind kind, uint64_t seed, int signal,
                                int retries, const char* backend,
                                std::string message) const;

  const FlatModel& fm_;
  SimOptions opt_;
  TestCaseSpec tests_;
  CoveragePlan covPlan_;
  std::vector<int> collectSignals_;
  std::string source_;
  std::string exePath_;  // the compiled library every run executes
  AccmosModelInfo geometry_;
  double generateSeconds_ = 0.0;
  double compileSeconds_ = 0.0;
  double loadSeconds_ = 0.0;
  bool compileCacheHit_ = false;
  std::unique_ptr<class CompilerDriver> driver_;
  std::unique_ptr<class ModelLib> lib_;  // null when the load failed
  std::atomic<int> strikes_{0};
};

// Contained stand-in for a run whose simulator never built: the engine
// constructor threw CompileError with `msg`.
SimulationResult compileFailedResult(uint64_t seed, const std::string& msg);

// One-shot convenience. A simulator that fails to compile comes back as
// compileFailedResult, as it does from a campaign.
SimulationResult runAccMoS(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests);

}  // namespace accmos
