// The AccMoS engine: the full pipeline of the paper — simulation-oriented
// instrumentation, simulation code synthesis, compilation, execution, and
// result recovery.
//
// The generated code is compiled once, -shared -fPIC, and both execution
// backends (SimOptions::execMode, docs/EXECUTION.md) run that one library:
//   Dlopen  — loaded once with dlopen; every run() is an in-process
//             accmos_run() call filling caller-owned binary buffers, with
//             no subprocess on the hot path. Falls back to Process
//             automatically if the library cannot be loaded.
//   Process — every run() spawns the model-independent accmos-run-lib
//             runner, which loads the library in a child process and
//             sends the same buffers back as one binary frame.
// Both backends decode through decodeBinaryResults and produce
// bit-identical SimulationResults.
#pragma once

#include <atomic>
#include <memory>
#include <optional>

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
  // Thread-safe in both exec modes: concurrent campaign/gen workers share
  // one engine (and, in dlopen mode, one loaded library).
  SimulationResult run(uint64_t maxStepsOverride = 0,
                       double timeBudgetOverride = -1.0,
                       std::optional<uint64_t> seedOverride = std::nullopt);

  // Executes one simulation per seed — run() in a loop, results in seed
  // order. Thread-safe like run().
  std::vector<SimulationResult> runBatch(
      const std::vector<uint64_t>& seeds, uint64_t maxStepsOverride = 0,
      double timeBudgetOverride = -1.0);

  // Fault-contained single run: never throws for per-run faults. The
  // degradation ladder (docs/ROBUSTNESS.md) is
  //   dlopen -> subprocess -> structured failure:
  // an in-process run that crashes (caught by the signal guard) or hangs
  // (retired by its ABI v3 deadline / step budget) earns the engine a
  // strike and is retried exactly once on the subprocess backend, whose
  // host-side watchdog can kill even an uncooperative child. If that
  // attempt also fails, the returned SimulationResult has failed == true
  // and a populated RunFailure instead of observations — campaigns and the
  // generator record it and move on. Results that timed out carry
  // wall-clock-dependent partial observations, so containment reports them
  // as FailureKind::Timeout rather than merging nondeterministic data.
  SimulationResult runContained(
      uint64_t maxStepsOverride = 0, double timeBudgetOverride = -1.0,
      std::optional<uint64_t> seedOverride = std::nullopt);

  // Quarantine: after two strikes (in-process crash or hang) the engine
  // stops using the dlopen library for the rest of its lifetime and routes
  // every run through the subprocess backend, where the OS cleans up
  // whatever a fault leaves behind. Monotonic — there is no parole.
  int strikes() const { return strikes_.load(std::memory_order_relaxed); }
  bool quarantined() const { return strikes() >= 2; }

  const std::string& generatedSource() const { return source_; }
  double generateSeconds() const { return generateSeconds_; }
  double compileSeconds() const { return compileSeconds_; }
  // Wall time spent loading the shared library in-process (0 in process
  // mode).
  double loadSeconds() const { return loadSeconds_; }
  // True when the compiled simulator came from the content-addressed cache
  // (compileSeconds is then the cache-verification time, near zero).
  bool compileCacheHit() const { return compileCacheHit_; }
  const std::string& exePath() const { return exePath_; }
  // Backend actually in use — Process either by request or because the
  // dlopen backend fell back.
  ExecMode execModeUsed() const { return execModeUsed_; }
  const CoveragePlan* coveragePlan() const {
    return opt_.coverage ? &covPlan_ : nullptr;
  }

 private:
  SimulationResult runInProcess(uint64_t steps, double budget, uint64_t seed);
  SimulationResult runSubprocess(uint64_t steps, double budget,
                                 uint64_t seed);
  // Both backends' decode of a filled result buffer.
  SimulationResult decode(const AccmosRunResult& res, ExecMode mode) const;
  // Common result tail: coverage report + generate/compile/load timings.
  void finishResult(SimulationResult& r) const;
  // The library geometry this engine's plans imply; a loaded library and
  // every subprocess result frame must report exactly this.
  AccmosModelInfo planGeometry() const;

  void strike() { strikes_.fetch_add(1, std::memory_order_relaxed); }
  // True when this engine's options ask for deadline enforcement.
  bool deadlineArmed() const {
    return opt_.runTimeoutSec > 0.0 || opt_.stepBudget > 0;
  }
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
  std::string exePath_;  // the compiled library both backends run
  AccmosModelInfo geometry_;
  double generateSeconds_ = 0.0;
  double compileSeconds_ = 0.0;
  double loadSeconds_ = 0.0;
  bool compileCacheHit_ = false;
  ExecMode execModeUsed_ = ExecMode::Process;
  std::unique_ptr<class CompilerDriver> driver_;
  std::unique_ptr<class ModelLib> lib_;  // set in dlopen mode only
  std::atomic<int> strikes_{0};
};

// One-shot convenience.
SimulationResult runAccMoS(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests);

}  // namespace accmos
