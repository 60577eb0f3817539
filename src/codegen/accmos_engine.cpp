#include "codegen/accmos_engine.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <vector>

#include "actors/common.h"
#include "actors/spec.h"
#include "codegen/compiler_driver.h"
#include "codegen/emitter.h"
#include "codegen/model_lib.h"
#include "codegen/results_parser.h"
#include "codegen/run_guard.h"

namespace accmos {

namespace {

// Seconds on the steady clock's epoch — the SAME clock the generated
// code's accmos_now_s() reads, so host-computed absolute deadlines compare
// directly inside the in-process step loop.
double steadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

GeneratedModel AccMoSEngine::generate(const FlatModel& fm,
                                      const SimOptions& opt,
                                      const TestCaseSpec& tests) {
  validateFlatModel(fm);
  tests.validate();  // the emitter bakes the stimulus into generated code
  for (const auto& cd : opt.customDiagnostics) {
    if (cd.kind == CustomDiagnostic::Kind::Expression &&
        cd.cppCondition.empty()) {
      throw ModelError(
          "custom diagnostic '" + cd.name +
          "': Expression diagnostics need a cppCondition for the AccMoS "
          "engine (callbacks cannot be compiled into generated code)");
    }
    if (fm.findByPath(cd.actorPath) == nullptr) {
      throw ModelError("custom diagnostic '" + cd.name +
                       "' references unknown actor path '" + cd.actorPath +
                       "'");
    }
  }
  GeneratedModel gen;
  if (opt.coverage) {
    gen.covPlan = CoveragePlan::build(
        fm, [](const FlatActor& fa) { return covTraitsFor(fa); });
  }
  DiagnosisPlan diagPlan;  // needed only while emitting
  if (opt.diagnosis) {
    diagPlan = DiagnosisPlan::build(
        fm, [&](const FlatActor& fa) { return diagKindsFor(fm, fa); });
  }

  auto t0 = std::chrono::steady_clock::now();
  Emitter emitter(fm, opt, tests, opt.coverage ? &gen.covPlan : nullptr,
                  opt.diagnosis ? &diagPlan : nullptr);
  gen.source = emitter.generate();
  gen.collectSignals = emitter.collectSignals();
  auto t1 = std::chrono::steady_clock::now();
  gen.generateSeconds = std::chrono::duration<double>(t1 - t0).count();
  return gen;
}

ArtifactKind AccMoSEngine::artifactPlan(const SimOptions& /*opt*/,
                                        std::string* extraFlags) {
  if (extraFlags != nullptr) extraFlags->clear();
  return ArtifactKind::SharedLib;
}

AccMoSEngine::AccMoSEngine(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests)
    : AccMoSEngine(fm, opt, tests, generate(fm, opt, tests)) {}

AccMoSEngine::AccMoSEngine(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests, GeneratedModel&& gen)
    : fm_(fm),
      opt_(opt),
      tests_(tests),
      covPlan_(std::move(gen.covPlan)),
      collectSignals_(std::move(gen.collectSignals)),
      source_(std::move(gen.source)),
      generateSeconds_(gen.generateSeconds) {
  geometry_ = planGeometry();
  driver_ = std::make_unique<CompilerDriver>();

  // One artifact, wherever a run executes.
  auto compiled =
      driver_->compile(source_, "model_" + fm_.modelName, opt_.optFlag);
  compileSeconds_ = compiled.seconds;
  compileCacheHit_ = compiled.cacheHit;
  exePath_ = compiled.exePath;

  // Load the library in-process. Any failure — a dlopen error, a library
  // with the wrong ABI or geometry — leaves the engine on the subprocess
  // rung, which runs the same library in a child process.
  try {
    // dlopen a private per-engine copy, never the shared cache entry
    // directly: the dynamic linker dedups loads by pathname and inode, so
    // dlopening a cache path that an earlier engine already mapped would
    // hand back the old library even after the entry was healed or
    // replaced. The copy lives in this engine's unique work dir and is
    // cleaned up with it.
    namespace fs = std::filesystem;
    fs::path libCopy =
        fs::path(driver_->dir()) / ("model_" + fm_.modelName + ".load.so");
    fs::copy_file(exePath_, libCopy, fs::copy_options::overwrite_existing);
    lib_ = std::make_unique<ModelLib>(libCopy.string());
    // A geometry other than the plans' means buffers sized wrong: fail
    // closed instead of trusting the library.
    if (!sameGeometry(lib_->info(), geometry_)) {
      throw CompileError("generated model library " + exePath_ +
                         " reports a geometry that does not match the "
                         "host's instrumentation plans");
    }
    loadSeconds_ = lib_->loadSeconds();
  } catch (const CompileError&) {
    lib_.reset();
  } catch (const std::filesystem::filesystem_error&) {
    lib_.reset();
  }
}

AccmosModelInfo AccMoSEngine::planGeometry() const {
  AccmosModelInfo g;
  std::memset(&g, 0, sizeof(g));
  if (opt_.coverage) {
    for (int m = 0; m < 4; ++m) {
      g.covLen[m] =
          static_cast<uint64_t>(covPlan_.totalSlots(kAllCovMetrics[m]));
    }
  }
  g.numActors = fm_.actors.size();
  g.numDiagKinds = static_cast<uint64_t>(kNumDiagKinds);
  g.numCustom = opt_.customDiagnostics.size();
  g.numCollect = collectSignals_.size();
  for (int sid : collectSignals_) {
    g.collectValsLen += static_cast<uint64_t>(fm_.signal(sid).width);
  }
  for (int oid : fm_.rootOutports) {
    g.outValsLen +=
        static_cast<uint64_t>(fm_.signal(fm_.actor(oid).inputs[0]).width);
  }
  return g;
}

AccMoSEngine::~AccMoSEngine() = default;

SimulationResult AccMoSEngine::runInProcess(uint64_t steps, double budget,
                                            uint64_t seed) {
  // Caller-owned buffers, sized from the checked geometry. All locals —
  // concurrent run() calls never share state.
  RunBuffers buf(geometry_);

  AccmosRunArgs args;
  std::memset(&args, 0, sizeof(args));
  args.structSize = static_cast<uint32_t>(sizeof(AccmosRunArgs));
  args.abiVersion = ACCMOS_ABI_VERSION;
  args.maxSteps = steps;
  args.timeBudgetSec = budget;
  args.seed = seed;
  args.deadlineSeconds =
      opt_.runTimeoutSec > 0.0 ? steadyNowSeconds() + opt_.runTimeoutSec
                               : 0.0;

  // The guard turns a fatal signal inside the generated code into a typed
  // exception (best effort — see run_guard.h); run() strikes the engine
  // toward quarantine and retries on the subprocess backend.
  GuardedCallResult g =
      runGuarded([&]() { return lib_->run(args, buf.res); });
  if (g.crashed) {
    throw SimCrashError("in-process model run crashed with signal " +
                            std::to_string(g.signal) + " (library " +
                            lib_->path() + ")",
                        g.signal);
  }
  int rc = g.rc;
  // ETIMEOUT is a *retired* run, not a broken one: the generated loop
  // observed its deadline, extraction still ran, and res.timedOut is set —
  // decode normally.
  if (rc != ACCMOS_ABI_OK && rc != ACCMOS_ABI_ETIMEOUT) {
    throw CompileError("in-process model run failed with ABI status " +
                       std::to_string(rc) + " (library " + lib_->path() +
                       ")");
  }
  return decode(buf.res, "dlopen");
}

SimulationResult AccMoSEngine::runSubprocess(uint64_t steps, double budget,
                                             uint64_t seed) {
  // The deadline crosses the process boundary as a RELATIVE timeout
  // (monotonic epochs differ between processes); the runner computes its
  // own absolute deadline. The driver additionally arms its host-side
  // watchdog with the same timeout as a backstop for genuine hangs. Both
  // doubles travel as round-trip exact text: std::to_string's six fixed
  // decimals would turn a 1e-7 budget into 0 (unlimited).
  const std::vector<std::string> argv = {
      exePath_, std::to_string(steps), fmtD(budget),
      std::to_string(seed), fmtD(opt_.runTimeoutSec)};
  std::string frame;
  try {
    frame = driver_->run(ACCMOS_RUN_LIB_PATH, argv, opt_.runTimeoutSec);
  } catch (const SimCrashError& e) {
    // The runner's own failures are typed, never a model crash.
    if (e.exitStatus() == kRunLibExitLoad) throw CompileError(e.what());
    if (e.exitStatus() == kRunLibExitRun) throw ModelError(e.what());
    throw;
  }
  RunBuffers buf(geometry_);
  readResultFrame(frame, buf);
  return decode(buf.res, "process");
}

SimulationResult AccMoSEngine::decode(const AccmosRunResult& res,
                                      const char* execMode) const {
  SimulationResult result =
      decodeBinaryResults(res, fm_, opt_.coverage ? &covPlan_ : nullptr,
                          collectSignals_, opt_.customDiagnostics);
  result.execMode = execMode;
  return result;
}

void AccMoSEngine::finishResult(SimulationResult& r) const {
  if (opt_.coverage) {
    r.coverage = makeReport(covPlan_, r.bitmaps);
    r.hasCoverage = true;
  }
  r.generateSeconds = generateSeconds_;
  r.compileSeconds = compileSeconds_;
  r.loadSeconds = loadSeconds_;
}

SimulationResult AccMoSEngine::failedResult(FailureKind kind, uint64_t seed,
                                            int signal, int retries,
                                            const char* backend,
                                            std::string message) const {
  SimulationResult r;
  r.failed = true;
  r.timedOut = kind == FailureKind::Timeout;
  r.failure.kind = kind;
  r.failure.seed = seed;
  r.failure.signal = signal;
  r.failure.retries = retries;
  r.failure.backend = backend;
  r.failure.message = std::move(message);
  r.execMode = backend;
  return r;
}

SimulationResult AccMoSEngine::run(uint64_t maxStepsOverride,
                                   double timeBudgetOverride,
                                   std::optional<uint64_t> seedOverride) {
  const uint64_t steps =
      maxStepsOverride != 0 ? maxStepsOverride : opt_.maxSteps;
  const double budget =
      timeBudgetOverride >= 0.0 ? timeBudgetOverride : opt_.timeBudgetSec;
  const uint64_t seed = seedOverride.value_or(tests_.seed);

  int retries = 0;
  if (libUsable()) {
    try {
      SimulationResult r = runInProcess(steps, budget, seed);
      if (!r.timedOut) {
        finishResult(r);
        return r;
      }
      // Cooperative in-process hang: a timed-out run's partial
      // observations depend on wall-clock timing, so they are never
      // reported. Strike, then give the run its one subprocess retry.
      strike();
    } catch (const SimCrashError&) {
      strike();
    } catch (const ModelError&) {
      // ABI status failure / undecodable result — retry out-of-process
      // without striking (nothing suggests in-process state damage).
    }
    retries = 1;
  }

  try {
    SimulationResult r = runSubprocess(steps, budget, seed);
    if (r.timedOut) {
      return failedResult(
          FailureKind::Timeout, seed, 0, retries, "process",
          "run retired at its wall-clock deadline");
    }
    finishResult(r);
    return r;
  } catch (const SimTimeoutError& e) {
    return failedResult(FailureKind::Timeout, seed, 0, retries, "process",
                        e.what());
  } catch (const SimCrashError& e) {
    return failedResult(FailureKind::Crash, seed, e.terminatingSignal(),
                        retries, "process", e.what());
  } catch (const CompileError& e) {
    return failedResult(FailureKind::CompileError, seed, 0, retries,
                        "process", e.what());
  } catch (const ModelError& e) {
    return failedResult(FailureKind::AbiMismatch, seed, 0, retries, "process",
                        e.what());
  }
}

std::vector<SimulationResult> AccMoSEngine::runBatch(
    const std::vector<uint64_t>& seeds, uint64_t maxStepsOverride,
    double timeBudgetOverride) {
  std::vector<SimulationResult> out;
  out.reserve(seeds.size());
  for (uint64_t seed : seeds) {
    out.push_back(run(maxStepsOverride, timeBudgetOverride, seed));
  }
  return out;
}

SimulationResult compileFailedResult(uint64_t seed, const std::string& msg) {
  SimulationResult r;
  r.failed = true;
  r.failure.kind = FailureKind::CompileError;
  r.failure.seed = seed;
  r.failure.backend = "compile";
  r.failure.message = msg;
  return r;
}

SimulationResult runAccMoS(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests) {
  try {
    AccMoSEngine engine(fm, opt, tests);
    return engine.run();
  } catch (const CompileError& e) {
    return compileFailedResult(tests.seed, e.what());
  }
}

}  // namespace accmos
