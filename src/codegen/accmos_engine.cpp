#include "codegen/accmos_engine.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <vector>

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
  if (opt.diagnosis) {
    gen.diagPlan = DiagnosisPlan::build(
        fm, [&](const FlatActor& fa) { return diagKindsFor(fm, fa); });
  }

  auto t0 = std::chrono::steady_clock::now();
  Emitter emitter(fm, opt, tests, opt.coverage ? &gen.covPlan : nullptr,
                  opt.diagnosis ? &gen.diagPlan : nullptr);
  gen.source = emitter.generate();
  gen.collectSignals = emitter.collectSignals();
  auto t1 = std::chrono::steady_clock::now();
  gen.generateSeconds = std::chrono::duration<double>(t1 - t0).count();
  return gen;
}

ArtifactKind AccMoSEngine::artifactPlan(const SimOptions& opt,
                                        std::string* extraFlags) {
  if (extraFlags != nullptr) extraFlags->clear();
  return opt.execMode == ExecMode::Dlopen ? ArtifactKind::SharedLib
                                          : ArtifactKind::Executable;
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
      diagPlan_(std::move(gen.diagPlan)),
      collectSignals_(std::move(gen.collectSignals)),
      source_(std::move(gen.source)),
      generateSeconds_(gen.generateSeconds) {
  driver_ = std::make_unique<CompilerDriver>(opt_.workDir);
  driver_->setKeep(opt_.keepGeneratedCode || !opt_.workDir.empty());
  driver_->setCacheEnabled(opt_.compileCache);

  if (opt_.execMode == ExecMode::Dlopen) {
    // Compile as a shared library and load it in-process. Any failure —
    // compiler without -shared/-fPIC support, a dlopen error, a library
    // with the wrong ABI — degrades to the subprocess backend rather than
    // failing the engine. artifactPlan() decides the kind so an async
    // pre-compile (TieredEngine) targets the identical cache entry.
    try {
      auto compiled =
          driver_->compile(source_, "model_" + fm_.modelName, opt_.optFlag,
                           artifactPlan(opt_, nullptr));
      compileSeconds_ = compiled.seconds;
      compileCacheHit_ = compiled.cacheHit;
      artifactKeepAlive_ = compiled.keepAlive;
      // dlopen a private per-engine copy, never the shared cache entry
      // directly: the dynamic linker dedups loads by pathname and inode,
      // so dlopening a cache path that an earlier engine already mapped
      // would hand back the old library even after the entry was healed
      // or replaced. The copy lives in this engine's unique work dir and
      // is cleaned up with it.
      namespace fs = std::filesystem;
      fs::path libCopy =
          fs::path(driver_->dir()) / ("model_" + fm_.modelName + ".load.so");
      fs::copy_file(compiled.exePath, libCopy,
                    fs::copy_options::overwrite_existing);
      lib_ = std::make_unique<ModelLib>(libCopy.string());
      loadSeconds_ = lib_->loadSeconds();
      exePath_ = compiled.exePath;
      execModeUsed_ = ExecMode::Dlopen;

      // Cross-check the library's reported geometry against our plans — a
      // mismatch means we'd size buffers wrong, so fail closed (and fall
      // back) instead of trusting it.
      const AccmosModelInfo& info = lib_->info();
      uint64_t expectedCov[4] = {0, 0, 0, 0};
      if (opt_.coverage) {
        for (int m = 0; m < 4; ++m) {
          expectedCov[m] = static_cast<uint64_t>(
              covPlan_.totalSlots(kAllCovMetrics[m]));
        }
      }
      size_t collectValsLen = 0;
      for (int sid : collectSignals_) {
        collectValsLen += static_cast<size_t>(fm_.signal(sid).width);
      }
      size_t outValsLen = 0;
      for (int oid : fm_.rootOutports) {
        outValsLen +=
            static_cast<size_t>(fm_.signal(fm_.actor(oid).inputs[0]).width);
      }
      bool covOk = true;
      for (int m = 0; m < 4; ++m) covOk &= info.covLen[m] == expectedCov[m];
      if (!covOk || info.numActors != fm_.actors.size() ||
          info.numDiagKinds != static_cast<uint64_t>(kNumDiagKinds) ||
          info.numCustom != opt_.customDiagnostics.size() ||
          info.numCollect != collectSignals_.size() ||
          info.collectValsLen != collectValsLen ||
          info.outValsLen != outValsLen) {
        throw CompileError("generated model library " + exePath_ +
                           " reports a geometry that does not match the "
                           "host's instrumentation plans");
      }
      return;
    } catch (const CompileError&) {
      lib_.reset();
      loadSeconds_ = 0.0;
    } catch (const std::filesystem::filesystem_error&) {
      lib_.reset();
      loadSeconds_ = 0.0;
    }
  }

  auto compiled = driver_->compile(source_, "model_" + fm_.modelName,
                                   opt_.optFlag, ArtifactKind::Executable);
  compileSeconds_ += compiled.seconds;
  compileCacheHit_ = compiled.cacheHit;
  artifactKeepAlive_ = compiled.keepAlive;
  exePath_ = compiled.exePath;
  processExePath_ = compiled.exePath;
  execModeUsed_ = ExecMode::Process;
}

const std::string& AccMoSEngine::ensureExecutable() {
  std::lock_guard<std::mutex> lock(exeMutex_);
  if (processExePath_.empty()) {
    // First subprocess fallback of a dlopen-mode engine: the shared
    // library cannot be exec'd, so build the executable form now. Usually
    // a cache hit in any campaign that fell back before.
    auto compiled = driver_->compile(source_, "model_" + fm_.modelName,
                                     opt_.optFlag, ArtifactKind::Executable);
    processExePath_ = compiled.exePath;
  }
  return processExePath_;
}

bool AccMoSEngine::libUsable() const {
  // A pre-v3 library has no cooperative deadline checks: an in-process
  // hang there would be uninterruptible (no watchdog can kill a thread of
  // our own process), so deadline-armed runs route around it.
  return lib_ != nullptr && !quarantined() &&
         (lib_->supportsDeadlines() || !deadlineArmed());
}

AccMoSEngine::~AccMoSEngine() = default;

SimulationResult AccMoSEngine::runInProcess(uint64_t steps, double budget,
                                            uint64_t seed) {
  const AccmosModelInfo& info = lib_->info();

  // Caller-owned buffers, sized once from the library's geometry. All
  // locals — concurrent run() calls never share state.
  std::vector<uint8_t> cov[4];
  std::vector<AccmosDiagRec> diags(
      static_cast<size_t>(info.numActors * info.numDiagKinds));
  std::vector<AccmosCustomRec> customs(static_cast<size_t>(info.numCustom));
  std::vector<uint64_t> collectCounts(static_cast<size_t>(info.numCollect));
  std::vector<uint64_t> collectVals(static_cast<size_t>(info.collectValsLen));
  std::vector<uint64_t> outVals(static_cast<size_t>(info.outValsLen));

  AccmosRunArgs args;
  std::memset(&args, 0, sizeof(args));
  // Stamp the version and struct size the LIBRARY implements, not our
  // compile-time constants: a v1 library checks args against version 1 and
  // the 32-byte pre-v3 layout (identical across v1/v2), so the v3
  // deadline fields must not be counted into structSize for it.
  args.structSize = lib_->runArgsSize();
  args.abiVersion = lib_->abiVersion();
  args.maxSteps = steps;
  args.timeBudgetSec = budget;
  args.seed = seed;
  if (lib_->supportsDeadlines()) {
    args.deadlineSeconds = opt_.runTimeoutSec > 0.0
                               ? steadyNowSeconds() + opt_.runTimeoutSec
                               : 0.0;
    args.stepBudget = opt_.stepBudget;
  }

  AccmosRunResult res;
  std::memset(&res, 0, sizeof(res));
  res.structSize = static_cast<uint32_t>(sizeof(AccmosRunResult));
  res.abiVersion = lib_->abiVersion();
  for (int m = 0; m < 4; ++m) {
    cov[m].resize(static_cast<size_t>(info.covLen[m]));
    res.cov[m] = cov[m].empty() ? nullptr : cov[m].data();
    res.covLen[m] = info.covLen[m];
  }
  res.diags = diags.empty() ? nullptr : diags.data();
  res.diagCap = diags.size();
  res.customs = customs.empty() ? nullptr : customs.data();
  res.customCap = customs.size();
  res.collectCounts = collectCounts.empty() ? nullptr : collectCounts.data();
  res.numCollect = collectCounts.size();
  res.collectVals = collectVals.empty() ? nullptr : collectVals.data();
  res.collectValsLen = collectVals.size();
  res.outVals = outVals.empty() ? nullptr : outVals.data();
  res.outValsLen = outVals.size();

  // The guard turns a fatal signal inside the generated code into a typed
  // exception (best effort — see run_guard.h); callers strike the engine
  // toward quarantine and retry on the subprocess backend.
  GuardedCallResult g = runGuarded([&]() { return lib_->run(args, res); });
  if (g.crashed) {
    throw SimCrashError("in-process model run crashed with signal " +
                            std::to_string(g.signal) + " (library " +
                            lib_->path() + ")",
                        g.signal);
  }
  int rc = g.rc;
  // ETIMEOUT is a *retired* run, not a broken one: the generated loop
  // observed its deadline or step budget, extraction still ran, and
  // res.timedOut is set — decode normally.
  if (rc != ACCMOS_ABI_OK && rc != ACCMOS_ABI_ETIMEOUT) {
    throw CompileError("in-process model run failed with ABI status " +
                       std::to_string(rc) + " (library " + lib_->path() +
                       ")");
  }
  SimulationResult result = decodeBinaryResults(
      res, fm_, opt_.coverage ? &covPlan_ : nullptr,
      opt_.diagnosis ? &diagPlan_ : nullptr, collectSignals_,
      opt_.customDiagnostics);
  result.execMode = std::string(execModeName(ExecMode::Dlopen));
  return result;
}

SimulationResult AccMoSEngine::runSubprocess(uint64_t steps, double budget,
                                             uint64_t seed) {
  const std::string& exe = ensureExecutable();
  std::vector<std::string> argv = {std::to_string(steps),
                                   std::to_string(budget),
                                   std::to_string(seed)};
  if (deadlineArmed()) {
    // The deadline crosses the process boundary as a RELATIVE timeout
    // (monotonic epochs differ between processes); the child computes its
    // own absolute deadline. The driver additionally arms its host-side
    // watchdog with the same timeout as a backstop for genuine hangs.
    argv.push_back(std::to_string(opt_.runTimeoutSec));
    argv.push_back(std::to_string(opt_.stepBudget));
  }
  std::string output = driver_->run(exe, argv, opt_.runTimeoutSec);
  SimulationResult result = parseResults(
      output, fm_, opt_.coverage ? &covPlan_ : nullptr,
      opt_.diagnosis ? &diagPlan_ : nullptr, collectSignals_,
      opt_.customDiagnostics);
  result.execMode = std::string(execModeName(ExecMode::Process));
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

SimulationResult AccMoSEngine::run(uint64_t maxStepsOverride,
                                   double timeBudgetOverride,
                                   std::optional<uint64_t> seedOverride) {
  uint64_t steps = maxStepsOverride != 0 ? maxStepsOverride : opt_.maxSteps;
  double budget =
      timeBudgetOverride >= 0.0 ? timeBudgetOverride : opt_.timeBudgetSec;
  uint64_t seed = seedOverride.value_or(tests_.seed);
  SimulationResult result = libUsable() ? runInProcess(steps, budget, seed)
                                        : runSubprocess(steps, budget, seed);
  finishResult(result);
  return result;
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

SimulationResult AccMoSEngine::runContained(
    uint64_t maxStepsOverride, double timeBudgetOverride,
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
      // merged. Strike, then give the seed its one subprocess retry.
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
          "run retired at its wall-clock deadline / step budget");
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

SimulationResult runAccMoS(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests) {
  AccMoSEngine engine(fm, opt, tests);
  return engine.run();
}

}  // namespace accmos
