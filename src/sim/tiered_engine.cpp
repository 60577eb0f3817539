#include "sim/tiered_engine.h"

#include <sys/stat.h>

#include <chrono>
#include <utility>

#include "codegen/fault.h"
#include "interp/interpreter.h"
#include "sim/failure.h"

namespace accmos {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Capabilities only the generated code (or the real compiler) has; a run
// that needs one of these must not be answered by the interpreter tier.
bool mustForceNative(const SimOptions& opt) {
  // Cooperative deadlines / step budgets are an ABI v3 feature of the
  // generated code; the interpreter cannot retire a run as timed out.
  if (opt.runTimeoutSec > 0.0 || opt.stepBudget > 0) return true;
  // Expression customs pair a host callback with a C++ snippet; nothing
  // guarantees the two agree, so tiers could observably diverge.
  for (const auto& cd : opt.customDiagnostics) {
    if (cd.kind == CustomDiagnostic::Kind::Expression) return true;
  }
  // ACCMOS_FAULT plants hang/crash faults in the emitted step loop and
  // compile-fail in the compiler; serving runs from the interpreter would
  // dodge the injection the caller explicitly asked for.
  const FaultPlan plan = faultPlanFromEnv();
  if (plan.affectsEmit() || plan.compileFail) return true;
  return false;
}

}  // namespace

TieredEngine::TieredEngine(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests)
    : fm_(fm), opt_(opt), tests_(tests) {
  policy_ = opt_.tier;
  if (policy_ != Tier::Native && mustForceNative(opt_)) policy_ = Tier::Native;
  // The async artifact hand-over rides on the compile cache: the pool job
  // publishes there and engine construction hits the entry. Without a
  // cache the adoption would re-compile synchronously mid-campaign.
  if (policy_ == Tier::Auto &&
      (!opt_.compileCache || CompilerDriver::cacheDisabledGlobally())) {
    policy_ = Tier::Native;
  }

  switch (policy_) {
    case Tier::Native: {
      nativeOwned_ = std::make_unique<AccMoSEngine>(fm_, opt_, tests_);
      generateSeconds_ = nativeOwned_->generateSeconds();
      compileWaitSeconds_ = nativeOwned_->compileSeconds();
      native_.store(nativeOwned_.get(), std::memory_order_release);
      break;
    }
    case Tier::Interp:
      nativeDead_.store(true, std::memory_order_release);
      break;
    case Tier::Auto: {
      gen_ = AccMoSEngine::generate(fm_, opt_, tests_);
      generateSeconds_ = gen_.generateSeconds;
      driver_ = std::make_unique<CompilerDriver>();
      driver_->setCacheEnabled(opt_.compileCache);
      handle_ = driver_->compileAsync(gen_.source, "model_" + fm_.modelName,
                                      opt_.optFlag);
      break;
    }
  }
}

TieredEngine::~TieredEngine() {
  // Withdraw interest in an unfinished compile: if no other waiter wants
  // it, the pool drops the job instead of burning a compiler invocation.
  handle_.cancel();
}

AccMoSEngine* TieredEngine::maybeNative() {
  AccMoSEngine* e = native_.load(std::memory_order_acquire);
  if (e != nullptr) return e;
  if (nativeDead_.load(std::memory_order_acquire)) return nullptr;
  if (!handle_.valid() || !handle_.ready()) return nullptr;

  std::lock_guard<std::mutex> lock(buildMutex_);
  e = native_.load(std::memory_order_acquire);
  if (e != nullptr || nativeDead_.load(std::memory_order_acquire)) return e;

  const auto t0 = Clock::now();
  try {
    CompileOutput compiled = handle_.get();
    compileSecondsAsync_ = compiled.seconds;
    cacheHitAsync_ = compiled.cacheHit;
    // Construct from the already-emitted model; the engine's own compile
    // is a cache hit on the artifact the pool just published, so this is
    // verify + dlopen, not a second compile.
    nativeOwned_ =
        std::make_unique<AccMoSEngine>(fm_, opt_, tests_, std::move(gen_));
    native_.store(nativeOwned_.get(), std::memory_order_release);
  } catch (const ModelError& ex) {
    // Graceful degradation: the campaign finishes all-interpreted. The
    // error is kept for callers that want to surface it.
    nativeError_ = ex.what();
    nativeDead_.store(true, std::memory_order_release);
  }
  compileWaitSeconds_ += secondsSince(t0);
  return native_.load(std::memory_order_acquire);
}

Interpreter* TieredEngine::interpFor(size_t worker) {
  std::lock_guard<std::mutex> lock(interpMutex_);
  if (interps_.size() <= worker) interps_.resize(worker + 1);
  if (!interps_[worker]) {
    interps_[worker] = std::make_unique<Interpreter>(fm_, opt_);
  }
  return interps_[worker].get();
}

SimulationResult TieredEngine::interpRun(uint64_t seed, size_t worker) {
  Interpreter* interp = interpFor(worker);
  TestCaseSpec spec = tests_;
  spec.seed = seed;
  SimulationResult r = interp->run(spec);
  r.execMode = kExecModeInterp;
  r.generateSeconds = generateSeconds_;
  interpRuns_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

SimulationResult TieredEngine::run(std::optional<uint64_t> seedOverride,
                                   size_t worker) {
  if (AccMoSEngine* e = maybeNative()) {
    nativeRuns_.fetch_add(1, std::memory_order_relaxed);
    return e->run(0, -1.0, seedOverride);
  }
  if (policy_ != Tier::Interp && nativeFailed()) {
    // Single-run callers asked for native acceleration and the compile
    // failed; surface it like the synchronous constructor would.
    throw CompileError(nativeError_);
  }
  return interpRun(seedOverride.value_or(tests_.seed), worker);
}

SimulationResult TieredEngine::runContained(
    std::optional<uint64_t> seedOverride, size_t worker) {
  if (AccMoSEngine* e = maybeNative()) {
    nativeRuns_.fetch_add(1, std::memory_order_relaxed);
    return e->runContained(0, -1.0, seedOverride);
  }
  return interpRun(seedOverride.value_or(tests_.seed), worker);
}

double TieredEngine::generateSeconds() const { return generateSeconds_; }

double TieredEngine::compileSeconds() const {
  if (policy_ == Tier::Native) {
    return nativeOwned_ ? nativeOwned_->compileSeconds() : 0.0;
  }
  std::lock_guard<std::mutex> lock(buildMutex_);
  return compileSecondsAsync_;
}

double TieredEngine::loadSeconds() const {
  std::lock_guard<std::mutex> lock(buildMutex_);
  return nativeOwned_ ? nativeOwned_->loadSeconds() : 0.0;
}

double TieredEngine::compileWaitSeconds() const {
  std::lock_guard<std::mutex> lock(buildMutex_);
  return compileWaitSeconds_;
}

size_t TieredEngine::residentBytes() const {
  // Under the lock: adopting the native engine moves gen_ out.
  std::lock_guard<std::mutex> lock(buildMutex_);
  size_t bytes = gen_.source.size();
  if (nativeOwned_) {
    bytes += nativeOwned_->generatedSource().size();
    struct stat st {};
    if (::stat(nativeOwned_->exePath().c_str(), &st) == 0 && st.st_size > 0) {
      bytes += static_cast<size_t>(st.st_size);
    }
  }
  return bytes;
}

bool TieredEngine::compileCacheHit() const {
  if (policy_ == Tier::Native) {
    return nativeOwned_ ? nativeOwned_->compileCacheHit() : false;
  }
  std::lock_guard<std::mutex> lock(buildMutex_);
  return cacheHitAsync_;
}

const std::string& TieredEngine::nativeError() const {
  std::lock_guard<std::mutex> lock(buildMutex_);
  return nativeError_;
}

}  // namespace accmos
