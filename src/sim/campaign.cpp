#include "sim/campaign.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include "actors/spec.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "interp/interpreter.h"
#include "opt/pipeline.h"
#include "sim/interrupt.h"
#include "sim/simulator.h"

namespace accmos {
namespace {

void mergeDiagnostics(std::map<std::tuple<int, DiagKind, std::string>,
                               DiagRecord>& merged,
                      const std::vector<DiagRecord>& records) {
  for (const auto& rec : records) {
    auto key = std::make_tuple(rec.actorId, rec.kind, rec.message);
    auto it = merged.find(key);
    if (it == merged.end()) {
      merged.emplace(key, rec);
    } else {
      it->second.count += rec.count;
      it->second.firstStep = std::min(it->second.firstStep, rec.firstStep);
    }
  }
}

size_t resolveWorkers(size_t workers, size_t numJobs) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(workers, numJobs);
}

void checkInstrumentedEngine(const SimOptions& opt) {
  if (opt.engine != Engine::SSE && opt.engine != Engine::AccMoS) {
    throw ModelError(
        "test campaigns need an instrumented engine (SSE or AccMoS)");
  }
  if (!opt.coverage) {
    throw ModelError("test campaigns accumulate coverage; enable it");
  }
  checkRunTimeout(opt);
}

}  // namespace

SpecEvaluator::SpecEvaluator(const FlatModel& fm, const SimOptions& opt)
    : fm_(fm), opt_(opt) {
  checkInstrumentedEngine(opt_);
}

SpecEvaluator::~SpecEvaluator() = default;

AccMoSEngine* SpecEvaluator::engineFor(const TestCaseSpec& spec) {
  return engineFor(spec, nullptr);
}

AccMoSEngine* SpecEvaluator::builtEngine() const {
  std::lock_guard<std::mutex> lock(engineMutex_);
  return engine_.get();
}

AccMoSEngine* SpecEvaluator::engineFor(const TestCaseSpec& spec,
                                       EngineBuildCosts* built) {
  if (AccMoSEngine* e = builtEngine()) return e;
  // Checked again under the build lock: a call that lost the race for the
  // first use finds the winner's engine instead of compiling it twice.
  std::lock_guard<std::mutex> buildLock(buildMutex_);
  if (AccMoSEngine* e = builtEngine()) return e;
  auto engine = std::make_unique<AccMoSEngine>(fm_, opt_, spec);
  if (built != nullptr) {
    ++built->enginesBuilt;
    if (engine->compileCacheHit()) ++built->cacheHits;
    built->generateSeconds += engine->generateSeconds();
    built->compileSeconds += engine->compileSeconds();
    built->loadSeconds += engine->loadSeconds();
  }
  std::lock_guard<std::mutex> lock(engineMutex_);
  engine_ = std::move(engine);
  return engine_.get();
}

size_t SpecEvaluator::residentBytes() const {
  const AccMoSEngine* e = builtEngine();
  if (e == nullptr) return 0;
  // The generated source the engine holds plus the on-disk size of its
  // library (what dlopen maps), which the engine read once when it was
  // built: the pool asks on every request, under its lock.
  return e->generatedSource().size() + e->libraryBytes();
}

std::vector<SimulationResult> SpecEvaluator::evaluate(SpecBatch specs) {
  return evaluate(specs, opt_.campaign.workers, nullptr);
}

std::vector<SimulationResult> SpecEvaluator::evaluate(
    SpecBatch specs, size_t workers, EngineBuildCosts* built) {
  std::vector<SimulationResult> out(specs.size());
  evaluateInOrder(specs, workers, /*interruptible=*/false, built,
                  [&](size_t k, SimulationResult&& r) {
                    out[k] = std::move(r);
                  });
  return out;
}

// Specs are pulled one at a time from a shared counter by a pool of
// threads: each SSE worker builds its own interpreter for the call; the
// AccMoS engine's run() is thread-safe, so workers call the one engine
// directly — concurrent calls into one loaded library, or concurrent child
// processes each writing to their own pipe when a run is contained out of
// process. Delivery is strictly in spec order whatever the interleaving,
// so the merge downstream is deterministic for any worker count.
size_t SpecEvaluator::evaluateInOrder(SpecBatch specs, size_t workers,
                                      bool interruptible,
                                      EngineBuildCosts* built,
                                      const ResultSink& sink) {
  if (specs.empty()) {
    throw ModelError("spec batch evaluation needs at least one test case");
  }
  specs.validate();

  // AccMoS: build (or reuse) the one engine before the fan-out. A
  // simulator that cannot be compiled does not abort the batch: every
  // spec is reported as a contained CompileError result.
  AccMoSEngine* engine = nullptr;
  std::string compileError;
  if (opt_.engine == Engine::AccMoS) {
    try {
      engine = engineFor(specs.stimulus(0), built);
    } catch (const CompileError& e) {
      compileError = e.what();
    }
  }

  workers = resolveWorkers(workers, specs.size());

  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex deliveryMutex;
  // Guarded by deliveryMutex: the results handed to `sink` so far (always
  // specs [0, delivered)), the results that finished ahead of that prefix,
  // and the first exception.
  size_t delivered = 0;
  std::map<size_t, SimulationResult> waiting;
  std::exception_ptr error;

  // `sink` runs under the lock: that is what makes its calls one at a time
  // and in spec order.
  auto deliver = [&](size_t k, SimulationResult&& res) {
    std::lock_guard<std::mutex> lock(deliveryMutex);
    if (k != delivered) {
      waiting.emplace(k, std::move(res));
      return;
    }
    sink(delivered++, std::move(res));
    for (auto it = waiting.begin();
         it != waiting.end() && it->first == delivered;
         it = waiting.erase(it)) {
      sink(delivered++, std::move(it->second));
    }
  };

  auto work = [&] {
    // SSE: this worker's interpreter, and its one copy of a seeded batch's
    // base spec, both for this call.
    std::unique_ptr<Interpreter> interp;
    std::optional<TestCaseSpec> scratch;
    for (;;) {
      // An interrupt stops CLAIMING here, but a claimed spec always
      // finishes and is delivered, so claims — handed out by the monotonic
      // counter — cover a prefix of the spec order and the delivered count
      // is that prefix, which makes the partial merge well-defined.
      if (stop.load() || (interruptible && interruptRequested())) return;
      const size_t k = next.fetch_add(1);
      if (k >= specs.size()) return;
      try {
        if (opt_.engine == Engine::SSE) {
          if (!interp) interp = std::make_unique<Interpreter>(fm_, opt_);
          deliver(k, interp->run(specs.spec(k, scratch)));
        } else if (engine == nullptr) {
          deliver(k, compileFailedResult(specs.seed(k), compileError));
        } else {
          // An AccMoS run never throws for per-run faults — a hung or
          // crashed seed comes back as a failed result and its
          // neighbours are unaffected.
          deliver(k, engine->run(specs.stimulus(k), specs.seed(k)));
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(deliveryMutex);
        if (!error) error = std::current_exception();
        stop = true;
        return;
      }
    }
  };

  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) pool.emplace_back(work);
    for (auto& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
  return delivered;
}

namespace {

// The spec-order merge, one result at a time: add() folds the next spec's
// result exactly as a sequential run would — coverage-bitmap union,
// diagnostic deduplication and the cumulative report after it, or a
// contained failure — so the campaign outcome is independent of the
// execution interleaving that produced the results. finish() renders the
// campaign-wide fields. Worker pools and shard processes (src/dist) both
// feed this one fold.
class CampaignFold {
 public:
  CampaignFold(const FlatModel& model, size_t specCount,
               const OptStats& optStats)
      : plan_(CoveragePlan::build(
            model, [](const FlatActor& fa) { return covTraitsFor(fa); })),
        specCount_(specCount) {
    out_.optStats = optStats;
    out_.mergedBitmaps = CoverageRecorder(plan_);
    out_.perSeed.reserve(specCount);
  }

  // Folds the result of the spec after the last one added, run under
  // `seed`.
  void add(uint64_t seed, const SimulationResult& res) {
    const size_t k = out_.perSeed.size();
    CampaignSeedResult sr;
    sr.seed = seed;
    sr.execMode = res.execMode;
    if (res.failed) {
      // Contained failure: record it, contribute nothing to the merge.
      // Survivor contributions stay bit-identical to a fault-free
      // campaign over the survivors because the fold is strictly
      // spec-ordered and a skipped seed leaves no trace in the bitmaps.
      RunFailure f = res.failure;
      f.seed = seed;
      f.index = k;
      out_.failures.push_back(std::move(f));
      sr.failed = true;
    } else {
      out_.mergedBitmaps.merge(res.bitmaps);
      mergeDiagnostics(diagnostics_, res.diagnostics);
      out_.totalExecSeconds += res.execSeconds;
      sr.steps = res.stepsExecuted;
      sr.execSeconds = res.execSeconds;
      sr.coverage = res.coverage;
      sr.diagnosticKinds = res.diagnostics.size();
    }
    sr.cumulative = makeReport(plan_, out_.mergedBitmaps);
    out_.perSeed.push_back(std::move(sr));
  }

  // The campaign over every spec added; fewer than `specCount` marks it
  // interrupted.
  CampaignResult finish() && {
    out_.interrupted = out_.perSeed.size() < specCount_;
    out_.cumulative = makeReport(plan_, out_.mergedBitmaps);
    for (const auto& [key, rec] : diagnostics_) {
      out_.diagnostics.push_back(rec);
    }
    std::sort(out_.diagnostics.begin(), out_.diagnostics.end(),
              [](const DiagRecord& a, const DiagRecord& b) {
                return std::tie(a.firstStep, a.actorPath) <
                       std::tie(b.firstStep, b.actorPath);
              });
    return std::move(out_);
  }

 private:
  CoveragePlan plan_;
  size_t specCount_;
  CampaignResult out_;
  std::map<std::tuple<int, DiagKind, std::string>, DiagRecord> diagnostics_;
};

}  // namespace

CampaignResult mergeSpecResults(const FlatModel& model, SpecBatch specs,
                                const std::vector<SimulationResult>& results,
                                size_t completed, const OptStats& optStats) {
  CampaignFold fold(model, specs.size(), optStats);
  completed = std::min(completed, specs.size());
  for (size_t k = 0; k < completed; ++k) fold.add(specs.seed(k), results[k]);
  return std::move(fold).finish();
}

CampaignResult runCampaignSpecsOn(
    const FlatModel& model, SpecEvaluator& evaluator, const SimOptions& opt,
    SpecBatch specs, const OptStats& optStats,
    std::optional<std::chrono::steady_clock::time_point> wallStart) {
  checkInstrumentedEngine(opt);
  if (specs.empty()) {
    throw ModelError("test campaign needs at least one test case");
  }

  const auto wall0 = wallStart.value_or(std::chrono::steady_clock::now());

  // Each result is folded as soon as the completed prefix reaches it and
  // freed when the sink returns. A cooperative interrupt stops the batch
  // after a prefix of the specs, and the fold then covers exactly that
  // prefix (each of its rows matches the uninterrupted campaign's).
  CampaignFold fold(model, specs.size(), optStats);
  EngineBuildCosts built;
  evaluator.evaluateInOrder(
      specs, opt.campaign.workers, /*interruptible=*/true, &built,
      [&](size_t k, SimulationResult&& res) { fold.add(specs.seed(k), res); });

  CampaignResult out = std::move(fold).finish();
  out.workersUsed = resolveWorkers(opt.campaign.workers, specs.size());
  out.generateSeconds = built.generateSeconds;
  out.compileSeconds = built.compileSeconds;
  out.loadSeconds = built.loadSeconds;
  out.compileCacheHit = built.allCacheHits();
  auto wall1 = std::chrono::steady_clock::now();
  out.wallSeconds = std::chrono::duration<double>(wall1 - wall0).count();
  return out;
}

CampaignResult runCampaignSpecs(const FlatModel& fm, const SimOptions& opt,
                                SpecBatch specs) {
  checkInstrumentedEngine(opt);
  if (specs.empty()) {
    throw ModelError("test campaign needs at least one test case");
  }

  const auto wall0 = std::chrono::steady_clock::now();

  // Optimize once for the whole campaign; every spec runs the same model,
  // so the pipeline cost amortizes exactly like the one-off compiles.
  OptStats optStats;
  const FlatModel model = optimizeModel(fm, opt, &optStats);
  SpecEvaluator evaluator(model, opt);
  return runCampaignSpecsOn(model, evaluator, opt, specs, optStats, wall0);
}

CampaignResult runCampaign(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& baseTests,
                           const std::vector<uint64_t>& seeds) {
  if (seeds.empty()) throw ModelError("test campaign needs at least one seed");
  return runCampaignSpecs(fm, opt, SpecBatch(baseTests, seeds));
}

}  // namespace accmos
