#include "sim/campaign.h"

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
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
  // library (what dlopen maps); an estimate is fine, the pool's eviction
  // only needs a consistent relative measure.
  size_t bytes = e->generatedSource().size();
  struct stat st {};
  if (::stat(e->exePath().c_str(), &st) == 0 && st.st_size > 0) {
    bytes += static_cast<size_t>(st.st_size);
  }
  return bytes;
}

std::vector<SimulationResult> SpecEvaluator::evaluate(
    const std::vector<TestCaseSpec>& specs) {
  return evaluate(specs, opt_.campaign.workers, nullptr, nullptr);
}

// Runs every spec, storing the result at the spec's index. With more than
// one worker, specs are pulled one at a time from a shared counter by a
// pool of threads: each SSE worker builds its own interpreter for the
// call; the AccMoS engine's run() is thread-safe, so workers call the
// one engine directly — concurrent calls into one loaded library, or
// concurrent child processes each writing to their own pipe when a run
// is contained out of process. Result k lands
// at out[k], so the spec-order merge downstream is deterministic for any
// worker count. The first exception thrown by any worker is rethrown on
// the caller.
std::vector<SimulationResult> SpecEvaluator::evaluate(
    const std::vector<TestCaseSpec>& specs, size_t workers,
    std::vector<uint8_t>* done, EngineBuildCosts* built) {
  if (specs.empty()) {
    throw ModelError("spec batch evaluation needs at least one test case");
  }
  for (const auto& spec : specs) spec.validate();
  if (done != nullptr) done->assign(specs.size(), 0);

  // AccMoS: build (or reuse) the one engine before the fan-out. A
  // simulator that cannot be compiled does not abort the batch: every
  // spec is reported as a contained CompileError result.
  AccMoSEngine* engine = nullptr;
  std::string compileError;
  if (opt_.engine == Engine::AccMoS) {
    try {
      engine = engineFor(specs[0], built);
    } catch (const CompileError& e) {
      compileError = e.what();
    }
  }

  workers = resolveWorkers(workers, specs.size());

  std::vector<SimulationResult> out(specs.size());
  auto runRange = [&](std::atomic<size_t>& next, std::exception_ptr& error,
                      std::mutex& errMutex) {
    std::unique_ptr<Interpreter> interp;  // SSE: this worker's, this call
    for (;;) {
      // Interruptible batches stop CLAIMING here but always finish a
      // claimed spec, so claims — handed out by the monotonic counter —
      // cover a prefix of the spec order and every claim completes: the
      // finished set is a contiguous prefix, which makes the partial
      // merge downstream well-defined.
      if (done != nullptr && interruptRequested()) break;
      const size_t k = next.fetch_add(1);
      if (k >= specs.size()) break;
      try {
        if (opt_.engine == Engine::SSE) {
          if (!interp) interp = std::make_unique<Interpreter>(fm_, opt_);
          out[k] = interp->run(specs[k]);
        } else if (engine == nullptr) {
          out[k] = compileFailedResult(specs[k].seed, compileError);
        } else {
          // An AccMoS run never throws for per-run faults — a hung or
          // crashed seed comes back as a failed result and its
          // neighbours are unaffected.
          out[k] = engine->run(specs[k]);
        }
        if (done != nullptr) (*done)[k] = 1;
      } catch (...) {
        std::lock_guard<std::mutex> lock(errMutex);
        if (!error) error = std::current_exception();
        return;
      }
    }
  };

  std::atomic<size_t> next{0};
  std::exception_ptr error;
  std::mutex errMutex;
  if (workers <= 1) {
    runRange(next, error, errMutex);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] { runRange(next, error, errMutex); });
    }
    for (auto& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
  return out;
}

// Merge strictly in spec order: coverage-bitmap unions, diagnostic
// deduplication and the per-spec cumulative reports are computed exactly
// as a sequential run would, so the campaign outcome is independent of the
// execution interleaving that produced `results` — worker pools or shard
// processes (src/dist) both feed the same merge.
CampaignResult mergeSpecResults(const FlatModel& model,
                                const std::vector<TestCaseSpec>& specs,
                                const std::vector<SimulationResult>& results,
                                size_t completed, const OptStats& optStats) {
  CampaignResult out;
  out.optStats = optStats;

  CoveragePlan plan = CoveragePlan::build(
      model, [](const FlatActor& fa) { return covTraitsFor(fa); });
  out.mergedBitmaps = CoverageRecorder(plan);
  completed = std::min(completed, specs.size());
  out.interrupted = completed < specs.size();

  std::map<std::tuple<int, DiagKind, std::string>, DiagRecord> merged;
  out.perSeed.reserve(completed);
  for (size_t k = 0; k < completed; ++k) {
    const SimulationResult& res = results[k];
    if (res.failed) {
      // Contained failure: record it, contribute nothing to the merge.
      // Survivor contributions stay bit-identical to a fault-free
      // campaign over the survivors because the merge below is strictly
      // spec-ordered and a skipped seed leaves no trace in the bitmaps.
      RunFailure f = res.failure;
      f.seed = specs[k].seed;
      f.index = k;
      out.failures.push_back(std::move(f));
      CampaignSeedResult sr;
      sr.seed = specs[k].seed;
      sr.failed = true;
      sr.execMode = res.execMode;
      sr.cumulative = makeReport(plan, out.mergedBitmaps);
      out.perSeed.push_back(std::move(sr));
      continue;
    }
    out.mergedBitmaps.merge(res.bitmaps);
    mergeDiagnostics(merged, res.diagnostics);
    out.totalExecSeconds += res.execSeconds;

    CampaignSeedResult sr;
    sr.seed = specs[k].seed;
    sr.steps = res.stepsExecuted;
    sr.execSeconds = res.execSeconds;
    sr.coverage = res.coverage;
    sr.cumulative = makeReport(plan, out.mergedBitmaps);
    sr.diagnosticKinds = res.diagnostics.size();
    sr.execMode = res.execMode;
    out.perSeed.push_back(std::move(sr));
  }

  out.cumulative = makeReport(plan, out.mergedBitmaps);
  for (const auto& [key, rec] : merged) out.diagnostics.push_back(rec);
  std::sort(out.diagnostics.begin(), out.diagnostics.end(),
            [](const DiagRecord& a, const DiagRecord& b) {
              return std::tie(a.firstStep, a.actorPath) <
                     std::tie(b.firstStep, b.actorPath);
            });
  return out;
}

CampaignResult runCampaignSpecsOn(
    const FlatModel& model, SpecEvaluator& evaluator, const SimOptions& opt,
    const std::vector<TestCaseSpec>& specs, const OptStats& optStats,
    std::optional<std::chrono::steady_clock::time_point> wallStart) {
  checkInstrumentedEngine(opt);
  if (specs.empty()) {
    throw ModelError("test campaign needs at least one test case");
  }

  const auto wall0 = wallStart.value_or(std::chrono::steady_clock::now());

  std::vector<uint8_t> done;
  EngineBuildCosts built;
  std::vector<SimulationResult> results =
      evaluator.evaluate(specs, opt.campaign.workers, &done, &built);

  // A cooperative interrupt stops the batch after a prefix of the specs;
  // the merge then covers exactly that prefix (partial results are
  // flushed, and each prefix row matches the uninterrupted campaign's).
  size_t completed = 0;
  while (completed < specs.size() && done[completed] != 0) ++completed;

  CampaignResult out = mergeSpecResults(model, specs, results, completed,
                                        optStats);
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
                                const std::vector<TestCaseSpec>& specs) {
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
  std::vector<TestCaseSpec> specs(seeds.size(), baseTests);
  for (size_t k = 0; k < seeds.size(); ++k) specs[k].seed = seeds[k];
  return runCampaignSpecs(fm, opt, specs);
}

}  // namespace accmos
