// Test campaigns: run a model under many stimulus seeds and accumulate the
// union of coverage — the workflow the paper motivates coverage collection
// with ("validating that test cases are comprehensive enough to cover
// different parts of models", §3.2.A).
//
// With Engine::AccMoS the model is generated and compiled once and the
// simulator re-run per test case — in-process accmos_run() calls into one
// dlopen'd library (a child process only when containment needs one) —
// which is exactly how a generated simulator amortizes over a campaign.
//
// Campaigns scale across cores: `SimOptions::campaign.workers` fans the
// seeds out over a worker pool (N concurrent executions of the one
// compiled binary, or one interpreter instance per worker for SSE). Each
// worker claims one seed at a time. Each result is folded into the merge
// in seed order as soon as every earlier seed's result is in, and dropped
// once folded, so the outcome — per-seed reports, merged bitmaps,
// deduplicated diagnostics — is bit-identical to the sequential run for
// any worker count, and a campaign holds one row per seed rather than
// every seed's result.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/flat_model.h"
#include "opt/stats.h"
#include "sim/failure.h"
#include "sim/options.h"
#include "sim/result.h"
#include "sim/testcase.h"

namespace accmos {

struct CampaignSeedResult {
  uint64_t seed = 0;
  uint64_t steps = 0;
  double execSeconds = 0.0;
  CoverageReport coverage;          // this seed alone
  CoverageReport cumulative;        // union up to and including this seed
  size_t diagnosticKinds = 0;       // distinct (actor, kind) events
  // Execution backend that answered this seed: "dlopen" / "process" for
  // AccMoS runs; empty for SSE campaigns.
  std::string execMode;
  // This seed's run was contained as a failure (timeout, crash, compile
  // failure): it contributed nothing to the merge, and the matching
  // RunFailure sits in CampaignResult::failures. The row is kept so
  // perSeed[k] always describes specs[k].
  bool failed = false;
};

struct CampaignResult {
  std::vector<CampaignSeedResult> perSeed;
  CoverageReport cumulative;
  CoverageRecorder mergedBitmaps;
  // All diagnostics observed across seeds (deduplicated per actor/kind/
  // message; firstStep is the earliest across seeds, count the sum).
  std::vector<DiagRecord> diagnostics;
  double totalExecSeconds = 0.0;      // sum of per-seed execution time
  double wallSeconds = 0.0;           // wall clock for the whole campaign
  double generateSeconds = 0.0;       // AccMoS one-off costs
  double compileSeconds = 0.0;
  double loadSeconds = 0.0;           // AccMoS: in-process library loads
  bool compileCacheHit = false;       // AccMoS: every binary came cached
  size_t workersUsed = 1;
  // Contained per-seed failures, in seed (spec) order. A campaign never
  // aborts because one seed hung or crashed: the failed seed is recorded
  // here, excluded from the coverage/diagnostic merge, and every surviving
  // seed's contribution is bit-identical to a fault-free campaign over the
  // survivors — for any worker count.
  std::vector<RunFailure> failures;
  // The optimization pipeline runs once per campaign (not per seed).
  OptStats optStats;

  // A cooperative interrupt (SIGINT/SIGTERM → sim/interrupt.h) stopped the
  // campaign early. perSeed/failures/merges then cover exactly the specs
  // that finished — always a contiguous prefix of the batch, because
  // workers claim specs from a monotonic counter and complete every spec
  // they claim — and every reported row is bit-identical to the same row
  // of an uninterrupted campaign. The CLI flushes these partial results
  // and exits with its documented interrupt code (docs/ROBUSTNESS.md).
  bool interrupted = false;
};

// Runs `opt.maxSteps` steps per seed for each seed in `seeds`, using
// `baseTests` for the port ranges/sequences (the seed field is overridden).
// The batch is SpecBatch(baseTests, seeds): no spec is copied per seed.
// Only the instrumented engines (SSE, AccMoS) are supported; throws
// ModelError otherwise or when coverage is disabled.
CampaignResult runCampaign(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& baseTests,
                           const std::vector<uint64_t>& seeds);

// Runs a *heterogeneous* batch as a campaign: each spec carries its own
// ranges/sequences and seed (the workload the coverage-guided generator
// produces, where candidates are mutants of many base specs, not seeds of
// one). The model is optimized once, every spec runs for opt.maxSteps over
// the worker pool, and results are merged strictly in spec order — the
// outcome is bit-identical for any worker count. `perSeed` holds one row
// per spec, in spec order; its `seed` field is the spec's seed.
CampaignResult runCampaignSpecs(const FlatModel& fm, const SimOptions& opt,
                                SpecBatch specs);

class SpecEvaluator;

// The spec-order merge over results held in a vector: given per-spec
// results for `specs` (result k describes spec k) and the count of
// completed leading specs (`completed` < specs.size() marks the campaign
// interrupted), folds the first `completed` results into a CampaignResult
// exactly as a sequential single-process run would — bitmap unions,
// diagnostic dedup, per-spec cumulative reports, contained failures. It
// is a loop over the very fold runCampaignSpecsOn feeds one result at a
// time, so there is one merge. The shard coordinator (src/dist)
// concatenates per-shard result vectors and calls this, which is what
// makes a sharded campaign bit-identical to a single-process one: both run
// the same fold over the same per-spec results in the same order.
// Timing / one-off-cost fields (wallSeconds, compileSeconds, ...) are the
// caller's to fill; optStats is copied through.
CampaignResult mergeSpecResults(const FlatModel& model, SpecBatch specs,
                                const std::vector<SimulationResult>& results,
                                size_t completed, const OptStats& optStats);

// The campaign loop over a CALLER-OWNED evaluator — the resident-service
// entry point. `model` must be the model the evaluator was constructed
// on, used as given (callers pass the optimized model; the tests' raw
// model is the unoptimized reference), and `optStats` whatever the
// caller's one-time optimization pass reported. The batch runs over
// opt.campaign.workers workers, whatever count the evaluator was built
// with. One-off cost fields of the result (generate/compile/load seconds,
// compileCacheHit) cover the engine THIS call built (EngineBuildCosts):
// with a fresh evaluator they equal the classic totals (runCampaignSpecs
// delegates here), while a pooled evaluator whose engine is already warm
// reports them as zero. The run is cooperatively interruptible
// (see CampaignResult::interrupted). Results reach the merge through
// SpecEvaluator::evaluateInOrder and are dropped once folded, so the call
// holds one CampaignSeedResult row per spec plus the few results that
// finished ahead of an earlier spec. `wallStart` backdates wallSeconds to
// include caller prelude work (flatten/optimize); omitted, the clock
// starts here.
CampaignResult runCampaignSpecsOn(
    const FlatModel& model, SpecEvaluator& evaluator, const SimOptions& opt,
    SpecBatch specs, const OptStats& optStats,
    std::optional<std::chrono::steady_clock::time_point> wallStart =
        std::nullopt);

// The one-off costs of the engine an evaluate() call built itself. An
// engine that was already resident, or that another call built, costs the
// call nothing, so a warm evaluator reports zeros however many calls share
// it.
struct EngineBuildCosts {
  size_t enginesBuilt = 0;  // 0 or 1: the evaluator holds one engine
  size_t cacheHits = 0;  // engines whose binary the compile cache supplied
  double generateSeconds = 0.0;
  double compileSeconds = 0.0;
  double loadSeconds = 0.0;

  // At least one engine was built, and every one came from the cache.
  bool allCacheHits() const {
    return enginesBuilt > 0 && cacheHits == enginesBuilt;
  }
};

// The batch evaluator under runCampaignSpecs, reusable across batches:
// the coverage-guided generator holds one evaluator for the whole search
// so compiled simulators persist between iterations, and the daemon's pool
// keeps one per resident model.
//
// The model is used exactly as given — no optimization pass is applied
// here; callers run the pipeline once up front (as runCampaignSpecs does).
// For Engine::SSE each worker of a call builds its own interpreter. For
// Engine::AccMoS one simulator is generated and compiled on first use,
// kept for the evaluator's lifetime, and executed concurrently on every
// spec — each run passes its spec's ranges, sequences and seed through the
// run ABI, all workers call into the one loaded shared library (its
// accmos_run ABI is reentrant), and a run the engine contains in a child
// process is its own process; the content-addressed compile cache absorbs
// the compile across evaluators and runs.
//
// Re-entrant: any number of threads may call evaluate() on one evaluator
// at once, each with its own worker count. The engine is looked up under
// a lock, and built under one build lock and checked again there, so
// calls that race on the first use compile once, and a lookup never waits
// behind a compile.
class SpecEvaluator {
 public:
  // Throws ModelError unless `opt` names an instrumented engine (SSE or
  // AccMoS) with coverage enabled. opt.campaign.workers is the worker
  // count of evaluate(specs).
  SpecEvaluator(const FlatModel& fm, const SimOptions& opt);
  ~SpecEvaluator();

  SpecEvaluator(const SpecEvaluator&) = delete;
  SpecEvaluator& operator=(const SpecEvaluator&) = delete;

  // evaluate() at the constructor's worker count, with no cost record.
  std::vector<SimulationResult> evaluate(SpecBatch specs);

  // Every spec's result at once: out[k] is spec k's result regardless of
  // worker count or interleaving. evaluateInOrder() underneath, ignoring
  // the interrupt flag entirely — what the deterministic generator loop
  // needs.
  std::vector<SimulationResult> evaluate(SpecBatch specs, size_t workers,
                                         EngineBuildCosts* built);

  // Takes spec k's result. Called in spec order, one call at a time.
  using ResultSink = std::function<void(size_t k, SimulationResult&& result)>;

  // The evaluation primitive. Validates each stimulus once (a seeded
  // batch's base spec once) and runs every spec for opt.maxSteps, fanning
  // the batch over `workers` workers (0 = one per hardware thread). On a
  // seeded batch an SSE worker keeps one copy of the base spec and
  // overwrites its seed per spec, and AccMoS runs the base spec under each
  // seed as it is. Each result goes to `sink` as soon as every earlier
  // spec's result has been handed over. Workers claim specs one at
  // a time from a shared counter; a result that finishes ahead of an
  // earlier spec waits until the prefix reaches it. So in steady state
  // about one result per worker waits, and a hung spec holds back at most
  // what finished before its deadline. Returns how many results were
  // handed over: the completed prefix of `specs`.
  //
  // When `interruptible`, workers stop claiming new specs once
  // interruptRequested() (sim/interrupt.h) reads true and finish every
  // spec already claimed; claims come from a monotonic counter, so the
  // count returned is still a contiguous prefix, and it is below
  // specs.size() exactly when the interrupt stopped the batch. When
  // `built` is non-null, the costs of the engine this call built are added
  // to it. When the engine cannot be built, every spec's result is a
  // contained CompileError, and the next call tries the build again. The
  // first exception a run or `sink` throws stops the claims and is
  // rethrown once the workers have stopped.
  size_t evaluateInOrder(SpecBatch specs, size_t workers, bool interruptible,
                         EngineBuildCosts* built, const ResultSink& sink);

  // The model's compiled engine, building it on first use with `spec` as
  // its default test case; it runs any spec. Throws CompileError when the
  // build fails. Batch callers go through evaluate(). AccMoS only.
  class AccMoSEngine* engineFor(const TestCaseSpec& spec);

  // Approximate bytes held resident by the engine (generated source +
  // loaded artifact, sized once when the engine was built) — what the
  // model-library pool charges against its byte budget.
  size_t residentBytes() const;

 private:
  // engineFor() that adds the costs of an engine it builds to `built`
  // when non-null.
  class AccMoSEngine* engineFor(const TestCaseSpec& spec,
                                EngineBuildCosts* built);
  // The built engine, or null.
  class AccMoSEngine* builtEngine() const;

  const FlatModel& fm_;
  const SimOptions opt_;
  // Set once and never reset, so the engine stays valid for the
  // evaluator's lifetime once looked up.
  std::unique_ptr<class AccMoSEngine> engine_;
  // Guards engine_: every lookup, the store, and residentBytes() on the
  // daemon pool's thread, which must never wait behind a compile.
  mutable std::mutex engineMutex_;
  // Held while the engine is built: one compile.
  std::mutex buildMutex_;
};

}  // namespace accmos
