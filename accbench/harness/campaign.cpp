// csev_campaign: warm-cache CSEV campaigns of many short seeds with one
// worker per core and the default lane width — the regime where
// evaluation, result decode, coverage reports and the seed-order merge set
// the pace and the compiler is absent.
//
// Untraced: setup is the warm parse -> flatten -> optimize -> emit ->
// cache hit -> dlopen; the timed phase repeats one runCampaign over the
// same seeds. Traced: the campaign is taken apart into its layers (scalar
// and batch execution, evaluate at nproc and one worker, merge, coverage
// reports), the sharded coordinator runs the same specs at equal cores,
// and a small cold coverage-guided generation stands in for the gen layer.
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "codegen/model_lib.h"
#include "dist/shard.h"
#include "gen/generator.h"
#include "interp/interpreter.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "sim/tiered_engine.h"
#include "workloads.h"

namespace accbench {
namespace {

using namespace accmos;

constexpr uint64_t kSteps = 200;
constexpr size_t kSeeds = 25000;
constexpr int kSetupReps = 40;
constexpr size_t kSseChecks = 32;
constexpr size_t kOneThreadSeeds = 4000;
constexpr size_t kShardSeeds = 10000;
constexpr size_t kReportCalls = 5000;

// Generation probe: bootstrap round plus one batch of mutants, 2000 steps
// each, as `accmos gen` runs it.
constexpr size_t kGenBudget = 12;
constexpr uint64_t kGenSteps = 2000;

// The spec a campaign compiles for a stimulus shape: the generated source
// embeds the seed, and campaigns normalize it to 1 (SpecEvaluator).
TestCaseSpec shapeOf(TestCaseSpec spec) {
  spec.seed = 1;
  return spec;
}

std::vector<TestCaseSpec> specsFor(const TestCaseSpec& base,
                                   const std::vector<uint64_t>& seeds,
                                   size_t n) {
  std::vector<TestCaseSpec> specs(n, base);
  for (size_t k = 0; k < n; ++k) specs[k].seed = seeds[k];
  return specs;
}

// Sampled seeds of a finished campaign against the SSE interpreter, and
// the compiled engine against SSE bit for bit on the same seeds.
void sampleAgainstSse(Report& rep, const Prepared& p, AccMoSEngine& engine,
                      const std::vector<uint64_t>& seeds,
                      const CampaignResult& cr, Rng& rng) {
  using serve::toJson;
  SimOptions sse;
  sse.engine = Engine::SSE;
  sse.maxSteps = kSteps;
  for (size_t i = 0; i < kSseChecks; ++i) {
    const size_t k = rng.next() % seeds.size();
    TestCaseSpec spec = p.stimulus;
    spec.seed = seeds[k];
    SimulationResult want = runInterpreter(p.flat, sse, spec);
    const CampaignSeedResult& row = cr.perSeed[k];
    const bool rowOk = !row.failed && row.seed == seeds[k] &&
                       row.steps == want.stepsExecuted &&
                       toJson(row.coverage).write() ==
                           toJson(want.coverage).write() &&
                       row.diagnosticKinds == want.diagnostics.size();
    rep.op(rowOk, "campaign row of seed " + std::to_string(seeds[k]) +
                      " differs from SSE");
    rep.op(observations(engine.run(kSteps, -1.0, seeds[k])) ==
               observations(want),
           "AccMoS run of seed " + std::to_string(seeds[k]) +
               " differs from SSE");
  }
}

std::string genObservations(const gen::GenResult& g) {
  using serve::Json;
  using serve::toJson;
  Json j = Json::object();
  j.set("corpus", Json::u64(gen::corpusFingerprint(g.corpus)));
  Json traj = Json::array();
  for (const auto& it : g.trajectory) {
    Json row = Json::object();
    row.set("evaluated", Json::u64(it.evaluated));
    row.set("accepted", Json::u64(it.accepted));
    row.set("failed", Json::u64(it.failed));
    row.set("corpus", Json::u64(it.corpusSize));
    row.set("diagKinds", Json::u64(it.diagKinds));
    row.set("coverage", toJson(it.cumulative));
    traj.push(std::move(row));
  }
  j.set("trajectory", std::move(traj));
  j.set("coverage", toJson(g.finalCoverage));
  j.set("bitmaps", toJson(g.mergedBitmaps));
  return j.write();
}

void untraced(const Options& o, Report& rep, const std::string& xml,
              const SimOptions& opt, const std::vector<uint64_t>& seeds,
              Rng& rng) {
  Trace off(false);
  std::unique_ptr<Prepared> p;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t = Clock::now();
    p = prepare(xml, opt, off);
    SpecEvaluator evaluator(p->optimized, opt);
    evaluator.engineFor(p->stimulus);
    rep.sample("setup_s", "s", since(t));
  }

  CampaignResult last;
  std::string first;
  const auto t0 = Clock::now();
  for (int k = 0; k < 3 || since(t0) < o.seconds; ++k) {
    const auto t = Clock::now();
    last = runCampaign(p->flat, opt, p->stimulus, seeds);
    const double w = since(t);
    rep.op(last.failures.empty() && !last.interrupted &&
               last.perSeed.size() == seeds.size(),
           "campaign " + std::to_string(k) + " lost seeds");
    rep.sample("ops_per_s", "1/s", static_cast<double>(seeds.size()) / w);
    rep.sample("op_ms", "ms", w * 1e3);
    if (k == 0) first = observations(last);
  }
  rep.value("peak_rss_mb", "MB", peakRssMb(::getpid()));

  rep.op(observations(last) == first,
         "repeated campaigns over the same seeds disagree");
  AccMoSEngine engine(p->optimized, opt, shapeOf(p->stimulus));
  rep.op(engine.compileCacheHit(), "the checking engine missed the cache");
  sampleAgainstSse(rep, *p, engine, seeds, last, rng);
}

void genProbe(Report& rep, Trace& tr, const Prepared& p, Rng& rng) {
  SimOptions opt = accmosOptions(kGenSteps);
  opt.campaign.workers = loadThreads();
  gen::GenOptions g;
  g.genSeed = rng.next();
  g.budget = kGenBudget;
  g.base = p.stimulus;
  const uint64_t inv0 = CompilerDriver::compilerInvocations();
  auto t = Clock::now();
  gen::GenResult cold =
      tr.span("gen.run_cold", [&] { return gen::runGeneration(p.flat, opt, g); });
  const double coldWall = since(t);
  const uint64_t invocations = CompilerDriver::compilerInvocations() - inv0;
  t = Clock::now();
  gen::GenResult warm =
      tr.span("gen.run_warm", [&] { return gen::runGeneration(p.flat, opt, g); });
  const double warmWall = since(t);
  SimOptions sse = opt;
  sse.engine = Engine::SSE;
  gen::GenResult ref =
      tr.span("check.gen_sse", [&] { return gen::runGeneration(p.flat, sse, g); });
  const std::string coldObs = genObservations(cold);
  rep.op(coldObs == genObservations(ref),
         "AccMoS generation differs from the SSE generation");
  rep.op(coldObs == genObservations(warm),
         "warm generation differs from the cold one");
  rep.value("gen.evals_per_s", "1/s",
            static_cast<double>(cold.evaluations) / coldWall);
  rep.value("gen.shapes_compiled", "count",
            static_cast<double>(cold.enginesBuilt));
  rep.value("gen.compiler_invocations", "count",
            static_cast<double>(invocations));
  rep.value("gen.compile_wait_s", "s", cold.compileWaitSeconds);
  rep.value("gen.warm_wall_s", "s", warmWall);
  rep.value("gen.accept_ratio", "ratio",
            static_cast<double>(cold.corpus.size()) /
                static_cast<double>(cold.evaluations));
}

void traced(const Options& o, Report& rep, Trace& tr, const std::string& xml,
            const SimOptions& opt, const std::vector<uint64_t>& seeds,
            Rng& rng) {
  const size_t W = opt.campaign.workers;
  const uint64_t inv0 = CompilerDriver::compilerInvocations();
  const long loads0 = ModelLib::loadCount();
  const auto wall0 = Clock::now();

  // The warm setup, one layer at a time.
  auto p = prepare(xml, opt, tr);
  GeneratedModel gm = tr.span("codegen.emit", [&] {
    return AccMoSEngine::generate(p->optimized, opt, shapeOf(p->stimulus));
  });
  std::string extra;
  const ArtifactKind kind = AccMoSEngine::artifactPlan(opt, &extra);
  CompilerDriver driver(o.workDir + "/drv");
  CompileOutput out = tr.span("codegen.compile", [&] {
    return driver.compile(gm.source, "CSEV", opt.optFlag, kind, extra);
  });
  tr.span("codegen.load", [&] { ModelLib lib(out.exePath); });
  rep.value("parser.read_ms", "ms", tr.seconds("parser.read") * 1e3);
  rep.value("graph.flatten_ms", "ms", tr.seconds("graph.flatten") * 1e3);
  rep.value("opt.optimize_ms", "ms", tr.seconds("opt.optimize") * 1e3);
  rep.value("opt.actors_after", "count",
            static_cast<double>(p->optimized.actors.size()));
  rep.value("codegen.emit_ms", "ms", tr.seconds("codegen.emit") * 1e3);
  rep.value("codegen.source_kb", "KB",
            static_cast<double>(gm.source.size()) / 1024.0);
  rep.value("codegen.cache_hit_ratio", "ratio", out.cacheHit ? 1.0 : 0.0);
  rep.value("codegen.load_ms", "ms", tr.seconds("codegen.load") * 1e3);

  // One thread: scalar run() per seed against the fused batch kernel.
  auto engine = tr.span("codegen.engine", [&] {
    return std::make_unique<AccMoSEngine>(p->optimized, opt,
                                          shapeOf(p->stimulus));
  });
  std::vector<uint64_t> few(seeds.begin(), seeds.begin() + kOneThreadSeeds);
  auto t = Clock::now();
  tr.span("codegen.exec_scalar", [&] {
    for (uint64_t s : few) engine->run(kSteps, -1.0, s);
  });
  const double scalarUs = since(t) * 1e6 / static_cast<double>(few.size());
  t = Clock::now();
  tr.span("codegen.exec_batch", [&] { engine->runBatch(few, kSteps); });
  const double batchUs = since(t) * 1e6 / static_cast<double>(few.size());
  rep.value("codegen.scalar_us_per_seed", "us", scalarUs);
  rep.value("codegen.batch_us_per_seed", "us", batchUs);

  // Evaluate at nproc workers and at one, then the merge on its own.
  std::vector<TestCaseSpec> specs = specsFor(p->stimulus, seeds, seeds.size());
  const double rss0 = rssMb(::getpid());
  std::vector<SimulationResult> results;
  {
    SpecEvaluator ev(p->optimized, opt);
    ev.engineFor(p->stimulus);
    t = Clock::now();
    results = tr.span("sim.evaluate", [&] { return ev.evaluate(specs); });
    rep.value("sim.evaluate_s", "s", since(t));
  }
  rep.value("sim.results_mb", "MB", rssMb(::getpid()) - rss0);
  {
    SimOptions one = opt;
    one.campaign.workers = 1;
    SpecEvaluator ev(p->optimized, one);
    ev.engineFor(p->stimulus);
    t = Clock::now();
    tr.span("sim.evaluate_1w", [&] { ev.evaluate(specs); });
    rep.value("sim.evaluate_1w_s", "s", since(t));
    rep.value("sim.worker_scaling", "x",
              since(t) / tr.seconds("sim.evaluate"));
  }
  t = Clock::now();
  CampaignResult merged = tr.span("sim.merge", [&] {
    return mergeSpecResults(p->optimized, specs, results, specs.size(),
                            p->optStats);
  });
  rep.value("sim.merge_s", "s", since(t));
  const CoveragePlan& plan = *engine->coveragePlan();
  const size_t calls = std::min(kReportCalls, results.size());
  t = Clock::now();
  tr.span("cov.make_report", [&] {
    for (size_t k = 0; k < calls; ++k) makeReport(plan, results[k].bitmaps);
  });
  rep.value("cov.make_report_us", "us",
            since(t) * 1e6 / static_cast<double>(calls));
  results.clear();

  // The whole campaign: reported exec against the benchmark's own clock,
  // and lanes 8 against scalar at equal cores.
  t = Clock::now();
  CampaignResult cr = tr.span(
      "sim.campaign", [&] { return runCampaign(p->flat, opt, p->stimulus, seeds); });
  const double wallBatch = since(t);
  rep.value("sim.reported_exec_ratio", "ratio",
            cr.totalExecSeconds / (wallBatch * static_cast<double>(W)));
  rep.op(observations(cr) == observations(merged),
         "runCampaign differs from evaluate + mergeSpecResults");
  const uint64_t warmInvocations =
      CompilerDriver::compilerInvocations() - inv0;
  SimOptions scalar = opt;
  scalar.batchLanes = 0;
  tr.span("codegen.compile_scalar", [&] {
    SpecEvaluator(p->optimized, scalar).engineFor(p->stimulus);
  });
  t = Clock::now();
  CampaignResult crScalar = tr.span("sim.campaign_scalar", [&] {
    return runCampaign(p->flat, scalar, p->stimulus, seeds);
  });
  rep.value("codegen.batch_speedup", "x", since(t) / wallBatch);
  rep.op(observations(crScalar) == observations(cr),
         "scalar campaign differs from the batched one");

  // Shards = nproc with one inner worker against workers = nproc.
  std::vector<TestCaseSpec> shardSpecs(specs.begin(),
                                       specs.begin() + kShardSeeds);
  SimOptions inner = opt;
  inner.campaign.workers = 1;
  dist::ShardOptions so;
  so.shards = W;
  so.workerPath = o.cli;
  so.cacheDir = o.workDir + "/cache";
  dist::ShardStats stats;
  t = Clock::now();
  CampaignResult sharded = tr.span("dist.sharded_campaign", [&] {
    return dist::runShardedCampaign(xml, inner, shardSpecs, so, &stats);
  });
  const double shardWall = since(t);
  t = Clock::now();
  CampaignResult local = tr.span("sim.campaign_specs", [&] {
    return runCampaignSpecs(p->flat, opt, shardSpecs);
  });
  const double localWall = since(t);
  rep.op(observations(sharded) == observations(local),
         "sharded campaign differs from the in-process one");
  const double n = static_cast<double>(kShardSeeds);
  rep.value("dist.sharded_seeds_per_s", "1/s", n / shardWall);
  rep.value("dist.shard_vs_worker_ratio", "x", localWall / shardWall);
  // The fleet count includes this process's own invocations so far.
  rep.value("dist.fleet_compiler_invocations", "count",
            static_cast<double>(stats.fleetCompilerInvocations -
                                CompilerDriver::compilerInvocations()));

  tr.span("check.sse_sample",
          [&] { sampleAgainstSse(rep, *p, *engine, seeds, cr, rng); });
  rep.value("codegen.compiler_invocations", "count",
            static_cast<double>(warmInvocations));
  rep.value("codegen.lib_loads", "count",
            static_cast<double>(ModelLib::loadCount() - loads0));

  genProbe(rep, tr, *p, rng);
  rep.value("trace.unaccounted_s", "s", since(wall0) - tr.topLevelSeconds());

  // Span cost: one campaign untraced, then the same campaign in a span.
  t = Clock::now();
  runCampaign(p->flat, opt, p->stimulus, seeds);
  const double untracedWall = since(t);
  t = Clock::now();
  tr.span("trace.campaign",
          [&] { runCampaign(p->flat, opt, p->stimulus, seeds); });
  rep.value("trace.overhead_s", "s", since(t) - untracedWall);
}

}  // namespace

void runCsevCampaign(const Options& o, Report& rep, Trace& tr) {
  SimOptions opt = accmosOptions(kSteps);
  opt.campaign.workers = loadThreads();
  const std::string xml = benchModelXml("CSEV");
  Rng rng(o.seed);
  std::vector<uint64_t> seeds(kSeeds);
  for (auto& s : seeds) s = rng.next();
  rep.info("seeds", std::to_string(kSeeds) + " x " + std::to_string(kSteps) +
                        " steps, workers " +
                        std::to_string(opt.campaign.workers));

  // This is the warm regime: fill the private cache first, untimed, with
  // the engine a campaign builds (one per stimulus shape, seed 1).
  {
    Trace off(false);
    auto p = prepare(xml, opt, off);
    SpecEvaluator(p->optimized, opt).engineFor(p->stimulus);
  }
  // Let the clock settle after the compile.
  std::this_thread::sleep_for(std::chrono::seconds(1));
  if (tr.on()) {
    traced(o, rep, tr, xml, opt, seeds, rng);
  } else {
    untraced(o, rep, xml, opt, seeds, rng);
  }
}

}  // namespace accbench
