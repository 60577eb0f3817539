// table1_cold_run: the cold `accmos run` path on Table 1 models, then long
// instrumented AccMoS runs on the warm engines.
//
// Untraced: setup is the real CLI, `accmos run --steps=1`, on an empty
// private compile cache per model and repetition (parse -> flatten ->
// optimize -> emit -> compile -> dlopen); in the timed phase one runner
// per core cycles through the three warm engines. Traced: the pipeline is
// driven one public call at a time, each inside its layer's span, plus the
// interpreting engines on a prefix (the paper's Table 2 ratios).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <future>
#include <thread>

#include "bench_models/sample_overflow.h"
#include "bench_models/suite.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "codegen/model_lib.h"
#include "interp/compiled.h"
#include "interp/interpreter.h"
#include "parser/model_io.h"
#include "workloads.h"

namespace accbench {
namespace {

using namespace accmos;

struct PlanModel {
  const char* name;
  uint64_t steps;  // one timed run: about a quarter second
};

// A fixed subset spanning Table 1's actor-count range: all ten models cold
// take about 40 s, more than a run may spend. SPV has 131 actors (the
// fewest), TWC 214, RAC 667 (the most).
constexpr PlanModel kModels[] = {
    {"SPV", 2000000}, {"TWC", 800000}, {"RAC", 400000}};
constexpr int kColdReps = 3;
constexpr uint64_t kPrefixSteps = 5000;
constexpr uint64_t kInterpPrefixSteps = 20000;
constexpr auto kSettle = std::chrono::seconds(1);

// Known answers (paper Fig. 1 and the §4 case study): the step at which
// the wrap-on-overflow diagnostic first fires.
constexpr uint64_t kFig1WrapStep = 2148617;
constexpr uint64_t kCsevQuantityWrapStep = 85799;

std::string cacheFor(const Options& o, int rep) {
  // Repetition 0 fills the harness's own cache, which the timed phase then
  // hits; the others get caches of their own so that each is cold.
  return rep == 0 ? o.workDir + "/cache"
                  : o.workDir + "/cold" + std::to_string(rep);
}

// Setup: kColdReps cold CLI runs of every model, at most one per core at a
// time, longest first. setup_s is the median over repetitions of the
// per-repetition sum over models.
void coldCliRuns(const Options& o, Report& rep,
                 const std::vector<std::string>& files) {
  struct Job {
    int rep;
    size_t model;
  };
  std::vector<Job> jobs;
  for (size_t m = std::size(kModels); m-- > 0;) {
    for (int r = 0; r < kColdReps; ++r) jobs.push_back({r, m});
  }
  for (int r = 1; r < kColdReps; ++r) makeDirs(cacheFor(o, r));
  std::vector<double> wall(jobs.size(), 0.0);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t j; (j = next.fetch_add(1)) < jobs.size();) {
      const Job& job = jobs[j];
      const std::string name = kModels[job.model].name;
      const auto t0 = Clock::now();
      pid_t pid = spawn({o.cli, "run", files[job.model], "--engine=accmos",
                         "--steps=1"},
                        {"ACCMOS_CACHE_DIR=" + cacheFor(o, job.rep)},
                        o.workDir + "/cold-" + name + ".log");
      const int rc = waitChild(pid, 150.0);
      wall[j] = since(t0);
      rep.op(rc == 0, "cold `accmos run` of " + name + " exited " +
                          std::to_string(rc));
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < std::min(loadThreads(), jobs.size()); ++t) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < kColdReps; ++r) {
    double sum = 0.0;
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].rep == r) sum += wall[j];
    }
    rep.sample("setup_s", "s", sum);
  }
}

// The two known-answer models, compiled and run concurrently.
void knownAnswers(Report& rep) {
  auto firstWrap = [](std::unique_ptr<Model> model, TestCaseSpec stim,
                      uint64_t steps, const char* actor) -> uint64_t {
    SimOptions opt = accmosOptions(steps);
    Trace off(false);
    auto p = prepare(writeModelToString(*model, &stim), opt, off);
    AccMoSEngine engine(p->optimized, opt, p->stimulus);
    SimulationResult r = engine.run();
    const DiagRecord* d = r.findDiag(actor, DiagKind::WrapOnOverflow);
    return d == nullptr ? 0 : d->firstStep;
  };
  auto fig1 = std::async(std::launch::async, [&] {
    return firstWrap(sampleOverflowModel(), sampleOverflowStimulus(),
                     kFig1WrapStep + 1000, "Sum");
  });
  const uint64_t csev = firstWrap(buildCsevWithInjectedErrors(),
                                  benchStimulus("CSEV"), 150000, "QuantityAdd");
  const uint64_t sample = fig1.get();
  rep.op(sample == kFig1WrapStep,
         "Fig. 1 wrap at step " + std::to_string(sample) + ", expected " +
             std::to_string(kFig1WrapStep));
  rep.op(csev == kCsevQuantityWrapStep,
         "CSEV quantity wrap at step " + std::to_string(csev) + ", expected " +
             std::to_string(kCsevQuantityWrapStep));
}

// AccMoS against the SSE interpreter on the unoptimized model: outputs,
// bitmaps, diagnostics and monitors must agree bit for bit.
void prefixAgainstSse(Report& rep, const char* name, const Prepared& p,
                      AccMoSEngine& engine, uint64_t seed) {
  TestCaseSpec spec = p.stimulus;
  spec.seed = seed;
  SimOptions sse;
  sse.engine = Engine::SSE;
  sse.maxSteps = kPrefixSteps;
  const std::string want = observations(runInterpreter(p.flat, sse, spec));
  const std::string got =
      observations(engine.run(kPrefixSteps, -1.0, seed));
  rep.op(want == got, std::string(name) + ": AccMoS differs from SSE on a " +
                          std::to_string(kPrefixSteps) + "-step prefix");
}

void untraced(const Options& o, Report& rep,
              const std::vector<std::string>& xml) {
  std::vector<std::string> files;
  for (size_t m = 0; m < xml.size(); ++m) {
    files.push_back(o.workDir + "/" + kModels[m].name + ".xml");
    std::ofstream(files.back()) << xml[m];
  }
  coldCliRuns(o, rep, files);

  Trace off(false);
  std::vector<std::unique_ptr<Prepared>> prep;
  std::vector<std::unique_ptr<AccMoSEngine>> engines;
  for (size_t m = 0; m < xml.size(); ++m) {
    // The generated source embeds the default step count and stimulus seed
    // (for its standalone main()), so the engine is built exactly as the
    // CLI's `--steps=1` run built it and given the real count per run.
    SimOptions opt = accmosOptions(1);
    prep.push_back(prepare(xml[m], opt, off));
    engines.push_back(std::make_unique<AccMoSEngine>(
        prep.back()->optimized, opt, prep.back()->stimulus));
    rep.op(engines.back()->compileCacheHit(),
           std::string(kModels[m].name) +
               ": the engine missed the cache the cold run filled");
  }

  // One runner per core, each cycling through the models from its own
  // starting point with its own seeds (engines are thread-safe). Spreading
  // the runs over every core keeps one busy core of a shared host from
  // setting the whole run's figure.
  std::vector<uint64_t> firstSeed(xml.size(), 0);
  auto runner = [&](size_t t, Clock::time_point t0) {
    Rng rng(o.seed * 1000003 + t);
    for (size_t i = 0; i < xml.size() || since(t0) < o.seconds; ++i) {
      const size_t m = (t + i) % xml.size();
      const uint64_t seed = rng.next();
      if (t == 0 && i < xml.size()) firstSeed[m] = seed;
      const auto ts = Clock::now();
      SimulationResult r = engines[m]->run(kModels[m].steps, -1.0, seed);
      const double w = since(ts);
      rep.op(!r.failed && r.stepsExecuted > 0,
             std::string(kModels[m].name) + ": timed run failed");
      // Best of the run's samples: on a shared host the median of these
      // CPU-bound runs moved by about 22% (IQR over median) from run to
      // run, the best by about 7%.
      rep.groupSample("ops_per_s", "1/s", kModels[m].name,
                      static_cast<double>(r.stepsExecuted) / w,
                      "geomean_max");
      rep.groupSample("op_ms", "ms", kModels[m].name, w * 1e3, "geomean_min");
    }
  };
  std::this_thread::sleep_for(kSettle);
  const auto t0 = Clock::now();
  std::vector<std::thread> runners;
  for (size_t t = 0; t < loadThreads(); ++t) runners.emplace_back(runner, t, t0);
  for (auto& th : runners) th.join();
  rep.value("peak_rss_mb", "MB", peakRssMb(::getpid()));

  for (size_t m = 0; m < xml.size(); ++m) {
    prefixAgainstSse(rep, kModels[m].name, *prep[m], *engines[m],
                     firstSeed[m]);
  }
  knownAnswers(rep);
}

double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

void traced(const Options& o, Report& rep, Trace& tr,
            const std::vector<std::string>& xml) {
  const uint64_t inv0 = CompilerDriver::compilerInvocations();
  const long loads0 = ModelLib::loadCount();
  const auto wall0 = Clock::now();
  std::vector<double> execNs, sseNs, acNs, racNs, speedup;
  double sourceKb = 0.0, actorsAfter = 0.0, hits = 0.0, overhead = 0.0;
  Rng rng(o.seed);
  for (size_t m = 0; m < xml.size(); ++m) {
    const PlanModel& pm = kModels[m];
    SimOptions opt = accmosOptions(pm.steps);
    auto p = prepare(xml[m], opt, tr);
    actorsAfter += static_cast<double>(p->optimized.actors.size());
    GeneratedModel gen = tr.span("codegen.emit", [&] {
      return AccMoSEngine::generate(p->optimized, opt, p->stimulus);
    });
    sourceKb += static_cast<double>(gen.source.size()) / 1024.0;
    std::string extra;
    const ArtifactKind kind = AccMoSEngine::artifactPlan(opt, &extra);
    CompilerDriver driver(o.workDir + "/drv-" + pm.name);
    CompileOutput out = tr.span("codegen.compile", [&] {
      return driver.compile(gen.source, pm.name, opt.optFlag, kind, extra);
    });
    tr.span("codegen.load", [&] { ModelLib lib(out.exePath); });
    auto engine = tr.span("codegen.engine", [&] {
      return std::make_unique<AccMoSEngine>(p->optimized, opt, p->stimulus,
                                            std::move(gen));
    });
    hits += engine->compileCacheHit() ? 1.0 : 0.0;
    const uint64_t seed = rng.next();
    auto t = Clock::now();
    SimulationResult r =
        tr.span("codegen.exec", [&] { return engine->run(0, -1.0, seed); });
    const double tracedExec = since(t);
    execNs.push_back(tracedExec * 1e9 / static_cast<double>(r.stepsExecuted));
    // The same run without its span: the difference is the span's cost.
    tr.span("trace.baseline", [&] {
      const auto tb = Clock::now();
      engine->run(0, -1.0, seed);
      overhead += tracedExec - since(tb);
    });

    TestCaseSpec spec = p->stimulus;
    spec.seed = seed;
    auto interpNs = [&](Engine e, const char* span) {
      SimOptions io;
      io.engine = e;
      io.maxSteps = kInterpPrefixSteps;
      if (e != Engine::SSE) {
        io.coverage = false;
        io.diagnosis = false;
      }
      const auto t = Clock::now();
      tr.span(span, [&] {
        if (e == Engine::SSE) return runInterpreter(p->optimized, io, spec);
        if (e == Engine::SSEac) return runAccelerator(p->optimized, io, spec);
        return runRapidAccelerator(p->optimized, io, spec);
      });
      return since(t) * 1e9 / static_cast<double>(kInterpPrefixSteps);
    };
    sseNs.push_back(interpNs(Engine::SSE, "interp.sse"));
    acNs.push_back(interpNs(Engine::SSEac, "interp.sseac"));
    racNs.push_back(interpNs(Engine::SSErac, "interp.sserac"));
    speedup.push_back(sseNs.back() / execNs.back());
    tr.span("check.sse_prefix",
            [&] { prefixAgainstSse(rep, pm.name, *p, *engine, seed); });
  }
  tr.span("check.known_answers", [&] { knownAnswers(rep); });
  const double wall = since(wall0);
  const double n = static_cast<double>(xml.size());

  rep.value("parser.read_ms", "ms", tr.seconds("parser.read") * 1e3);
  rep.value("graph.flatten_ms", "ms", tr.seconds("graph.flatten") * 1e3);
  rep.value("opt.optimize_ms", "ms", tr.seconds("opt.optimize") * 1e3);
  rep.value("opt.actors_after", "count", actorsAfter);
  rep.value("codegen.emit_ms", "ms", tr.seconds("codegen.emit") * 1e3);
  rep.value("codegen.source_kb", "KB", sourceKb);
  rep.value("codegen.compile_s", "s", tr.seconds("codegen.compile"));
  rep.value("codegen.load_ms", "ms", tr.seconds("codegen.load") * 1e3);
  rep.value("codegen.cache_hit_ratio", "ratio", hits / n);
  rep.value("codegen.compiler_invocations", "count",
            static_cast<double>(CompilerDriver::compilerInvocations() - inv0));
  rep.value("codegen.lib_loads", "count",
            static_cast<double>(ModelLib::loadCount() - loads0));
  rep.value("codegen.exec_ns_per_step", "ns", geomean(execNs));
  rep.value("interp.sse_ns_per_step", "ns", geomean(sseNs));
  rep.value("interp.sseac_ns_per_step", "ns", geomean(acNs));
  rep.value("interp.sserac_ns_per_step", "ns", geomean(racNs));
  rep.value("interp.speedup_vs_sse", "x", geomean(speedup));
  rep.value("trace.unaccounted_s", "s", wall - tr.topLevelSeconds());
  rep.value("trace.overhead_s", "s", overhead);
}

}  // namespace

void runTable1ColdRun(const Options& o, Report& rep, Trace& tr) {
  std::vector<std::string> xml;
  for (const auto& m : kModels) xml.push_back(benchModelXml(m.name));
  rep.info("models", "SPV TWC RAC");
  if (!tr.on()) {
    untraced(o, rep, xml);
    return;
  }
  traced(o, rep, tr, xml);
}

}  // namespace accbench
