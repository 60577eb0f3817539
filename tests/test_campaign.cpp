// Tests for the multi-seed test-campaign API: coverage accumulation is
// monotone, AccMoS and SSE campaigns agree seed-by-seed, one compiled
// simulator serves every seed and stimulus through the run ABI,
// overlapping evaluate() calls on one evaluator match sequential ones, and
// an interrupted campaign is a bit-identical prefix of the full one.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <latch>
#include <thread>

#include "bench_models/suite.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "serve/protocol.h"
#include "sim/campaign.h"
#include "sim/interrupt.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

TEST(Campaign, CumulativeCoverageIsMonotone) {
  auto model = buildBenchmarkModel("CSEV");
  Simulator sim(*model);
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 500;
  auto cr = runCampaign(sim.flatModel(), opt, benchStimulus("CSEV"),
                        {1, 2, 3, 4, 5});
  ASSERT_EQ(cr.perSeed.size(), 5u);
  for (size_t k = 1; k < cr.perSeed.size(); ++k) {
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_GE(cr.perSeed[k].cumulative.of(m).covered,
                cr.perSeed[k - 1].cumulative.of(m).covered)
          << covMetricName(m) << " seed index " << k;
      // Per-seed coverage never exceeds the cumulative union.
      EXPECT_LE(cr.perSeed[k].coverage.of(m).covered,
                cr.perSeed[k].cumulative.of(m).covered);
    }
  }
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(cr.cumulative.of(m).covered,
              cr.perSeed.back().cumulative.of(m).covered);
  }
}

TEST(Campaign, MultipleSeedsReachMoreThanOne) {
  auto model = buildBenchmarkModel("CPUT");
  Simulator sim(*model);
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 300;
  auto one = runCampaign(sim.flatModel(), opt, benchStimulus("CPUT"), {1});
  auto many = runCampaign(sim.flatModel(), opt, benchStimulus("CPUT"),
                          {1, 2, 3, 4, 5, 6, 7, 8});
  int oneTotal = 0;
  int manyTotal = 0;
  for (CovMetric m : kAllCovMetrics) {
    oneTotal += one.cumulative.of(m).covered;
    manyTotal += many.cumulative.of(m).covered;
  }
  EXPECT_GT(manyTotal, oneTotal);
}

TEST(Campaign, AccMoSMatchesSseSeedBySeed) {
  auto model = buildBenchmarkModel("SPV");
  Simulator sim(*model);
  std::vector<uint64_t> seeds = {11, 22, 33};
  SimOptions sseOpt;
  sseOpt.engine = Engine::SSE;
  sseOpt.maxSteps = 400;
  auto sse = runCampaign(sim.flatModel(), sseOpt, benchStimulus("SPV"), seeds);
  SimOptions accOpt = sseOpt;
  accOpt.engine = Engine::AccMoS;
  auto acc = runCampaign(sim.flatModel(), accOpt, benchStimulus("SPV"), seeds);

  ASSERT_EQ(sse.perSeed.size(), acc.perSeed.size());
  for (size_t k = 0; k < seeds.size(); ++k) {
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(sse.perSeed[k].coverage.of(m).covered,
                acc.perSeed[k].coverage.of(m).covered)
          << "seed " << seeds[k] << " " << covMetricName(m);
    }
  }
  // The binary was compiled once for the whole AccMoS campaign.
  EXPECT_GT(acc.compileSeconds, 0.0);
  ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size());
  for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
    EXPECT_EQ(sse.diagnostics[k].actorPath, acc.diagnostics[k].actorPath);
    EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count);
    EXPECT_EQ(sse.diagnostics[k].firstStep, acc.diagnostics[k].firstStep);
  }
}

TEST(Campaign, AggregatesDiagnosticsAcrossSeeds) {
  // A wrap that fires in every seed: counts sum, firstStep is the minimum.
  Tiny t;
  t.inport("In1", 1, DataType::I8);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 5.0);
  g.setDtype(DataType::I8);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  FlatModel fm = t.flatten();
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 100;
  TestCaseSpec base;
  base.defaultPort.min = 0.0;
  base.defaultPort.max = 127.0;
  auto cr = runCampaign(fm, opt, base, {1, 2});
  ASSERT_FALSE(cr.diagnostics.empty());
  const DiagRecord& rec = cr.diagnostics.front();
  EXPECT_EQ(rec.kind, DiagKind::WrapOnOverflow);
  EXPECT_GT(rec.count, 100u);  // summed across both seeds
}

TEST(Campaign, RejectsInvalidConfigurations) {
  Tiny t;
  t.inport("In1", 1);
  t.actor("T1", "Terminator");
  t.wire("In1", "T1");
  FlatModel fm = t.flatten();
  SimOptions opt;
  opt.engine = Engine::SSErac;
  opt.coverage = false;
  opt.diagnosis = false;
  EXPECT_THROW(runCampaign(fm, opt, TestCaseSpec{}, {1}), ModelError);
  opt.engine = Engine::SSE;
  opt.coverage = false;
  EXPECT_THROW(runCampaign(fm, opt, TestCaseSpec{}, {1}), ModelError);
  opt.coverage = true;
  EXPECT_THROW(runCampaign(fm, opt, TestCaseSpec{}, {}), ModelError);
}

// Heterogeneous specs: different seeds, ranges AND explicit sequences in
// one batch. SSE and AccMoS must agree bit-exactly, and the result must be
// independent of the worker count.
TEST(Campaign, HeterogeneousSpecsAgreeAcrossEnginesAndWorkers) {
  auto model = buildBenchmarkModel("SPV");
  Simulator sim(*model);
  TestCaseSpec base = benchStimulus("SPV");

  std::vector<TestCaseSpec> specs;
  TestCaseSpec a = base;
  a.seed = 11;
  specs.push_back(a);
  TestCaseSpec b = base;
  b.seed = 22;  // same shape as `a`: shares its compiled simulator
  specs.push_back(b);
  TestCaseSpec c = base;
  c.defaultPort = PortStimulus{-1.0, 2.0, {}};  // different shape
  specs.push_back(c);
  TestCaseSpec d = base;
  d.ports.resize(1);
  d.ports[0].sequence = {0.25, 0.75, 0.5, 1.0};  // explicit sequence
  specs.push_back(d);

  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 300;
  CampaignResult sse = runCampaignSpecs(sim.flatModel(), opt, specs);
  opt.campaign.workers = 3;
  CampaignResult sse3 = runCampaignSpecs(sim.flatModel(), opt, specs);
  opt.engine = Engine::AccMoS;
  CampaignResult acc = runCampaignSpecs(sim.flatModel(), opt, specs);

  ASSERT_EQ(sse.perSeed.size(), specs.size());
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(sse.mergedBitmaps.bits(m), sse3.mergedBitmaps.bits(m))
        << covMetricName(m) << " workers 1 vs 3";
    EXPECT_EQ(sse.mergedBitmaps.bits(m), acc.mergedBitmaps.bits(m))
        << covMetricName(m) << " sse vs accmos";
  }
  for (size_t k = 0; k < specs.size(); ++k) {
    EXPECT_EQ(sse.perSeed[k].seed, specs[k].seed);
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(sse.perSeed[k].coverage.of(m).covered,
                acc.perSeed[k].coverage.of(m).covered)
          << "spec " << k << " " << covMetricName(m);
    }
  }
}

// One evaluator compiles one library for the model, whatever its specs.
// A fresh evaluator on a fresh compile cache runs a batch that interleaves
// two ranges, +0.0 and -0.0 bounds and two CSV-style sequences: the
// compiler runs once, and every result equals the SSE run of its own spec,
// so a spec run on another spec's stimulus shows up as a wrong observation.
TEST(Campaign, OneLibraryServesEveryStimulus) {
  namespace fs = std::filesystem;
  const fs::path cache = fs::temp_directory_path() /
                         ("accmos_one_library_" + std::to_string(::getpid()));
  test::EnvGuard cacheEnv("ACCMOS_CACHE_DIR", cache.c_str());
  // An F64 gain beside an I8 gain that wraps: outputs, coverage and
  // diagnostics all follow the stimulus of both ports.
  Tiny t;
  t.inport("In1", 1);
  t.inport("In2", 2, DataType::I8);
  t.actor("G1", "Gain").params().setDouble("gain", 2.0);
  Actor& g2 = t.actor("G2", "Gain");
  g2.params().setDouble("gain", 5.0);
  g2.setDtype(DataType::I8);
  t.outport("Out1", 1);
  t.outport("Out2", 2);
  t.wire("In1", "G1");
  t.wire("G1", "Out1");
  t.wire("In2", "G2");
  t.wire("G2", "Out2");
  Simulator sim(t.model());

  auto range = [](double min, double max, uint64_t seed) {
    TestCaseSpec s;
    s.defaultPort = PortStimulus{min, max, {}};
    s.seed = seed;
    return s;
  };
  auto csv = [](std::vector<double> a, std::vector<double> b) {
    TestCaseSpec s;
    s.ports = {PortStimulus{0.0, 1.0, std::move(a)},
               PortStimulus{0.0, 1.0, std::move(b)}};
    return s;
  };
  const std::vector<TestCaseSpec> specs = {
      range(-1.0, 1.0, 1),
      csv({0.5, -1.5, 2.0}, {30.0, -100.0, 7.0}),
      range(0.0, 127.0, 2),
      range(-0.0, 127.0, 2),
      csv({-0.0, 0.25, 4.0, -3.0}, {120.0, 1.0, -0.0, 60.0}),
      range(-1.0, 1.0, 3),
      range(0.0, 127.0, 4),
  };

  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.optFlag = "-O0";
  opt.maxSteps = 64;
  opt.campaign.workers = 2;
  const uint64_t invocations = CompilerDriver::compilerInvocations();
  SpecEvaluator eval(sim.flatModel(), opt);
  EngineBuildCosts built;
  const std::vector<SimulationResult> results =
      eval.evaluate(specs, opt.campaign.workers, &built);
  EXPECT_EQ(CompilerDriver::compilerInvocations() - invocations, 1u);
  EXPECT_EQ(built.enginesBuilt, 1u);

  SimOptions sse = opt;
  sse.engine = Engine::SSE;
  ASSERT_EQ(results.size(), specs.size());
  for (size_t k = 0; k < specs.size(); ++k) {
    test::expectIdenticalResults(
        results[k], runInterpreter(sim.flatModel(), sse, specs[k]),
        "spec " + std::to_string(k));
  }
  std::error_code ec;
  fs::remove_all(cache, ec);
}

TEST(Campaign, SeedOverrideMatchesBakedSeed) {
  // AccMoSEngine with a runtime seed override must equal a fresh engine
  // built with that seed in its test case.
  Tiny t;
  t.inport("In1", 1);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 3.0);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  TestCaseSpec s1;
  s1.seed = 111;
  TestCaseSpec s2;
  s2.seed = 222;
  auto baked = test::runOn(t.model(), Engine::AccMoS, 100, s2);
  Simulator sim(t.model());
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 100;
  AccMoSEngine engine(sim.flatModel(), opt, s1);
  auto overridden = engine.run(0, -1.0, 222);
  test::expectSameOutputs(baked, overridden, "seed override");
}

// A seeded batch is its base spec under each seed, held once. Iterating it
// yields each spec whole; SSE and AccMoS evaluate and merge it exactly as
// they do the explicit specs, at one worker and at three; and
// AccMoSEngine::run(stimulus, seed) runs the seed it is given, not the
// stimulus's own.
TEST(Campaign, SeededBatchRunsLikeItsExplicitSpecs) {
  auto model = buildBenchmarkModel("SPV");
  Simulator sim(*model);
  const TestCaseSpec base = benchStimulus("SPV");
  const std::vector<uint64_t> seeds = {5, 17, 5, uint64_t{1} << 40, 3};
  std::vector<TestCaseSpec> specs(seeds.size(), base);
  for (size_t k = 0; k < seeds.size(); ++k) specs[k].seed = seeds[k];
  const SpecBatch seeded(base, seeds);

  ASSERT_EQ(seeded.size(), specs.size());
  size_t k = 0;
  for (const TestCaseSpec& s : seeded) {
    EXPECT_EQ(serve::toJson(s).write(), serve::toJson(specs[k]).write());
    EXPECT_EQ(&seeded.stimulus(k), &base);
    EXPECT_EQ(seeded.seed(k), seeds[k]);
    ++k;
  }
  EXPECT_EQ(k, seeds.size());

  auto obs = [](const CampaignResult& cr) {
    return serve::campaignObservations(cr).write();
  };
  for (Engine engine : {Engine::SSE, Engine::AccMoS}) {
    for (size_t workers : {1, 3}) {
      const std::string label = std::string(engineName(engine)) + " x" +
                                std::to_string(workers);
      SimOptions opt;
      opt.engine = engine;
      opt.maxSteps = 200;
      opt.campaign.workers = workers;
      EXPECT_EQ(obs(runCampaign(sim.flatModel(), opt, base, seeds)),
                obs(runCampaignSpecs(sim.flatModel(), opt, specs)))
          << label;
      SpecEvaluator ev(sim.flatModel(), opt);
      const std::vector<SimulationResult> got = ev.evaluate(seeded);
      const std::vector<SimulationResult> want = ev.evaluate(specs);
      ASSERT_EQ(got.size(), want.size()) << label;
      for (size_t i = 0; i < got.size(); ++i) {
        test::expectIdenticalResults(got[i], want[i],
                                     label + " spec " + std::to_string(i));
      }
    }
  }

  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 200;
  AccMoSEngine engine(sim.flatModel(), opt, base);
  TestCaseSpec otherSeed = base;
  otherSeed.seed = 999;
  test::expectIdenticalResults(engine.run(otherSeed, seeds[1]),
                               engine.run(specs[1], specs[1].seed),
                               "run(stimulus, seed)");
}

// Four threads call evaluate() on one evaluator at once, two at one
// worker and two at four, on a model nothing has built (a private compile
// cache). Each thread's results equal a sequential evaluation of its batch
// bit for bit, the model compiles once, and exactly one call is charged
// with building it.
TEST(Campaign, OverlappingEvaluateCallsMatchSequential) {
  namespace fs = std::filesystem;
  const fs::path cache = fs::temp_directory_path() /
                         ("accmos_overlap_" + std::to_string(::getpid()));
  test::EnvGuard cacheEnv("ACCMOS_CACHE_DIR", cache.c_str());
  // An I8 gain that wraps under full-range stimulus: outputs, coverage and
  // diagnostics all depend on the seed.
  Tiny t;
  t.inport("In1", 1, DataType::I8);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 5.0);
  g.setDtype(DataType::I8);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  Simulator sim(t.model());
  TestCaseSpec base;
  base.defaultPort = PortStimulus{0.0, 127.0, {}};

  constexpr size_t kThreads = 4;
  std::vector<std::vector<TestCaseSpec>> batches(kThreads);
  for (size_t c = 0; c < kThreads; ++c) {
    for (uint64_t s = 0; s < 16; ++s) {
      batches[c].push_back(base);
      batches[c].back().seed = 100 * (c + 1) + s;
    }
  }

  for (Engine engine : {Engine::AccMoS, Engine::SSE}) {
    const std::string label = engine == Engine::AccMoS ? "AccMoS" : "SSE";
    const size_t engines = engine == Engine::AccMoS ? 1 : 0;
    SimOptions opt;
    opt.engine = engine;
    opt.maxSteps = 300;
    opt.optFlag = "-O0";

    const uint64_t invocations = CompilerDriver::compilerInvocations();
    SpecEvaluator shared(sim.flatModel(), opt);
    std::vector<std::vector<SimulationResult>> got(kThreads);
    std::vector<EngineBuildCosts> built(kThreads);
    std::vector<std::string> err(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kThreads; ++c) {
      threads.emplace_back([&, c] {
        start.arrive_and_wait();
        try {
          got[c] = shared.evaluate(batches[c], c % 2 == 0 ? 1 : 4,
                                   &built[c]);
        } catch (const std::exception& e) {
          err[c] = e.what();
        }
      });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(CompilerDriver::compilerInvocations() - invocations, engines)
        << label;
    size_t chargedBuilds = 0;
    for (const EngineBuildCosts& b : built) chargedBuilds += b.enginesBuilt;
    EXPECT_EQ(chargedBuilds, engines) << label;

    SpecEvaluator sequential(sim.flatModel(), opt);
    for (size_t c = 0; c < kThreads; ++c) {
      ASSERT_EQ(err[c], "") << label << " thread " << c;
      const std::vector<SimulationResult> want =
          sequential.evaluate(batches[c], 1, nullptr);
      ASSERT_EQ(got[c].size(), want.size());
      for (size_t k = 0; k < want.size(); ++k) {
        test::expectIdenticalResults(
            got[c][k], want[k],
            label + " thread " + std::to_string(c) + " spec " +
                std::to_string(k));
      }
    }
  }
  std::error_code ec;
  fs::remove_all(cache, ec);
}

// A cooperative interrupt raised from a second thread partway through an
// in-process campaign, at one worker and at four: workers stop claiming,
// finish what they claimed, and the fold covers exactly the delivered
// prefix. That prefix is bit-identical to an uninterrupted campaign over
// the same specs, including rows that finished ahead of an earlier spec
// and waited for it. SSE needs no compiler, so the interrupt's timing is
// the test.
TEST(Campaign, InterruptedCampaignIsABitIdenticalPrefix) {
  auto model = buildBenchmarkModel("CSEV");
  Simulator sim(*model);
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 1000;
  std::vector<TestCaseSpec> specs(128, benchStimulus("CSEV"));
  for (size_t k = 0; k < specs.size(); ++k) specs[k].seed = 1000 + 37 * k;
  auto obs = [](const CampaignResult& cr) {
    return serve::campaignObservations(cr).write();
  };

  for (size_t workers : {1, 4}) {
    const std::string label = std::to_string(workers) + " worker(s)";
    opt.campaign.workers = workers;
    clearInterrupt();
    std::thread trigger([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      requestInterrupt();
    });
    const CampaignResult cr = runCampaignSpecs(sim.flatModel(), opt, specs);
    trigger.join();
    clearInterrupt();

    if (cr.interrupted) {
      ASSERT_LT(cr.perSeed.size(), specs.size()) << label;
      if (cr.perSeed.empty()) continue;  // the interrupt beat every claim
      const std::vector<TestCaseSpec> prefix(
          specs.begin(), specs.begin() + cr.perSeed.size());
      const CampaignResult ref = runCampaignSpecs(sim.flatModel(), opt, prefix);
      ASSERT_FALSE(ref.interrupted) << label;
      CampaignResult sansFlag = cr;
      sansFlag.interrupted = false;
      EXPECT_EQ(obs(sansFlag), obs(ref))
          << label << ", interrupted after " << cr.perSeed.size() << " of "
          << specs.size() << " specs";
    } else {
      // The campaign outran the interrupt; full identity must hold instead.
      EXPECT_EQ(obs(cr), obs(runCampaignSpecs(sim.flatModel(), opt, specs)))
          << label;
    }
  }
}

}  // namespace
}  // namespace accmos
