// Tests for the multi-seed test-campaign API: coverage accumulation is
// monotone, AccMoS and SSE campaigns agree seed-by-seed, and the compiled
// simulator is reused across seeds via the runtime seed argument.
#include <gtest/gtest.h>

#include "bench_models/suite.h"
#include "codegen/accmos_engine.h"
#include "sim/campaign.h"
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

TEST(Campaign, SpecEvaluatorSharesEnginesAcrossShapes) {
  auto model = buildBenchmarkModel("SPV");
  Simulator sim(*model);
  TestCaseSpec base = benchStimulus("SPV");
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 100;

  std::vector<TestCaseSpec> specs(4, base);
  for (size_t k = 0; k < specs.size(); ++k) specs[k].seed = 100 + k;
  TestCaseSpec wide = base;
  wide.defaultPort = PortStimulus{-3.0, 3.0, {}};
  specs.push_back(wide);

  SpecEvaluator eval(sim.flatModel(), opt);
  auto results = eval.evaluate(specs);
  ASSERT_EQ(results.size(), specs.size());
  // 5 specs, 2 distinct stimulus shapes -> 2 engines.
  EXPECT_EQ(eval.enginesBuilt(), 2u);
  auto again = eval.evaluate(specs);
  EXPECT_EQ(eval.enginesBuilt(), 2u);  // fully reused on the second batch
  for (size_t k = 0; k < specs.size(); ++k) {
    EXPECT_EQ(results[k].stepsExecuted, again[k].stepsExecuted);
  }
}

// Shape keying in SpecEvaluator::evaluate: a spec whose stimulus is
// bitwise identical to its predecessor's reuses that engine, every other
// spec is keyed on its own. A tiny model at -O0 keeps the compiles cheap;
// each result must match a direct engine run of its own spec, so a spec
// served by another shape's engine shows up as a wrong observation.
class ShapeKeying : public ::testing::Test {
 protected:
  ShapeKeying() {
    t_.inport("In1", 1);
    t_.actor("G", "Gain").params().setDouble("gain", 2.0);
    t_.outport("Out1", 1);
    t_.wire("In1", "G");
    t_.wire("G", "Out1");
    sim_ = std::make_unique<Simulator>(t_.model());
    opt_.engine = Engine::AccMoS;
    opt_.optFlag = "-O0";
    opt_.maxSteps = 50;
  }

  static TestCaseSpec spec(double min, double max, uint64_t seed) {
    TestCaseSpec s;
    s.defaultPort = PortStimulus{min, max, {}};
    s.seed = seed;
    return s;
  }

  // Evaluates `specs` on a fresh evaluator, checks every result against a
  // direct AccMoSEngine run of its own spec, and returns enginesBuilt().
  size_t evaluateAndCheck(const std::vector<TestCaseSpec>& specs) {
    SpecEvaluator eval(sim_->flatModel(), opt_);
    std::vector<SimulationResult> results = eval.evaluate(specs);
    for (size_t k = 0; k < specs.size(); ++k) {
      SimulationResult direct =
          AccMoSEngine(sim_->flatModel(), opt_, specs[k]).run();
      const std::string label = "spec " + std::to_string(k);
      EXPECT_EQ(results[k].stepsExecuted, direct.stepsExecuted) << label;
      test::expectSameOutputs(results[k], direct, label);
      for (CovMetric m : kAllCovMetrics) {
        EXPECT_EQ(results[k].bitmaps.bits(m), direct.bitmaps.bits(m))
            << label << " " << covMetricName(m);
      }
    }
    return eval.enginesBuilt();
  }

  Tiny t_;
  std::unique_ptr<Simulator> sim_;
  SimOptions opt_;
};

TEST_F(ShapeKeying, HomogeneousBatchBuildsOneEngine) {
  std::vector<TestCaseSpec> specs;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    specs.push_back(spec(-1.0, 1.0, seed));
  }
  EXPECT_EQ(evaluateAndCheck(specs), 1u);
}

TEST_F(ShapeKeying, SignedZeroBoundsBuildTwoEngines) {
  const TestCaseSpec pos = spec(0.0, 1.0, 1);
  const TestCaseSpec neg = spec(-0.0, 1.0, 2);
  EXPECT_FALSE(pos.sameShapeAs(neg));
  EXPECT_NE(pos.shapeKey(), neg.shapeKey());
  EXPECT_EQ(evaluateAndCheck({pos, neg}), 2u);
}

TEST_F(ShapeKeying, InterleavedShapesMapBackToTheFirstEngine) {
  const TestCaseSpec a = spec(-1.0, 1.0, 1);
  const TestCaseSpec b = spec(-3.0, 3.0, 2);
  const TestCaseSpec a2 = spec(-1.0, 1.0, 3);
  EXPECT_EQ(evaluateAndCheck({a, b, a2}), 2u) << "specs 0 and 2 share one";
}

TEST(Campaign, SeedOverrideMatchesBakedSeed) {
  // AccMoSEngine with a runtime seed override must equal a fresh engine
  // built with that seed baked in.
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

}  // namespace
}  // namespace accmos
