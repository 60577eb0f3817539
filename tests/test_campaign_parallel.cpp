// Determinism of the parallel campaign runner: for any worker count the
// campaign result — per-seed reports in seed order, merged coverage
// bitmaps, cumulative report, deduplicated diagnostics — must be identical
// to the sequential run, on both the interpreting (SSE) and the
// generated-code (AccMoS) engines. Exercised on two of the pre-exported
// benchmark models (CSEV: state-heavy; LANS: computation-heavy).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "parser/model_io.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

LoadedModel loadBenchModel(const std::string& name) {
  return loadModelFromFile(std::string(ACCMOS_MODELS_DIR) + "/" + name +
                           ".xml");
}

std::vector<uint64_t> campaignSeeds(size_t n) {
  std::vector<uint64_t> seeds;
  for (size_t k = 0; k < n; ++k) seeds.push_back(100 + 37 * k);
  return seeds;
}

void expectSameReport(const CoverageReport& a, const CoverageReport& b,
                      const std::string& label) {
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(a.of(m).covered, b.of(m).covered)
        << label << " " << covMetricName(m) << " covered";
    EXPECT_EQ(a.of(m).total, b.of(m).total)
        << label << " " << covMetricName(m) << " total";
  }
}

// Full structural equality (timing fields excluded): the acceptance bar is
// byte-identical results, not statistically-similar ones.
void expectSameCampaign(const CampaignResult& seq, const CampaignResult& par,
                        const std::string& label) {
  ASSERT_EQ(seq.perSeed.size(), par.perSeed.size()) << label;
  for (size_t k = 0; k < seq.perSeed.size(); ++k) {
    const auto& a = seq.perSeed[k];
    const auto& b = par.perSeed[k];
    std::string at = label + " perSeed[" + std::to_string(k) + "]";
    EXPECT_EQ(a.seed, b.seed) << at << " seed order";
    EXPECT_EQ(a.steps, b.steps) << at;
    EXPECT_EQ(a.diagnosticKinds, b.diagnosticKinds) << at;
    expectSameReport(a.coverage, b.coverage, at + " coverage");
    expectSameReport(a.cumulative, b.cumulative, at + " cumulative");
  }
  expectSameReport(seq.cumulative, par.cumulative, label + " cumulative");
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(seq.mergedBitmaps.bits(m), par.mergedBitmaps.bits(m))
        << label << " merged " << covMetricName(m) << " bitmap";
  }
  ASSERT_EQ(seq.diagnostics.size(), par.diagnostics.size()) << label;
  for (size_t k = 0; k < seq.diagnostics.size(); ++k) {
    const auto& a = seq.diagnostics[k];
    const auto& b = par.diagnostics[k];
    std::string at = label + " diagnostics[" + std::to_string(k) + "]";
    EXPECT_EQ(a.actorId, b.actorId) << at;
    EXPECT_EQ(a.actorPath, b.actorPath) << at;
    EXPECT_EQ(a.kind, b.kind) << at;
    EXPECT_EQ(a.message, b.message) << at;
    EXPECT_EQ(a.firstStep, b.firstStep) << at;
    EXPECT_EQ(a.count, b.count) << at;
  }
}

class ParallelCampaign
    : public ::testing::TestWithParam<std::tuple<const char*, Engine>> {};

TEST_P(ParallelCampaign, MatchesSequentialForAnyWorkerCount) {
  auto [modelName, engineKind] = GetParam();
  LoadedModel loaded = loadBenchModel(modelName);
  TestCaseSpec base = loaded.stimulus.value_or(TestCaseSpec{});
  Simulator sim(*loaded.model);

  SimOptions opt;
  opt.engine = engineKind;
  opt.maxSteps = 300;
  auto seeds = campaignSeeds(12);

  opt.campaign.workers = 1;
  auto sequential = runCampaign(sim.flatModel(), opt, base, seeds);
  EXPECT_EQ(sequential.workersUsed, 1u);

  for (size_t workers : {size_t{2}, size_t{8}}) {
    opt.campaign.workers = workers;
    auto parallel = runCampaign(sim.flatModel(), opt, base, seeds);
    EXPECT_EQ(parallel.workersUsed, workers);
    expectSameCampaign(sequential, parallel,
                       std::string(modelName) + " workers=" +
                           std::to_string(workers));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndEngines, ParallelCampaign,
    ::testing::Values(std::make_tuple("CSEV", Engine::SSE),
                      std::make_tuple("CSEV", Engine::AccMoS),
                      std::make_tuple("LANS", Engine::SSE),
                      std::make_tuple("LANS", Engine::AccMoS)),
    [](const ::testing::TestParamInfo<ParallelCampaign::ParamType>& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::string(engineName(std::get<1>(info.param)));
    });

TEST(ParallelCampaign, ZeroWorkersMeansHardwareConcurrency) {
  LoadedModel loaded = loadBenchModel("CSEV");
  TestCaseSpec base = loaded.stimulus.value_or(TestCaseSpec{});
  Simulator sim(*loaded.model);
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 100;
  opt.campaign.workers = 0;
  auto seeds = campaignSeeds(4);
  auto cr = runCampaign(sim.flatModel(), opt, base, seeds);
  EXPECT_GE(cr.workersUsed, 1u);
  EXPECT_LE(cr.workersUsed, seeds.size());  // clamped to the seed count

  opt.campaign.workers = 1;
  auto sequential = runCampaign(sim.flatModel(), opt, base, seeds);
  expectSameCampaign(sequential, cr, "hardware-concurrency workers");
}

// More workers than seeds must not over-spawn or change results.
TEST(ParallelCampaign, MoreWorkersThanSeeds) {
  LoadedModel loaded = loadBenchModel("CSEV");
  TestCaseSpec base = loaded.stimulus.value_or(TestCaseSpec{});
  Simulator sim(*loaded.model);
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 100;
  auto seeds = campaignSeeds(3);
  opt.campaign.workers = 16;
  auto cr = runCampaign(sim.flatModel(), opt, base, seeds);
  EXPECT_EQ(cr.workersUsed, seeds.size());
  opt.campaign.workers = 1;
  auto sequential = runCampaign(sim.flatModel(), opt, base, seeds);
  expectSameCampaign(sequential, cr, "workers > seeds");
}

// Each seed's exec time is its own run's loop time, so a campaign's
// summed exec can never exceed what its workers had: wall x workers, up to
// clock rounding. Charging one run's time to several seeds breaks this.
TEST(ParallelCampaign, SummedExecTimeFitsInWallTimesWorkers) {
  LoadedModel loaded = loadBenchModel("CSEV");
  TestCaseSpec base = loaded.stimulus.value_or(TestCaseSpec{});
  Simulator sim(*loaded.model);
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 10000;
  auto seeds = campaignSeeds(16);
  // Warm the compile cache so execution, not the compile, fills the wall
  // clock — an inflated sum must not hide under compile time.
  runCampaign(sim.flatModel(), opt, base, {1});

  for (size_t workers : {size_t{1}, size_t{4}}) {
    opt.campaign.workers = workers;
    auto cr = runCampaign(sim.flatModel(), opt, base, seeds);
    const std::string label = "workers=" + std::to_string(workers);
    EXPECT_EQ(cr.workersUsed, workers) << label;
    EXPECT_GT(cr.totalExecSeconds, 0.0) << label;
    EXPECT_LE(cr.totalExecSeconds,
              cr.wallSeconds * static_cast<double>(cr.workersUsed) + 1e-6)
        << label;
  }
}

}  // namespace
}  // namespace accmos
