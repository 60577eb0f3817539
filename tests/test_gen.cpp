// Tests for the coverage-guided test-case generation subsystem (src/gen):
// bit-exact reproducibility across worker counts, monotone trajectory,
// corpus-replay equivalence, the gen-beats-random property on a guarded
// model, SSE-vs-AccMoS differential corpus replay, and corpus artifacts.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "actors/spec.h"
#include "gen/generator.h"
#include "gen/mutate.h"
#include "interp/interpreter.h"
#include "opt/pipeline.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

// A model whose interesting coverage points sit OUTSIDE the default
// stimulus range [0, 1): comparison thresholds at 1.25 and 1.5, a
// saturation band [-0.5, 1.2]. Uniform-random seeds over the default
// range can never reach them — only stimulus mutation (range widening,
// boundary straddling) can, which is what makes the generator strictly
// better than random search on this model.
FlatModel guardedModel(std::unique_ptr<Tiny>& keep) {
  keep = std::make_unique<Tiny>("G");
  keep->inport("In1", 1);
  keep->inport("In2", 2);
  Actor& c1 = keep->actor("Cmp1", "CompareToConstant");
  c1.params().setDouble("value", 1.25);  // unreachable from [0, 1)
  Actor& c2 = keep->actor("Cmp2", "CompareToConstant");
  c2.params().setDouble("value", 0.5);
  Actor& l = keep->actor("L", "LogicalOperator");
  l.params().set("op", "AND");
  l.params().setInt("inputs", 2);
  Actor& sw = keep->actor("Sw", "Switch");
  sw.params().set("criteria", ">=");
  sw.params().setDouble("threshold", 1.5);  // unreachable from [0, 1)
  Actor& sat = keep->actor("Sat", "Saturation");
  sat.params().setDouble("min", -0.5);
  sat.params().setDouble("max", 1.2);
  keep->outport("Out1", 1);
  keep->outport("Out2", 2);
  keep->wire("In1", "Cmp1");
  keep->wire("In2", "Cmp2");
  keep->wire("Cmp1", 1, "L", 1);
  keep->wire("Cmp2", 1, "L", 2);
  keep->wire("In1", 1, "Sw", 1);
  keep->wire("In2", 1, "Sw", 2);  // control: In2 >= 1.5
  keep->wire("In1", 1, "Sw", 3);
  keep->wire("Sw", "Sat");
  keep->wire("L", "Out1");
  keep->wire("Sat", "Out2");
  return keep->flatten();
}

SimOptions sseOptions(uint64_t steps, size_t workers = 1) {
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = steps;
  opt.campaign.workers = workers;
  return opt;
}

gen::GenOptions genOptions(uint64_t genSeed, size_t budget) {
  gen::GenOptions gopt;
  gopt.genSeed = genSeed;
  gopt.budget = budget;
  gopt.batch = 8;
  gopt.bootstrap = 4;
  return gopt;
}

void expectSameBitmaps(const CoverageRecorder& a, const CoverageRecorder& b,
                       const std::string& label) {
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(a.bits(m), b.bits(m))
        << label << " " << covMetricName(m) << " bitmaps differ";
  }
}

TEST(Gen, MutationEngineIsDeterministic) {
  gen::Corpus corpus;
  gen::CorpusEntry e;
  e.spec.seed = 5;
  e.spec.ports.push_back(PortStimulus{0.0, 1.0, {}});
  e.spec.ports.push_back(PortStimulus{0.0, 0.0, {1.0, 2.0, 3.0}});
  corpus.add(e);
  corpus.add(e);
  gen::MutationContext ctx;
  ctx.numPorts = 2;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SplitMix64 a(seed);
    SplitMix64 b(seed);
    gen::Mutant ma = gen::mutate(corpus, 1, ctx, a);
    gen::Mutant mb = gen::mutate(corpus, 1, ctx, b);
    EXPECT_EQ(ma.mutation, mb.mutation);
    EXPECT_EQ(gen::specToText(ma.spec), gen::specToText(mb.spec));
    // Mutants always satisfy the spec invariants.
    ma.spec.validate();
  }
}

TEST(Gen, DeterministicAcrossWorkerCounts) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = guardedModel(keep);
  gen::GenResult one =
      gen::runGeneration(fm, sseOptions(300, 1), genOptions(42, 48));
  gen::GenResult three =
      gen::runGeneration(fm, sseOptions(300, 3), genOptions(42, 48));

  EXPECT_EQ(gen::corpusFingerprint(one.corpus),
            gen::corpusFingerprint(three.corpus));
  ASSERT_EQ(one.trajectory.size(), three.trajectory.size());
  for (size_t k = 0; k < one.trajectory.size(); ++k) {
    EXPECT_EQ(one.trajectory[k].evaluated, three.trajectory[k].evaluated);
    EXPECT_EQ(one.trajectory[k].accepted, three.trajectory[k].accepted);
    EXPECT_EQ(one.trajectory[k].corpusSize, three.trajectory[k].corpusSize);
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(one.trajectory[k].cumulative.of(m).covered,
                three.trajectory[k].cumulative.of(m).covered);
    }
  }
  expectSameBitmaps(one.mergedBitmaps, three.mergedBitmaps, "workers 1 vs 3");
  EXPECT_EQ(one.evaluations, three.evaluations);
}

TEST(Gen, TrajectoryMonotoneAndCorpusReplayReproducesBitmaps) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = guardedModel(keep);
  SimOptions opt = sseOptions(300);
  gen::GenResult gr = gen::runGeneration(fm, opt, genOptions(7, 48));
  EXPECT_LE(gr.evaluations, 48u);
  ASSERT_FALSE(gr.trajectory.empty());

  // Cumulative coverage never decreases along the trajectory.
  for (size_t k = 1; k < gr.trajectory.size(); ++k) {
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_GE(gr.trajectory[k].cumulative.of(m).covered,
                gr.trajectory[k - 1].cumulative.of(m).covered);
    }
  }

  // Replaying exactly the accepted corpus reproduces the merged bitmaps:
  // rejected candidates contributed nothing the corpus does not carry. The
  // search ran on the optimized model, so the replay does too.
  const FlatModel optimized = optimizeModel(fm, opt);
  CoveragePlan plan = CoveragePlan::build(
      optimized, [](const FlatActor& fa) { return covTraitsFor(fa); });
  CoverageRecorder replay(plan);
  Interpreter interp(optimized, opt);
  for (const auto& e : gr.corpus.entries()) {
    replay.merge(interp.run(e.spec).bitmaps);
    EXPECT_GT(e.newBits + e.newDiagKinds, 0u);
  }
  expectSameBitmaps(replay, gr.mergedBitmaps, "corpus replay");

  // The uncovered listing is exactly the complement of the merged bitmaps.
  for (const auto& u : gr.uncovered) {
    EXPECT_EQ(gr.mergedBitmaps.bits(u.metric)[static_cast<size_t>(u.slot)], 0);
  }
}

TEST(Gen, BeatsUniformRandomOnGuardedModel) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = guardedModel(keep);
  SimOptions opt = sseOptions(300);
  const size_t budget = 48;

  std::vector<uint64_t> seeds;
  for (size_t k = 0; k < budget; ++k) seeds.push_back(1000 + 37 * k);
  CampaignResult random = runCampaign(fm, opt, TestCaseSpec{}, seeds);
  gen::GenResult guided = gen::runGeneration(fm, opt, genOptions(42, budget));

  int randomScore = random.cumulative.of(CovMetric::Decision).covered +
                    random.cumulative.of(CovMetric::MCDC).covered;
  int guidedScore = guided.finalCoverage.of(CovMetric::Decision).covered +
                    guided.finalCoverage.of(CovMetric::MCDC).covered;
  // Same evaluation budget; the guarded points are unreachable for ANY
  // seed over the default range, so guided search must be strictly ahead.
  EXPECT_GT(guidedScore, randomScore);
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_GE(guided.finalCoverage.of(m).covered,
              random.cumulative.of(m).covered);
  }
}

TEST(Gen, DifferentialReplaySseVsAccMoS) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = guardedModel(keep);
  gen::GenResult gr =
      gen::runGeneration(fm, sseOptions(200), genOptions(3, 16));
  ASSERT_FALSE(gr.corpus.empty());

  std::vector<TestCaseSpec> specs;
  for (const auto& e : gr.corpus.entries()) specs.push_back(e.spec);
  SimOptions sse = sseOptions(200);
  SimOptions acc = sseOptions(200);
  acc.engine = Engine::AccMoS;
  CampaignResult a = runCampaignSpecs(fm, sse, specs);
  CampaignResult b = runCampaignSpecs(fm, acc, specs);
  expectSameBitmaps(a.mergedBitmaps, b.mergedBitmaps, "sse vs accmos");
  ASSERT_EQ(a.perSeed.size(), b.perSeed.size());
  for (size_t k = 0; k < a.perSeed.size(); ++k) {
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(a.perSeed[k].coverage.of(m).covered,
                b.perSeed[k].coverage.of(m).covered)
          << "corpus entry " << k << " " << covMetricName(m);
    }
  }
}

TEST(Gen, SpecTextRoundTripIsExact) {
  TestCaseSpec spec;
  spec.seed = 0xDEADBEEFu;
  spec.defaultPort = PortStimulus{-1.5, 2.75, {}};
  spec.ports.push_back(PortStimulus{0.1, 0.30000000000000004, {}});
  spec.ports.push_back(PortStimulus{0.0, 0.0, {1.0 / 3.0, -2.5, 1e-17}});
  TestCaseSpec back = gen::specFromText(gen::specToText(spec));
  EXPECT_EQ(gen::specToText(back), gen::specToText(spec));
  EXPECT_EQ(back.seed, spec.seed);
  ASSERT_EQ(back.ports.size(), 2u);
  EXPECT_EQ(back.ports[0].max, spec.ports[0].max);
  EXPECT_EQ(back.ports[1].sequence, spec.ports[1].sequence);
  EXPECT_THROW(gen::specFromText("port 0 range 1\n"), ModelError);
  EXPECT_THROW(gen::specFromText("bogus 1\n"), ModelError);
}

TEST(Gen, MaterializedSpecDrivesEnginesIdentically) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = guardedModel(keep);
  TestCaseSpec spec;
  spec.seed = 77;
  spec.ports = {PortStimulus{-2.0, 2.0, {}}, PortStimulus{0.5, 1.75, {}}};
  TestCaseSpec flat = gen::materializeSpec(spec, fm.rootInports.size(), 120);
  ASSERT_EQ(flat.ports.size(), 2u);
  ASSERT_EQ(flat.ports[0].sequence.size(), 120u);

  SimOptions opt = sseOptions(120);
  Interpreter interp(fm, opt);
  auto seeded = interp.run(spec);
  auto explicit_ = interp.run(flat);
  expectSameBitmaps(seeded.bitmaps, explicit_.bitmaps, "materialized");
  ASSERT_EQ(seeded.finalOutputs.size(), explicit_.finalOutputs.size());
  for (size_t k = 0; k < seeded.finalOutputs.size(); ++k) {
    EXPECT_EQ(seeded.finalOutputs[k], explicit_.finalOutputs[k]);
  }
  EXPECT_THROW(gen::materializeSpec(spec, 2, 0), ModelError);
}

TEST(Gen, WritesCorpusArtifacts) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = guardedModel(keep);
  std::string dir = testing::TempDir() + "accmos_gen_corpus";
  std::filesystem::remove_all(dir);
  gen::GenOptions gopt = genOptions(9, 16);
  gopt.corpusDir = dir;
  gen::GenResult gr = gen::runGeneration(fm, sseOptions(150), gopt);
  ASSERT_FALSE(gr.corpus.empty());

  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.tsv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/entry_0000.spec"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/entry_0000.csv"));

  // The .spec artifact round-trips to the exact corpus entry.
  std::ifstream f(dir + "/entry_0000.spec");
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  TestCaseSpec back = gen::specFromText(text);
  EXPECT_EQ(gen::specToText(back), gen::specToText(gr.corpus.entry(0).spec));

  // The .csv artifact replays through the standard --tests path.
  TestCaseSpec csv = TestCaseSpec::fromCsv(dir + "/entry_0000.csv");
  ASSERT_EQ(csv.ports.size(), fm.rootInports.size());
  SimOptions opt = sseOptions(150);
  Interpreter interp(fm, opt);
  expectSameBitmaps(interp.run(csv).bitmaps,
                    interp.run(gr.corpus.entry(0).spec).bitmaps, "csv replay");
}

TEST(Gen, RejectsInvalidConfigurations) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = guardedModel(keep);
  SimOptions opt = sseOptions(100);
  EXPECT_THROW(gen::runGeneration(fm, opt, genOptions(1, 0)), ModelError);
  gen::GenOptions zeroBatch = genOptions(1, 8);
  zeroBatch.batch = 0;
  EXPECT_THROW(gen::runGeneration(fm, opt, zeroBatch), ModelError);
  SimOptions fast = opt;
  fast.engine = Engine::SSErac;  // not instrumentable
  EXPECT_THROW(gen::runGeneration(fm, fast, genOptions(1, 8)), ModelError);
  SimOptions noCov = opt;
  noCov.coverage = false;
  EXPECT_THROW(gen::runGeneration(fm, noCov, genOptions(1, 8)), ModelError);
}

}  // namespace
}  // namespace accmos
