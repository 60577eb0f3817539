// Randomized differential testing: generate structurally random models with
// the pattern library, round-trip them through the model file format, and
// require bit-identical outputs from every engine. This is the repository's
// broadest property test — any semantic drift between an actor's eval(),
// its typed kernel, or its code template shows up here.
#include <gtest/gtest.h>

#include "bench_models/modelgen.h"
#include "parser/model_io.h"
#include "sim/campaign.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::randomModel;

class FuzzDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferential, EnginesAgreeAfterFileRoundTrip) {
  uint64_t seed = GetParam();
  auto model = randomModel(seed);
  // Round-trip through the model file format first: the parsed model must
  // behave identically to the built one.
  auto reread = readModelFromString(writeModelToString(*model));

  TestCaseSpec tests;
  tests.seed = seed * 31 + 7;
  auto sse = test::runOn(*model, Engine::SSE, 700, tests);
  auto sseReread = test::runOn(*reread, Engine::SSE, 700, tests);
  auto ac = test::runOn(*reread, Engine::SSEac, 700, tests);
  auto rac = test::runOn(*reread, Engine::SSErac, 700, tests);
  test::expectSameOutputs(sse, sseReread, "file round trip");
  test::expectSameOutputs(sse, ac, "fuzz SSEac");
  test::expectSameOutputs(sse, rac, "fuzz SSErac");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(1, 25));

// The compile-per-model AccMoS path on a smaller sample of seeds, including
// full coverage/diagnostic parity.
class FuzzAccMoS : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzAccMoS, GeneratedCodeMatchesInterpreter) {
  uint64_t seed = GetParam();
  auto model = randomModel(seed);
  TestCaseSpec tests;
  tests.seed = seed;
  auto sse = test::runOn(*model, Engine::SSE, 500, tests);
  auto acc = test::runOn(*model, Engine::AccMoS, 500, tests);
  test::expectSameOutputs(sse, acc, "fuzz AccMoS seed " +
                                        std::to_string(seed));
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(sse.coverage.of(m).covered, acc.coverage.of(m).covered)
        << "seed " << seed << " " << covMetricName(m);
  }
  ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size()) << seed;
  for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
    EXPECT_EQ(sse.diagnostics[k].actorPath, acc.diagnostics[k].actorPath);
    EXPECT_EQ(sse.diagnostics[k].firstStep, acc.diagnostics[k].firstStep);
    EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count);
  }

  // The containment rung on random models: the same cached library, run
  // in the accmos-run-lib child, observes exactly what the in-process run
  // did.
  test::EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
  auto child = test::runOn(*model, Engine::AccMoS, 500, tests);
  EXPECT_EQ(acc.execMode, "dlopen");
  EXPECT_EQ(child.execMode, "process");
  test::expectIdenticalResults(acc, child,
                               "fuzz process rung seed " +
                                   std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzAccMoS,
                         ::testing::Values(101, 202, 303, 404));

// Campaign-mode differential: a random model under a random seed set, run
// as a *parallel* AccMoS campaign (one compiled binary, concurrent
// executions) against the *sequential* interpreter campaign. Coverage
// reports — per seed and cumulative — and the deduplicated diagnostic
// (actor, kind) sets must agree exactly.
class FuzzCampaignDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzCampaignDifferential, ParallelAccMoSMatchesSequentialSse) {
  uint64_t seed = GetParam();
  auto model = randomModel(seed);
  SplitMix64 rng(seed * 977 + 11);
  std::vector<uint64_t> seeds;
  size_t numSeeds = 4 + rng.next() % 5;
  for (size_t k = 0; k < numSeeds; ++k) seeds.push_back(1 + rng.next() % 1000);

  Simulator sim(*model);
  SimOptions sseOpt;
  sseOpt.engine = Engine::SSE;
  sseOpt.maxSteps = 300;
  sseOpt.campaign.workers = 1;  // the sequential reference
  auto sse = runCampaign(sim.flatModel(), sseOpt, TestCaseSpec{}, seeds);

  SimOptions accOpt = sseOpt;
  accOpt.engine = Engine::AccMoS;
  accOpt.campaign.workers = 4;
  auto acc = runCampaign(sim.flatModel(), accOpt, TestCaseSpec{}, seeds);

  ASSERT_EQ(sse.perSeed.size(), acc.perSeed.size());
  for (size_t k = 0; k < seeds.size(); ++k) {
    EXPECT_EQ(sse.perSeed[k].seed, acc.perSeed[k].seed);
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(sse.perSeed[k].coverage.of(m).covered,
                acc.perSeed[k].coverage.of(m).covered)
          << "model " << seed << " seed " << seeds[k] << " "
          << covMetricName(m);
      EXPECT_EQ(sse.perSeed[k].cumulative.of(m).covered,
                acc.perSeed[k].cumulative.of(m).covered)
          << "model " << seed << " seed " << seeds[k] << " cumulative "
          << covMetricName(m);
    }
  }
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(sse.cumulative.of(m).covered, acc.cumulative.of(m).covered)
        << "model " << seed << " " << covMetricName(m);
    EXPECT_EQ(sse.mergedBitmaps.bits(m), acc.mergedBitmaps.bits(m))
        << "model " << seed << " merged " << covMetricName(m) << " bitmap";
  }

  // Diagnostic (actor, kind) multisets agree, with counts summed across
  // seeds and firstStep the earliest occurrence.
  ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size()) << seed;
  for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
    EXPECT_EQ(sse.diagnostics[k].actorPath, acc.diagnostics[k].actorPath);
    EXPECT_EQ(sse.diagnostics[k].kind, acc.diagnostics[k].kind);
    EXPECT_EQ(sse.diagnostics[k].firstStep, acc.diagnostics[k].firstStep);
    EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCampaignDifferential,
                         ::testing::Values(511, 622, 733));

// ---------------------------------------------------------------------------
// Optimization-pipeline differentials: the optimized model must be
// observation-equivalent to the unoptimized one — outputs, collected
// signals, coverage bitmaps and diagnostics all bit-identical — under every
// engine. The unoptimized SSE run (the interpreter called on the flattened
// model as given) is the ground-truth baseline; every other run goes
// through the Simulator facade, which always optimizes (only the pipeline
// sets OptStats::actorsBefore).
// ---------------------------------------------------------------------------

void expectSameObservations(const SimulationResult& base,
                            const SimulationResult& got,
                            const std::string& label) {
  test::expectSameOutputs(base, got, label);
  EXPECT_EQ(base.stepsExecuted, got.stepsExecuted) << label;
  ASSERT_EQ(base.collected.size(), got.collected.size()) << label;
  for (size_t k = 0; k < base.collected.size(); ++k) {
    EXPECT_EQ(base.collected[k].path, got.collected[k].path) << label;
    EXPECT_EQ(base.collected[k].last, got.collected[k].last) << label;
    EXPECT_EQ(base.collected[k].count, got.collected[k].count) << label;
  }
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(base.coverage.of(m).covered, got.coverage.of(m).covered)
        << label << " " << covMetricName(m);
    EXPECT_EQ(base.coverage.of(m).total, got.coverage.of(m).total)
        << label << " " << covMetricName(m) << " total";
    EXPECT_EQ(base.bitmaps.bits(m), got.bitmaps.bits(m))
        << label << " " << covMetricName(m) << " bitmap";
  }
  ASSERT_EQ(base.diagnostics.size(), got.diagnostics.size()) << label;
  for (size_t k = 0; k < base.diagnostics.size(); ++k) {
    EXPECT_EQ(base.diagnostics[k].actorPath, got.diagnostics[k].actorPath)
        << label;
    EXPECT_EQ(base.diagnostics[k].kind, got.diagnostics[k].kind) << label;
    EXPECT_EQ(base.diagnostics[k].firstStep, got.diagnostics[k].firstStep)
        << label;
    EXPECT_EQ(base.diagnostics[k].count, got.diagnostics[k].count) << label;
  }
}

class FuzzOptDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzOptDifferential, OptimizedSseMatchesUnoptimizedBaseline) {
  uint64_t seed = GetParam();
  auto model = randomModel(seed);
  TestCaseSpec tests;
  tests.seed = seed * 13 + 3;
  auto base = test::runUnoptimized(
      *model, test::engineOptions(Engine::SSE, 600), tests);
  auto opt = test::runOn(*model, Engine::SSE, 600, tests);
  EXPECT_GT(opt.optStats.actorsBefore, 0);
  expectSameObservations(base, opt,
                         "opt SSE seed " + std::to_string(seed));
}

TEST_P(FuzzOptDifferential, OptimizedFastModesMatchUnoptimizedBaseline) {
  // With instrumentation off (the fast modes reject it) the pipeline
  // actually rewrites the model — the hardest equivalence to hold.
  uint64_t seed = GetParam();
  auto model = randomModel(seed);
  TestCaseSpec tests;
  tests.seed = seed * 17 + 5;
  SimOptions bare;
  bare.engine = Engine::SSE;
  bare.maxSteps = 600;
  bare.coverage = false;
  bare.diagnosis = false;
  auto base = test::runUnoptimized(*model, bare, tests);

  for (Engine e : {Engine::SSE, Engine::SSEac, Engine::SSErac}) {
    SimOptions o = bare;
    o.engine = e;
    auto got = simulate(*model, o, tests);
    EXPECT_GT(got.optStats.actorsBefore, 0);
    test::expectSameOutputs(base, got,
                            "bare opt " + std::string(engineName(e)) +
                                " seed " + std::to_string(seed));
    EXPECT_EQ(base.stepsExecuted, got.stepsExecuted) << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzOptDifferential,
                         ::testing::Range<uint64_t>(1, 13));

// Compiled path: optimized AccMoS against the unoptimized interpreter,
// full instrumentation parity.
class FuzzOptAccMoS : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzOptAccMoS, OptimizedGeneratedCodeMatchesUnoptimizedInterpreter) {
  uint64_t seed = GetParam();
  auto model = randomModel(seed);
  TestCaseSpec tests;
  tests.seed = seed;
  auto base = test::runUnoptimized(
      *model, test::engineOptions(Engine::SSE, 500), tests);
  auto acc = test::runOn(*model, Engine::AccMoS, 500, tests);
  EXPECT_GT(acc.optStats.actorsBefore, 0);
  expectSameObservations(base, acc,
                         "opt AccMoS seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzOptAccMoS,
                         ::testing::Values(101, 202, 303, 404));

// Campaign mode: the pipeline runs once per campaign; merged coverage
// bitmaps and deduplicated diagnostics must match the unoptimized campaign
// (the campaign loop over an evaluator built on the raw model).
class FuzzOptCampaign : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzOptCampaign, OptimizedCampaignMatchesUnoptimized) {
  uint64_t seed = GetParam();
  auto model = randomModel(seed);
  SplitMix64 rng(seed * 977 + 11);
  std::vector<uint64_t> seeds;
  for (size_t k = 0; k < 5; ++k) seeds.push_back(1 + rng.next() % 1000);

  Simulator sim(*model);
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 300;
  std::vector<TestCaseSpec> specs(seeds.size());
  for (size_t k = 0; k < seeds.size(); ++k) specs[k].seed = seeds[k];
  SpecEvaluator raw(sim.flatModel(), opt);
  auto base = runCampaignSpecsOn(sim.flatModel(), raw, opt, specs, OptStats{});
  auto opted = runCampaign(sim.flatModel(), opt, TestCaseSpec{}, seeds);
  EXPECT_GT(opted.optStats.actorsBefore, 0);

  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(base.cumulative.of(m).covered, opted.cumulative.of(m).covered)
        << covMetricName(m);
    EXPECT_EQ(base.mergedBitmaps.bits(m), opted.mergedBitmaps.bits(m))
        << "merged " << covMetricName(m) << " bitmap";
  }
  ASSERT_EQ(base.diagnostics.size(), opted.diagnostics.size());
  for (size_t k = 0; k < base.diagnostics.size(); ++k) {
    EXPECT_EQ(base.diagnostics[k].actorPath, opted.diagnostics[k].actorPath);
    EXPECT_EQ(base.diagnostics[k].kind, opted.diagnostics[k].kind);
    EXPECT_EQ(base.diagnostics[k].firstStep, opted.diagnostics[k].firstStep);
    EXPECT_EQ(base.diagnostics[k].count, opted.diagnostics[k].count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzOptCampaign, ::testing::Values(511, 733));

// ---------------------------------------------------------------------------
// Integer models: random chains of the integer arithmetic family over
// random integer types, wrapping or saturating, fed by integer Inports and
// by Constants at each type's extremes (i64 and u64 included). The
// pattern library above draws f64 only.
// ---------------------------------------------------------------------------

constexpr DataType kIntTypes[] = {DataType::I8,  DataType::I16, DataType::I32,
                                  DataType::I64, DataType::U8,  DataType::U16,
                                  DataType::U32, DataType::U64};

// A decimal literal of one of type t's extremes: 0, 1, min, min+1,
// max-1, max, -1, 2^62 and 2^63 where t holds them.
std::string extremeLiteral(DataType t, SplitMix64& rng) {
  const int bits = dataTypeSize(t) * 8;
  const bool sgn = isSignedInt(t);
  const unsigned __int128 umax =
      (static_cast<unsigned __int128>(1) << (sgn ? bits - 1 : bits)) - 1;
  auto dec = [](unsigned __int128 v) {
    return std::to_string(static_cast<uint64_t>(v));
  };
  const std::string max = dec(umax);
  const std::string min = sgn ? "-" + dec(umax + 1) : "0";
  std::vector<std::string> pick = {"0", "1", min, max, dec(umax - 1)};
  if (sgn) {
    pick.push_back("-1");
    pick.push_back("-" + dec(umax));
  }
  if (bits == 64) pick.push_back("4611686018427387904");
  if (bits == 64 && !sgn) pick.push_back("9223372036854775808");
  return pick[rng.next() % pick.size()];
}

std::unique_ptr<Model> randomIntModel(uint64_t seed) {
  SplitMix64 rng(seed);
  auto m = std::make_unique<Model>("Int" + std::to_string(seed));
  System& root = m->root();
  auto anyType = [&] { return kIntTypes[rng.next() % 8]; };
  std::vector<std::string> pool;
  int n = 0;
  auto fresh = [&](const std::string& type, DataType t) -> Actor& {
    std::string name = type.substr(0, 3) + std::to_string(n++);
    Actor& a = root.addActor(name, type);
    a.setDtype(t);
    pool.push_back(name);
    return a;
  };
  for (int k = 0; k < 2; ++k) {
    fresh("Inport", anyType()).params().setInt("port", k + 1);
  }
  for (int k = 0; k < 4; ++k) {
    DataType t = anyType();
    fresh("Constant", t).params().set("value", extremeLiteral(t, rng));
  }
  auto from = [&] { return pool[rng.next() % pool.size()]; };
  const int actors = 8 + static_cast<int>(rng.next() % 8);
  for (int k = 0; k < actors; ++k) {
    const DataType t = anyType();
    const bool sat = rng.next() % 2 == 0;
    std::vector<std::string> ins = {from()};
    std::string type;
    switch (rng.next() % 9) {
      case 0: type = "Sum"; break;
      case 1: type = "Product"; break;
      case 2: type = "Gain"; break;
      case 3: type = "Bias"; break;
      case 4: type = "Abs"; break;
      case 5: type = "UnaryMinus"; break;
      case 6: type = "DataTypeConversion"; break;
      case 7: type = "DiscreteIntegrator"; break;
      default: type = "RelationalOperator"; break;
    }
    const std::string name = type.substr(0, 3) + std::to_string(n);
    Actor& a = fresh(type, type == "RelationalOperator" ? DataType::Bool : t);
    if (type == "Sum" || type == "Product" || type == "RelationalOperator") {
      ins.push_back(from());
    }
    if (type == "Sum") {
      a.params().set("ops", rng.next() % 2 == 0 ? "++" : "+-");
    } else if (type == "Product") {
      a.params().set("ops", rng.next() % 2 == 0 ? "**" : "*/");
    } else if (type == "Gain") {
      a.params().setInt("gain", static_cast<int64_t>(rng.next() % 7) - 3);
    } else if (type == "Bias") {
      a.params().setInt("bias", static_cast<int64_t>(rng.next() % 201) - 100);
    } else if (type == "RelationalOperator") {
      const char* ops[] = {"==", "!=", "<", "<=", ">", ">="};
      a.params().set("op", ops[rng.next() % 6]);
    }
    if (sat && (type == "Sum" || type == "Product" ||
                type == "DataTypeConversion" || type == "DiscreteIntegrator")) {
      a.params().set("saturate", "1");
    }
    for (size_t p = 0; p < ins.size(); ++p) {
      root.connect(ins[p], 1, name, static_cast<int>(p + 1));
    }
  }
  for (int k = 0; k < 3; ++k) {
    std::string out = "Out" + std::to_string(k + 1);
    root.addActor(out, "Outport").params().setInt("port", k + 1);
    root.connect(pool[pool.size() - 1 - static_cast<size_t>(k)], 1, out, 1);
  }
  return m;
}

class FuzzIntDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzIntDifferential, EnginesAgreeOnIntegerChains) {
  uint64_t seed = GetParam();
  auto model = randomIntModel(seed);
  TestCaseSpec tests;
  tests.seed = seed;
  // Inport 1 draws a wide range; Inport 2 cycles through 64-bit extremes
  // (stored by the real-to-int rule: the largest clamp to the int64 range).
  tests.defaultPort.min = -3.0e9;
  tests.defaultPort.max = 3.0e9;
  PortStimulus seq;
  seq.sequence = {0.0, 1.0, -1.0, 4611686018427387904.0,
                  9223372036854775808.0, -9223372036854775808.0, 255.0,
                  1.8e19};
  tests.ports = {tests.defaultPort, seq};
  const std::string label = "int seed " + std::to_string(seed);
  auto sse = test::runOn(*model, Engine::SSE, 64, tests);
  auto acc = test::runOn(*model, Engine::AccMoS, 64, tests);
  auto rac = test::runOn(*model, Engine::SSErac, 64, tests);
  test::expectIdenticalResults(sse, acc, label + " AccMoS");
  test::expectSameOutputs(sse, rac, label + " SSErac");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzIntDifferential,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace accmos
