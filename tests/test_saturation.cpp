// Tests for the saturate-on-overflow arithmetic option (Simulink's
// alternative to wrapping; §5-adjacent diagnosis extension): clamping
// semantics, the SaturateOnOverflow diagnostic, and cross-engine parity.
#include <gtest/gtest.h>

#include "actor_test_util.h"

namespace accmos {
namespace {

using test::binary;
using test::Tiny;
using test::unary;

SimulationResult runSeq(Tiny& t, const std::vector<std::vector<double>>& seqs,
                        Engine engine = Engine::SSE) {
  TestCaseSpec tests;
  for (const auto& s : seqs) {
    PortStimulus ps;
    ps.sequence = s;
    tests.ports.push_back(ps);
  }
  SimOptions opt;
  opt.engine = engine;
  opt.maxSteps = seqs[0].size();
  if (engine == Engine::SSEac || engine == Engine::SSErac) {
    opt.coverage = false;
    opt.diagnosis = false;
  }
  return simulate(t.model(), opt, tests);
}

Tiny satSum(DataType t = DataType::I8) {
  return binary("Sum", [](Actor& a) {
    a.params().set("ops", "++");
    a.params().set("saturate", "true");
  }, t, t);
}

TEST(Saturate, SumClampsInsteadOfWrapping) {
  Tiny t = satSum();
  auto res = runSeq(t, {{100, -100}, {100, -100}});
  // 100 + 100 clamps to 127 (wrapping would give -56);
  // final step -100 + -100 clamps to -128.
  EXPECT_EQ(res.finalOutputs[0].i(0), -128);
  const DiagRecord* d = res.findDiag("T_Op", DiagKind::SaturateOnOverflow);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->firstStep, 0u);
  EXPECT_EQ(d->count, 2u);
  EXPECT_EQ(res.findDiag("T_Op", DiagKind::WrapOnOverflow), nullptr);
}

TEST(Saturate, UpperClampValue) {
  Tiny t = satSum();
  auto res = runSeq(t, {{100}, {100}});
  EXPECT_EQ(res.finalOutputs[0].i(0), 127);
}

TEST(Saturate, UnsignedClampsAtZero) {
  Tiny t = binary("Sum", [](Actor& a) {
    a.params().set("ops", "+-");
    a.params().set("saturate", "true");
  }, DataType::U8, DataType::U8);
  auto res = runSeq(t, {{10}, {30}});
  EXPECT_EQ(res.finalOutputs[0].i(0), 0);  // 10 - 30 clamps to 0
  EXPECT_NE(res.findDiag("T_Op", DiagKind::SaturateOnOverflow), nullptr);
}

TEST(Saturate, ProductClamps) {
  Tiny t = binary("Product", [](Actor& a) {
    a.params().set("ops", "**");
    a.params().set("saturate", "true");
  }, DataType::I16, DataType::I16);
  auto res = runSeq(t, {{300}, {300}});
  EXPECT_EQ(res.finalOutputs[0].i(0), 32767);
  EXPECT_NE(res.findDiag("T_Op", DiagKind::SaturateOnOverflow), nullptr);
}

TEST(Saturate, ConversionClampsIntAndFloatSources) {
  Tiny ti = unary("DataTypeConversion",
                  [](Actor& a) { a.params().set("saturate", "true"); },
                  DataType::I32, DataType::I8);
  auto res = runSeq(ti, {{1000}});
  EXPECT_EQ(res.finalOutputs[0].i(0), 127);
  EXPECT_NE(res.findDiag("T_Op", DiagKind::SaturateOnOverflow), nullptr);

  Tiny tf = unary("DataTypeConversion",
                  [](Actor& a) { a.params().set("saturate", "true"); },
                  DataType::F64, DataType::I8);
  auto res2 = runSeq(tf, {{-1000.4}});
  EXPECT_EQ(res2.finalOutputs[0].i(0), -128);
}

TEST(Saturate, IntegratorClampsAccumulator) {
  Tiny t = unary("DiscreteIntegrator", [](Actor& a) {
    a.params().setDouble("gain", 1.0);
    a.params().set("saturate", "true");
  }, DataType::I16, DataType::I16);
  auto res = runSeq(t, {std::vector<double>(5, 20000.0)});
  // After 4 updates: clamped at 32767 instead of wrapping.
  EXPECT_EQ(res.finalOutputs[0].i(0), 32767);
  EXPECT_NE(res.findDiag("T_Op", DiagKind::SaturateOnOverflow), nullptr);
}

TEST(Saturate, AllEnginesAgree) {
  for (auto build : {+[]() { return satSum(DataType::I8); },
                     +[]() {
                       return binary("Product", [](Actor& a) {
                         a.params().set("ops", "*/");
                         a.params().set("saturate", "true");
                       }, DataType::I16, DataType::I16);
                     }}) {
    Tiny t = build();
    TestCaseSpec tests;
    tests.seed = 5;
    tests.defaultPort.min = -300.0;
    tests.defaultPort.max = 300.0;
    auto sse = test::runOn(t.model(), Engine::SSE, 400, tests);
    auto ac = test::runOn(t.model(), Engine::SSEac, 400, tests);
    auto rac = test::runOn(t.model(), Engine::SSErac, 400, tests);
    auto acc = test::runOn(t.model(), Engine::AccMoS, 400, tests);
    test::expectSameOutputs(sse, ac, "saturate ac");
    test::expectSameOutputs(sse, rac, "saturate rac");
    test::expectSameOutputs(sse, acc, "saturate accmos");
    ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size());
    for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
      EXPECT_EQ(sse.diagnostics[k].kind, acc.diagnostics[k].kind);
      EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count);
    }
  }
}

TEST(Saturate, WrappingRemainsTheDefault) {
  Tiny t = binary("Sum", [](Actor& a) { a.params().set("ops", "++"); },
                  DataType::I8, DataType::I8);
  auto res = runSeq(t, {{100}, {100}});
  EXPECT_EQ(res.finalOutputs[0].i(0), -56);  // wrapped
  EXPECT_NE(res.findDiag("T_Op", DiagKind::WrapOnOverflow), nullptr);
  EXPECT_EQ(res.findDiag("T_Op", DiagKind::SaturateOnOverflow), nullptr);
}

// Only the four actors above can clamp. On any other, saturate is a
// ModelError naming the actor, on every engine: it once planned a
// saturate diagnostic for an actor that wraps, and so reported a wrap of
// i8 100 * 2 to -56 as clean.
TEST(Saturate, ActorsThatCannotClampRejectIt) {
  for (const char* type : {"Gain", "Bias", "Abs", "UnaryMinus"}) {
    Tiny t = unary(type, [](Actor& a) {
      a.params().setInt("gain", 2);
      a.params().set("saturate", "1");
    }, DataType::I8, DataType::I8);
    for (Engine e : {Engine::SSE, Engine::SSErac, Engine::AccMoS}) {
      try {
        runSeq(t, {{100}}, e);
        ADD_FAILURE() << type << " accepted saturate";
      } catch (const ModelError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("'T_Op'"), std::string::npos) << what;
        EXPECT_NE(what.find("saturate"), std::string::npos) << what;
      }
    }
  }
}

}  // namespace
}  // namespace accmos
