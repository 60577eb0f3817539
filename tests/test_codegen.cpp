// End-to-end tests of the AccMoS pipeline: instrumentation, code synthesis,
// compilation, execution, and parity of the recovered results with the
// interpreting engine.
#include <gtest/gtest.h>

#include "bench_models/sample_overflow.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "codegen/emitter.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

// A small model exercising arithmetic, branching, logic, state and I/O.
Tiny mixedModel() {
  Tiny t("Mixed");
  t.inport("In1", 1);
  t.inport("In2", 2);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 2.5);
  t.actor("Add", "Sum").params().set("ops", "+-");
  Actor& cmp = t.actor("Cmp", "CompareToConstant");
  cmp.params().set("op", ">");
  cmp.params().setDouble("value", 0.5);
  Actor& logic = t.actor("L", "LogicalOperator");
  logic.params().set("op", "AND");
  logic.params().setInt("inputs", 2);
  Actor& cmp2 = t.actor("Cmp2", "CompareToConstant");
  cmp2.params().set("op", "<");
  cmp2.params().setDouble("value", 0.8);
  Actor& sw = t.actor("Sw", "Switch");
  sw.params().set("criteria", "~=0");
  t.actor("Del", "UnitDelay");
  t.outport("Out1", 1);
  t.outport("Out2", 2);

  t.wire("In1", "G");
  t.wire("G", "Add", 1);
  t.wire("In2", "Add", 2);
  t.wire("In1", "Cmp");
  t.wire("In2", "Cmp2");
  t.wire("Cmp", "L", 1);
  t.wire("Cmp2", "L", 2);
  t.wire("Add", "Sw", 1);
  t.wire("L", "Sw", 2);
  t.wire("In2", "Sw", 3);
  t.wire("Sw", "Del");
  t.wire("Del", "Out1");
  t.wire("Add", "Out2");
  return t;
}

TEST(Codegen, GeneratedSourceHasPaperStructure) {
  Tiny t = mixedModel();
  Simulator sim(t.model());
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 10;
  AccMoSEngine engine(sim.flatModel(), opt, TestCaseSpec{});
  const std::string& src = engine.generatedSource();
  // The three structural pieces of paper Fig. 5. The paper's main() is
  // the library entry point accmos_run: the model compiles to one shared
  // library that both execution backends load, never to a program.
  EXPECT_NE(src.find("Model_Init"), std::string::npos);
  EXPECT_NE(src.find("Model_Exe"), std::string::npos);
  EXPECT_NE(src.find("int accmos_run("), std::string::npos);
  EXPECT_EQ(src.find("int main"), std::string::npos);
  // Instrumentation: coverage bitmap writes and a generated diagnostic
  // function ("implementation defined elsewhere, call at a location").
  EXPECT_NE(src.find("accmos_cov_actor["), std::string::npos);
  EXPECT_NE(src.find("diagnose_"), std::string::npos);
  // Test-case import.
  EXPECT_NE(src.find("accmos_fill_inputs"), std::string::npos);
}

TEST(Codegen, MatchesInterpreterOnMixedModel) {
  Tiny t = mixedModel();
  auto sse = test::runOn(t.model(), Engine::SSE, 500);
  auto acc = test::runOn(t.model(), Engine::AccMoS, 500);
  EXPECT_EQ(acc.stepsExecuted, 500u);
  test::expectSameOutputs(sse, acc, "AccMoS vs SSE");
  // Identical coverage percentages (same plans, same bitmaps).
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(sse.coverage.of(m).covered, acc.coverage.of(m).covered)
        << covMetricName(m);
    EXPECT_EQ(sse.coverage.of(m).total, acc.coverage.of(m).total);
  }
  // Identical diagnostics.
  ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size());
  for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
    EXPECT_EQ(sse.diagnostics[k].actorPath, acc.diagnostics[k].actorPath);
    EXPECT_EQ(sse.diagnostics[k].kind, acc.diagnostics[k].kind);
    EXPECT_EQ(sse.diagnostics[k].firstStep, acc.diagnostics[k].firstStep);
    EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count);
  }
}

TEST(Codegen, DetectsSampleModelOverflowLikeInterpreter) {
  auto model = sampleOverflowModel();
  SimOptions opt;
  opt.maxSteps = 50000;
  opt.stopOnDiagnostic = true;
  TestCaseSpec tests = sampleOverflowStimulus();
  // Scale up so the overflow happens within the step budget.
  tests.ports[0].max = 200000.0;
  tests.ports[1].max = 200000.0;

  opt.engine = Engine::SSE;
  auto sse = simulate(*model, opt, tests);
  opt.engine = Engine::AccMoS;
  auto acc = simulate(*model, opt, tests);

  ASSERT_TRUE(sse.firstDiagStep().has_value());
  ASSERT_TRUE(acc.firstDiagStep().has_value());
  EXPECT_EQ(*sse.firstDiagStep(), *acc.firstDiagStep());
  EXPECT_TRUE(sse.stoppedEarly);
  EXPECT_TRUE(acc.stoppedEarly);
  EXPECT_NE(acc.findDiag("Sample", DiagKind::WrapOnOverflow), nullptr);
}

TEST(Codegen, CollectAndCustomDiagnostics) {
  Tiny t = mixedModel();
  SimOptions opt;
  opt.maxSteps = 200;
  opt.collectList = {"Mixed_Add"};
  CustomDiagnostic cd;
  cd.actorPath = "Mixed_Sw";
  cd.name = "sudden-change";
  cd.kind = CustomDiagnostic::Kind::SuddenChange;
  cd.maxDelta = 0.4;
  opt.customDiagnostics = {cd};

  opt.engine = Engine::SSE;
  auto sse = simulate(t.model(), opt, TestCaseSpec{});
  opt.engine = Engine::AccMoS;
  auto acc = simulate(t.model(), opt, TestCaseSpec{});

  ASSERT_EQ(sse.collected.size(), acc.collected.size());
  ASSERT_FALSE(acc.collected.empty());
  for (size_t k = 0; k < sse.collected.size(); ++k) {
    EXPECT_EQ(sse.collected[k].path, acc.collected[k].path);
    EXPECT_EQ(sse.collected[k].count, acc.collected[k].count);
    EXPECT_EQ(sse.collected[k].last, acc.collected[k].last);
  }
  const DiagRecord* sseCd = sse.findDiag("Mixed_Sw", DiagKind::Custom);
  const DiagRecord* accCd = acc.findDiag("Mixed_Sw", DiagKind::Custom);
  ASSERT_NE(sseCd, nullptr);
  ASSERT_NE(accCd, nullptr);
  EXPECT_EQ(sseCd->firstStep, accCd->firstStep);
  EXPECT_EQ(sseCd->count, accCd->count);
}

TEST(Codegen, ExpressionCustomDiagnosticNeedsCppCondition) {
  Tiny t = mixedModel();
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  CustomDiagnostic cd;
  cd.actorPath = "Mixed_Add";
  cd.name = "cb-only";
  cd.kind = CustomDiagnostic::Kind::Expression;
  cd.callback = [](double, double, uint64_t) { return false; };
  opt.customDiagnostics = {cd};
  EXPECT_THROW(simulate(t.model(), opt, TestCaseSpec{}), ModelError);
}

TEST(Codegen, CompileErrorCarriesLog) {
  CompilerDriver driver;
  EXPECT_THROW(driver.compile("int main( {", "bad", "-O0"), CompileError);
}

TEST(Codegen, UninstrumentedCodeOmitsInstrumentation) {
  Tiny t = mixedModel();
  Simulator sim(t.model());
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.coverage = false;
  opt.diagnosis = false;
  AccMoSEngine engine(sim.flatModel(), opt, TestCaseSpec{});
  const std::string& src = engine.generatedSource();
  EXPECT_EQ(src.find("accmos_cov_actor["), std::string::npos);
  EXPECT_EQ(src.find("diagnose_"), std::string::npos);
  auto res = engine.run();
  EXPECT_FALSE(res.hasCoverage);
  EXPECT_TRUE(res.diagnostics.empty());
}

}  // namespace
}  // namespace accmos
