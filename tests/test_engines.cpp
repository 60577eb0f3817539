// Unit tests for the simulation facade and the compiled fast-mode engines
// (paper §2: what the fast modes can and cannot do).
#include <gtest/gtest.h>

#include <type_traits>

#include "interp/compiled.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

Tiny simpleModel() {
  Tiny t;
  t.inport("In1", 1);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 0.5);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  return t;
}

TEST(Facade, FastModesRejectInstrumentation) {
  Tiny t = simpleModel();
  for (Engine e : {Engine::SSEac, Engine::SSErac}) {
    SimOptions opt;
    opt.engine = e;
    // Defaults request coverage+diagnosis — exactly what the fast modes
    // cannot do per the paper; the facade must refuse rather than silently
    // skip.
    EXPECT_THROW(simulate(t.model(), opt, TestCaseSpec{}), ModelError);

    opt.coverage = false;
    opt.diagnosis = false;
    opt.collectList = {"T_G"};
    EXPECT_THROW(simulate(t.model(), opt, TestCaseSpec{}), ModelError);

    opt.collectList.clear();
    opt.stopOnDiagnostic = true;
    EXPECT_THROW(simulate(t.model(), opt, TestCaseSpec{}), ModelError);

    opt.stopOnDiagnostic = false;
    auto res = simulate(t.model(), opt, TestCaseSpec{});
    EXPECT_FALSE(res.hasCoverage);
    EXPECT_TRUE(res.diagnostics.empty());
  }
}

TEST(Facade, InstrumentedEnginesProduceCoverage) {
  Tiny t = simpleModel();
  for (Engine e : {Engine::SSE, Engine::AccMoS}) {
    SimOptions opt;
    opt.engine = e;
    opt.maxSteps = 10;
    auto res = simulate(t.model(), opt, TestCaseSpec{});
    EXPECT_TRUE(res.hasCoverage) << engineName(e);
    EXPECT_EQ(res.coverage.of(CovMetric::Actor).covered, 3);
  }
}

TEST(CompiledEngines, StopSimulationWorksWithoutDiagnostics) {
  Tiny t;
  t.inport("In1", 1);
  Actor& cmp = t.actor("C", "CompareToConstant");
  cmp.params().set("op", ">");
  cmp.params().setDouble("value", 0.9);
  t.actor("Stop", "StopSimulation");
  t.outport("Out1", 1);
  t.wire("In1", "C");
  t.wire("C", "Stop");
  t.wire("In1", "Out1");
  auto sse = test::runOn(t.model(), Engine::SSE, 100000);
  auto ac = test::runOn(t.model(), Engine::SSEac, 100000);
  auto rac = test::runOn(t.model(), Engine::SSErac, 100000);
  EXPECT_TRUE(ac.stoppedEarly);
  EXPECT_EQ(sse.stepsExecuted, ac.stepsExecuted);
  EXPECT_EQ(sse.stepsExecuted, rac.stepsExecuted);
}

TEST(CompiledEngines, AcceleratorCountsServiceCalls) {
  Tiny t = simpleModel();
  FlatModel fm = t.flatten();
  CompiledProgram prog(fm, CompiledMode::Accelerator);
  SimOptions opt;
  opt.engine = Engine::SSEac;
  opt.coverage = false;
  opt.diagnosis = false;
  opt.maxSteps = 100;
  prog.run(opt, TestCaseSpec{});
  // One service call per lowered op per step: G is the only op (ports are
  // engine-handled), so exactly 100.
  EXPECT_EQ(prog.serviceCalls(), 100u);
}

TEST(CompiledEngines, ReusableAcrossRuns) {
  Tiny t;
  t.inport("In1", 1);
  Actor& acc = t.actor("Acc", "DiscreteIntegrator");
  acc.params().setDouble("gain", 1.0);
  t.outport("Out1", 1);
  t.wire("In1", "Acc");
  t.wire("Acc", "Out1");
  FlatModel fm = t.flatten();
  CompiledProgram prog(fm, CompiledMode::RapidAccelerator);
  SimOptions opt;
  opt.engine = Engine::SSErac;
  opt.coverage = false;
  opt.diagnosis = false;
  opt.maxSteps = 50;
  auto a = prog.run(opt, TestCaseSpec{});
  auto b = prog.run(opt, TestCaseSpec{});
  EXPECT_EQ(a.finalOutputs[0], b.finalOutputs[0]);  // state reset per run
}

TEST(CompiledEngines, TimeBudgetBoundsRun) {
  Tiny t = simpleModel();
  SimOptions opt;
  opt.engine = Engine::SSErac;
  opt.coverage = false;
  opt.diagnosis = false;
  opt.maxSteps = ~uint64_t{0} >> 1;
  opt.timeBudgetSec = 0.05;
  auto res = simulate(t.model(), opt, TestCaseSpec{});
  EXPECT_LT(res.execSeconds, 1.0);
  EXPECT_GT(res.stepsExecuted, 1000u);
}

TEST(Facade, SimulatorReusesPreprocessing) {
  auto t = simpleModel();
  Simulator sim(t.model());
  EXPECT_EQ(sim.flatModel().actors.size(), 3u);
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 10;
  auto a = sim.run(opt, TestCaseSpec{});
  auto b = sim.run(opt, TestCaseSpec{});
  test::expectSameOutputs(a, b, "simulator reuse");
}

// A Simulator's flat model points into its Model, so it takes only a Model
// that outlives it: `Simulator sim(*buildBenchmarkModel("CSEV"))` must not
// compile.
static_assert(!std::is_constructible_v<Simulator, Model&&>);
static_assert(std::is_constructible_v<Simulator, Model&>);

TEST(Facade, EngineNames) {
  EXPECT_EQ(engineName(Engine::AccMoS), "AccMoS");
  EXPECT_EQ(engineName(Engine::SSE), "SSE");
  EXPECT_EQ(engineName(Engine::SSEac), "SSEac");
  EXPECT_EQ(engineName(Engine::SSErac), "SSErac");
}

}  // namespace
}  // namespace accmos
