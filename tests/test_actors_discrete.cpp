// Golden-value semantics tests for the stateful actors: delays,
// integrators, filters, holds, and the data-store family.
#include <gtest/gtest.h>

#include "actor_test_util.h"

namespace accmos {
namespace {

using test::evalSteps;
using test::Tiny;
using test::unary;

TEST(UnitDelay, DelaysByOneStepWithInitial) {
  Tiny t = unary("UnitDelay",
                 [](Actor& a) { a.params().setDouble("initial", 9.0); });
  // Sequence 1,2,3,...: after 1 step output is the initial value.
  EXPECT_EQ(evalSteps(t, {{1, 2, 3, 4}}, 1).f(0), 9.0);
  EXPECT_EQ(evalSteps(t, {{1, 2, 3, 4}}, 2).f(0), 1.0);
  EXPECT_EQ(evalSteps(t, {{1, 2, 3, 4}}, 4).f(0), 3.0);
}

TEST(DelayN, DelaysByLength) {
  Tiny t = unary("Delay", [](Actor& a) {
    a.params().setInt("length", 3);
    a.params().setDouble("initial", -1.0);
  });
  EXPECT_EQ(evalSteps(t, {{1, 2, 3, 4, 5}}, 3).f(0), -1.0);  // still initial
  EXPECT_EQ(evalSteps(t, {{1, 2, 3, 4, 5}}, 4).f(0), 1.0);
  EXPECT_EQ(evalSteps(t, {{1, 2, 3, 4, 5}}, 5).f(0), 2.0);
}

TEST(TappedDelay, ProducesHistoryVector) {
  Tiny t;
  t.inport("In1", 1);
  Actor& td = t.actor("Op", "TappedDelay");
  td.params().setInt("taps", 3);
  Actor& sel = t.actor("Sel", "Selector");
  sel.params().set("indices", "1,2,3");
  sel.setWidth(3);
  t.actor("S", "SumOfElements");
  t.outport("Out1", 1);
  t.wire("In1", "Op");
  t.wire("Op", "Sel");
  t.wire("Sel", "S");
  t.wire("S", "Out1");
  // After 4 steps of 1,2,3,4 the taps hold {1,2,3}: sum 6.
  EXPECT_EQ(evalSteps(t, {{1, 2, 3, 4}}, 4).f(0), 6.0);
}

TEST(DiscreteIntegrator, ForwardEulerAccumulation) {
  Tiny t = unary("DiscreteIntegrator", [](Actor& a) {
    a.params().setDouble("gain", 0.5);
    a.params().setDouble("initial", 10.0);
  });
  // y[n] = y[n-1] + 0.5*u[n-1]; u = 2 constant.
  // step1 out: 10; step2: 11; step5: 14.
  EXPECT_EQ(evalSteps(t, {{2}}, 1).f(0), 10.0);
  EXPECT_EQ(evalSteps(t, {{2}}, 2).f(0), 11.0);
  EXPECT_EQ(evalSteps(t, {{2}}, 5).f(0), 14.0);
}

TEST(DiscreteIntegrator, IntegerWrapDiagnosedInUpdate) {
  Tiny t = unary("DiscreteIntegrator",
                 [](Actor& a) { a.params().setDouble("gain", 1.0); },
                 DataType::I16, DataType::I16);
  TestCaseSpec tests;
  PortStimulus p;
  p.sequence = {30000.0};
  tests.ports = {p};
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 3;  // 30000*2 wraps i16 during the second update
  auto res = simulate(t.model(), opt, tests);
  const DiagRecord* d = res.findDiag("T_Op", DiagKind::WrapOnOverflow);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->firstStep, 1u);
}

TEST(DiscreteDerivative, FirstDifference) {
  Tiny t = unary("DiscreteDerivative");
  EXPECT_EQ(evalSteps(t, {{5, 8, 2}}, 1).f(0), 5.0);   // 5 - 0
  EXPECT_EQ(evalSteps(t, {{5, 8, 2}}, 2).f(0), 3.0);   // 8 - 5
  EXPECT_EQ(evalSteps(t, {{5, 8, 2}}, 3).f(0), -6.0);  // 2 - 8
}

TEST(DiscreteFilter, FirstOrderIir) {
  // y = 0.5 u + 0.5 y1 with u = 1: y(0)=0.5, y(1)=0.75, y(2)=0.875.
  Tiny t = unary("DiscreteFilter", [](Actor& a) {
    a.params().set("num", "0.5");
    a.params().set("den", "1,-0.5");
  });
  EXPECT_DOUBLE_EQ(evalSteps(t, {{1}}, 1).f(0), 0.5);
  EXPECT_DOUBLE_EQ(evalSteps(t, {{1}}, 2).f(0), 0.75);
  EXPECT_DOUBLE_EQ(evalSteps(t, {{1}}, 3).f(0), 0.875);
}

TEST(DiscreteFilter, FirWithDelayTaps) {
  // y = 0.5 u + 0.5 u1 (moving average).
  Tiny t = unary("DiscreteFilter", [](Actor& a) {
    a.params().set("num", "0.5,0.5");
    a.params().set("den", "1");
  });
  EXPECT_DOUBLE_EQ(evalSteps(t, {{2, 4, 6}}, 2).f(0), 3.0);
  EXPECT_DOUBLE_EQ(evalSteps(t, {{2, 4, 6}}, 3).f(0), 5.0);
}

TEST(DiscreteFilter, BadDenRejected) {
  Tiny t = unary("DiscreteFilter", [](Actor& a) {
    a.params().set("num", "1");
    a.params().set("den", "2,1");
  });
  test::expectInvalid(t);
}

TEST(ZeroOrderHold, SamplesEveryN) {
  Tiny t = unary("ZeroOrderHold",
                 [](Actor& a) { a.params().setInt("sample", 3); });
  // Samples at steps 0,3,6,...; holds between.
  EXPECT_EQ(evalSteps(t, {{10, 20, 30, 40, 50, 60}}, 1).f(0), 10.0);
  EXPECT_EQ(evalSteps(t, {{10, 20, 30, 40, 50, 60}}, 3).f(0), 10.0);
  EXPECT_EQ(evalSteps(t, {{10, 20, 30, 40, 50, 60}}, 4).f(0), 40.0);
}

TEST(Memory, BehavesLikeUnitDelay) {
  Tiny t = unary("Memory");
  EXPECT_EQ(evalSteps(t, {{7, 8}}, 2).f(0), 7.0);
}

TEST(DataStore, ReadAfterWriteOrderIsScheduleDeterministic) {
  // Read scheduled before Write (source order): reads previous value.
  Tiny t;
  t.inport("In1", 1, DataType::I32);
  Actor& dsm = t.actor("Mem", "DataStoreMemory");
  dsm.params().set("store", "q");
  dsm.setDtype(DataType::I32);
  dsm.params().setDouble("initial", 100.0);
  Actor& rd = t.actor("Rd", "DataStoreRead");
  rd.params().set("store", "q");
  rd.setDtype(DataType::I32);
  Actor& add = t.actor("Add", "Sum");
  add.params().set("ops", "++");
  add.setDtype(DataType::I32);
  Actor& wr = t.actor("Wr", "DataStoreWrite");
  wr.params().set("store", "q");
  t.outport("Out1", 1);
  t.wire("Rd", "Add", 1);
  t.wire("In1", "Add", 2);
  t.wire("Add", "Wr");
  t.wire("Rd", "Out1");
  // Accumulator: q starts 100, input 5 per step.
  EXPECT_EQ(evalSteps(t, {{5}}, 1).i(0), 100);
  EXPECT_EQ(evalSteps(t, {{5}}, 3).i(0), 110);
}

TEST(DataStore, TypeMismatchRejected) {
  Tiny t;
  t.inport("In1", 1, DataType::I32);
  Actor& dsm = t.actor("Mem", "DataStoreMemory");
  dsm.params().set("store", "q");
  dsm.setDtype(DataType::I32);
  Actor& rd = t.actor("Rd", "DataStoreRead");
  rd.params().set("store", "q");
  rd.setDtype(DataType::F64);  // mismatch
  t.actor("T1", "Terminator");
  t.actor("T2", "Terminator");
  t.wire("Rd", "T1");
  t.wire("In1", "T2");
  FlatModel fm = t.flatten();
  EXPECT_THROW(validateFlatModel(fm), ModelError);
}

TEST(DataStore, DuplicateStoreNameRejected) {
  Tiny t;
  t.inport("In1", 1);
  Actor& a = t.actor("M1", "DataStoreMemory");
  a.params().set("store", "q");
  Actor& b = t.actor("M2", "DataStoreMemory");
  b.params().set("store", "q");
  t.actor("T1", "Terminator");
  t.wire("In1", "T1");
  EXPECT_THROW(t.flatten(), ModelError);
}

TEST(StatefulActors, TypeMismatchOnDelayRejected) {
  Tiny t;
  t.inport("In1", 1, DataType::F64);
  Actor& d = t.actor("Op", "UnitDelay");
  d.setDtype(DataType::I32);  // input f64 vs state/output i32
  t.outport("Out1", 1);
  t.wire("In1", "Op");
  t.wire("Op", "Out1");
  FlatModel fm = t.flatten();
  EXPECT_THROW(validateFlatModel(fm), ModelError);
}

TEST(VectorState, UnitDelayVectorRoundTrip) {
  Tiny t;
  Actor& in = t.inport("In1", 1);
  in.setWidth(3);
  Actor& d = t.actor("Op", "UnitDelay");
  d.setWidth(3);
  d.params().set("initial", "1,2,3");
  t.actor("S", "SumOfElements");
  t.outport("Out1", 1);
  t.wire("In1", "Op");
  t.wire("Op", "S");
  t.wire("S", "Out1");
  // Step 1: output = initial vector {1,2,3}: sum 6.
  EXPECT_EQ(evalSteps(t, {{5}}, 1).f(0), 6.0);
  // Step 2: vector of previous inputs {5,5,5}: sum 15.
  EXPECT_EQ(evalSteps(t, {{5}}, 2).f(0), 15.0);
}

}  // namespace
}  // namespace accmos
