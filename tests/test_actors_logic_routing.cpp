// Golden-value semantics tests for logic, relational, bitwise and routing
// actors.
#include <gtest/gtest.h>

#include "actor_test_util.h"

namespace accmos {
namespace {

using test::binary;
using test::evalOnce;
using test::Tiny;
using test::unary;

TEST(Relational, AllOperators) {
  struct Case {
    const char* op;
    double a, b;
    int64_t expect;
  };
  const Case cases[] = {
      {"==", 2, 2, 1}, {"==", 2, 3, 0}, {"!=", 2, 3, 1}, {"~=", 2, 2, 0},
      {"<", 1, 2, 1},  {"<=", 2, 2, 1}, {">", 3, 2, 1},  {">=", 1, 2, 0},
  };
  for (const auto& c : cases) {
    Tiny t = binary("RelationalOperator",
                    [&](Actor& a) { a.params().set("op", c.op); });
    EXPECT_EQ(evalOnce(t, {c.a, c.b}).i(0), c.expect)
        << c.a << c.op << c.b;
  }
}

TEST(Relational, IntegerComparisonExact) {
  // 2^53+1 vs 2^53: indistinguishable in double, distinct in i64.
  Tiny t = binary("RelationalOperator",
                  [](Actor& a) { a.params().set("op", ">"); }, DataType::I64,
                  DataType::Bool);
  TestCaseSpec tests;
  PortStimulus p1;
  p1.sequence = {9007199254740993.0};  // rounds to 2^53 in double stimulus
  PortStimulus p2;
  p2.sequence = {9007199254740992.0};
  tests.ports = {p1, p2};
  // Both stimulus values pass through double, so this documents the limit:
  // the comparison itself runs in the integer domain.
  auto res = test::runOn(t.model(), Engine::SSE, 1, tests);
  EXPECT_EQ(res.finalOutputs[0].i(0), 0);  // identical after f64 stimulus
}

TEST(Logical, TruthTables) {
  struct Case {
    const char* op;
    double a, b;
    int64_t expect;
  };
  const Case cases[] = {
      {"AND", 1, 1, 1},  {"AND", 1, 0, 0}, {"OR", 0, 0, 0},  {"OR", 0, 1, 1},
      {"NAND", 1, 1, 0}, {"NOR", 0, 0, 1}, {"XOR", 1, 1, 0}, {"XOR", 1, 0, 1},
      {"NXOR", 1, 1, 1},
  };
  for (const auto& c : cases) {
    Tiny t = binary("LogicalOperator", [&](Actor& a) {
      a.params().set("op", c.op);
      a.params().setInt("inputs", 2);
    }, DataType::Bool, DataType::Bool);
    EXPECT_EQ(evalOnce(t, {c.a, c.b}).i(0), c.expect) << c.op;
  }
  Tiny tn = unary("LogicalOperator",
                  [](Actor& a) { a.params().set("op", "NOT"); },
                  DataType::Bool, DataType::Bool);
  EXPECT_EQ(evalOnce(tn, {1.0}).i(0), 0);
  EXPECT_EQ(evalOnce(tn, {0.0}).i(0), 1);
}

TEST(Logical, NotWithTwoInputsRejected) {
  Tiny t = binary("LogicalOperator", [](Actor& a) {
    a.params().set("op", "NOT");
    a.params().setInt("inputs", 2);
  });
  test::expectInvalid(t);
}

TEST(Bitwise, OpsAndWidthMasking) {
  Tiny t = binary("BitwiseOperator", [](Actor& a) { a.params().set("op", "XOR"); },
                  DataType::U8, DataType::U8);
  EXPECT_EQ(evalOnce(t, {0xF0, 0x3C}).i(0), 0xCC);
  Tiny tn = unary("BitwiseOperator",
                  [](Actor& a) { a.params().set("op", "NOT"); }, DataType::U8,
                  DataType::U8);
  EXPECT_EQ(evalOnce(tn, {0x0F}).i(0), 0xF0);  // masked to 8 bits
  Tiny tf = unary("BitwiseOperator", nullptr, DataType::F64, DataType::F64);
  test::expectInvalid(tf);  // float output rejected
}

TEST(Shift, LeftWrapsRightPreservesSign) {
  Tiny tl = unary("ShiftArithmetic", [](Actor& a) {
    a.params().set("direction", "left");
    a.params().setInt("bits", 4);
  }, DataType::I8, DataType::I8);
  TestCaseSpec tests;
  PortStimulus p;
  p.sequence = {9.0};  // 9 << 4 = 144 wraps in i8
  tests.ports = {p};
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 1;
  auto res = simulate(tl.model(), opt, tests);
  EXPECT_EQ(res.finalOutputs[0].i(0), static_cast<int8_t>(144));
  EXPECT_NE(res.findDiag("T_Op", DiagKind::WrapOnOverflow), nullptr);

  Tiny tr = unary("ShiftArithmetic", [](Actor& a) {
    a.params().set("direction", "right");
    a.params().setInt("bits", 2);
  }, DataType::I32, DataType::I32);
  EXPECT_EQ(evalOnce(tr, {-64.0}).i(0), -16);  // arithmetic shift
}

TEST(CompareToConstant, ThresholdAndDecision) {
  Tiny t = unary("CompareToConstant", [](Actor& a) {
    a.params().set("op", ">=");
    a.params().setDouble("value", 1.5);
  }, DataType::F64, DataType::Bool);
  EXPECT_EQ(evalOnce(t, {1.5}).i(0), 1);
  EXPECT_EQ(evalOnce(t, {1.49}).i(0), 0);
}

TEST(Switch, CriteriaVariants) {
  for (const char* crit : {">0", "~=0", ">="}) {
    Tiny t;
    t.inport("In1", 1);
    t.inport("Ctl", 2);
    t.inport("In3", 3);
    Actor& sw = t.actor("Op", "Switch");
    sw.params().set("criteria", crit);
    sw.params().setDouble("threshold", 0.5);
    t.outport("Out1", 1);
    t.wire("In1", "Op", 1);
    t.wire("Ctl", "Op", 2);
    t.wire("In3", "Op", 3);
    t.wire("Op", "Out1");
    double ctlTrue = std::string(crit) == ">=" ? 0.6 : 1.0;
    double ctlFalse = std::string(crit) == ">=" ? 0.4 : 0.0;
    EXPECT_EQ(evalOnce(t, {10.0, ctlTrue, 20.0}).f(0), 10.0) << crit;
    EXPECT_EQ(evalOnce(t, {10.0, ctlFalse, 20.0}).f(0), 20.0) << crit;
  }
}

TEST(Switch, TypeMismatchRejected) {
  Tiny t;
  t.inport("In1", 1, DataType::I32);
  t.inport("Ctl", 2);
  t.inport("In3", 3);  // f64 data on an f64-out switch with i32 first input
  Actor& sw = t.actor("Op", "Switch");
  sw.setDtype(DataType::F64);
  t.outport("Out1", 1);
  t.wire("In1", "Op", 1);
  t.wire("Ctl", "Op", 2);
  t.wire("In3", "Op", 3);
  t.wire("Op", "Out1");
  FlatModel fm = t.flatten();
  EXPECT_THROW(validateFlatModel(fm), ModelError);
}

TEST(MultiportSwitch, SelectionAndClampOob) {
  Tiny t;
  t.inport("Ctl", 1, DataType::I32);
  t.inport("D1", 2);
  t.inport("D2", 3);
  t.inport("D3", 4);
  Actor& mp = t.actor("Op", "MultiportSwitch");
  mp.params().setInt("cases", 3);
  t.outport("Out1", 1);
  t.wire("Ctl", "Op", 1);
  t.wire("D1", "Op", 2);
  t.wire("D2", "Op", 3);
  t.wire("D3", "Op", 4);
  t.wire("Op", "Out1");
  EXPECT_EQ(evalOnce(t, {2.0, 10.0, 20.0, 30.0}).f(0), 20.0);
  // Control 7 clamps to the last case and raises out-of-bounds.
  TestCaseSpec tests;
  for (double v : {7.0, 10.0, 20.0, 30.0}) {
    PortStimulus p;
    p.sequence = {v};
    tests.ports.push_back(p);
  }
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 1;
  auto res = simulate(t.model(), opt, tests);
  EXPECT_EQ(res.finalOutputs[0].f(0), 30.0);
  EXPECT_NE(res.findDiag("T_Op", DiagKind::OutOfBounds), nullptr);
}

TEST(MuxDemux, SplitAndConcat) {
  Tiny t;
  t.inport("In1", 1);
  t.inport("In2", 2);
  Actor& mux = t.actor("M", "Mux");
  mux.params().setInt("inputs", 2);
  mux.setWidth(2);
  Actor& dm = t.actor("D", "Demux");
  dm.params().setInt("outputs", 2);
  dm.setWidth(1);
  t.outport("Out1", 1);
  t.outport("Out2", 2);
  t.wire("In1", "M", 1);
  t.wire("In2", "M", 2);
  t.wire("M", "D");
  t.wire("D", 1, "Out1", 1);
  t.wire("D", 2, "Out2", 1);
  TestCaseSpec tests;
  PortStimulus a;
  a.sequence = {7.0};
  PortStimulus b;
  b.sequence = {9.0};
  tests.ports = {a, b};
  auto res = test::runOn(t.model(), Engine::SSE, 1, tests);
  EXPECT_EQ(res.finalOutputs[0].f(0), 7.0);
  EXPECT_EQ(res.finalOutputs[1].f(0), 9.0);
}

TEST(MuxDemux, WidthSumValidation) {
  Tiny t;
  t.inport("In1", 1);
  t.inport("In2", 2);
  Actor& mux = t.actor("M", "Mux");
  mux.params().setInt("inputs", 2);
  mux.setWidth(3);  // 1+1 != 3
  t.actor("T1", "Terminator");
  t.wire("In1", "M", 1);
  t.wire("In2", "M", 2);
  t.wire("M", "T1");
  FlatModel fm = t.flatten();
  EXPECT_THROW(validateFlatModel(fm), ModelError);
}

TEST(Selector, StaticIndicesReorder) {
  Tiny t;
  Actor& in = t.inport("In1", 1);
  in.setWidth(3);
  Actor& sel = t.actor("Op", "Selector");
  sel.params().set("indices", "3,1");
  sel.setWidth(2);
  t.actor("S", "SumOfElements");
  t.outport("Out1", 1);
  t.wire("In1", "Op");
  t.wire("Op", "S");
  t.wire("S", "Out1");
  FlatModel fm = t.flatten();
  EXPECT_EQ(fm.signal(fm.findByPath("T_Op")->outputs[0]).width, 2);

  Actor& bad = t.model().root().addActor("Bad", "Selector");
  bad.params().set("indices", "4");  // outside width 3
  t.wire("In1", "Bad");
  FlatModel fm2 = t.flatten();
  EXPECT_THROW(validateFlatModel(fm2), ModelError);
}

TEST(IndexVector, DynamicOobClampsAndDiagnoses) {
  Tiny t;
  t.inport("Idx", 1, DataType::I32);
  Actor& in = t.inport("Vec", 2);
  in.setWidth(3);
  t.actor("Op", "IndexVector");
  t.outport("Out1", 1);
  t.wire("Idx", "Op", 1);
  t.wire("Vec", "Op", 2);
  t.wire("Op", "Out1");
  TestCaseSpec tests;
  PortStimulus idx;
  idx.sequence = {0.0};  // below range
  PortStimulus vec;
  vec.sequence = {5.0};
  tests.ports = {idx, vec};
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 1;
  auto res = simulate(t.model(), opt, tests);
  EXPECT_EQ(res.finalOutputs[0].f(0), 5.0);  // clamped to element 1
  EXPECT_NE(res.findDiag("T_Op", DiagKind::OutOfBounds), nullptr);
}

}  // namespace
}  // namespace accmos
