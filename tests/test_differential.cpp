// Cross-engine differential tests: for the same model and stimulus, the
// four engines (SSE interpreter, SSEac bytecode, SSErac closures, and
// AccMoS generated code) must produce bit-identical outputs, and the two
// instrumented engines identical coverage and diagnostics. The baseline is
// SSE on the unoptimized model; the optimized SSE run must match it in
// every observation.
//
// This is the property the paper's whole method rests on: code-based
// simulation must be a faithful replacement for the interpreting engine.
#include <gtest/gtest.h>

#include "bench_models/sample_overflow.h"
#include "bench_models/suite.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

// In-process engines (cheap — parameterized over the whole suite).
class InProcessDifferential
    : public ::testing::TestWithParam<BenchModelInfo> {};

TEST_P(InProcessDifferential, FastModesMatchInterpreterOutputs) {
  const BenchModelInfo& info = GetParam();
  auto model = buildBenchmarkModel(info.name);
  TestCaseSpec tests = benchStimulus(info.name);
  auto sse = test::runUnoptimized(
      *model, test::engineOptions(Engine::SSE, 1500), tests);
  auto opted = test::runOn(*model, Engine::SSE, 1500, tests);
  auto ac = test::runOn(*model, Engine::SSEac, 1500, tests);
  auto rac = test::runOn(*model, Engine::SSErac, 1500, tests);
  test::expectIdenticalResults(sse, opted, info.name + " optimized SSE");
  test::expectSameOutputs(sse, ac, info.name + " SSEac");
  test::expectSameOutputs(sse, rac, info.name + " SSErac");
  EXPECT_EQ(sse.stepsExecuted, ac.stepsExecuted);
  EXPECT_EQ(sse.stepsExecuted, rac.stepsExecuted);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, InProcessDifferential, ::testing::ValuesIn(benchmarkSuite()),
    [](const ::testing::TestParamInfo<BenchModelInfo>& info) {
      return info.param.name;
    });

// AccMoS involves a compile per case; run it on a subset plus the sample
// and error-injected models.
TEST(AccMoSDifferential, MatchesInterpreterOnBenchmarks) {
  for (const char* name : {"CSEV", "TWC", "SPV"}) {
    auto model = buildBenchmarkModel(name);
    TestCaseSpec tests = benchStimulus(name);
    auto sse = test::runUnoptimized(
        *model, test::engineOptions(Engine::SSE, 1000), tests);
    auto opted = test::runOn(*model, Engine::SSE, 1000, tests);
    auto acc = test::runOn(*model, Engine::AccMoS, 1000, tests);
    test::expectIdenticalResults(sse, opted, std::string(name) + " opt SSE");
    test::expectSameOutputs(sse, acc, std::string(name) + " AccMoS");
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(sse.coverage.of(m).covered, acc.coverage.of(m).covered)
          << name << " " << covMetricName(m);
    }
  }
}

TEST(AccMoSDifferential, MatchesInterpreterOnInjectedCsev) {
  auto model = buildCsevWithInjectedErrors();
  TestCaseSpec tests = benchStimulus("CSEV");
  auto sse = test::runUnoptimized(
      *model, test::engineOptions(Engine::SSE, 5000), tests);
  auto opted = test::runOn(*model, Engine::SSE, 5000, tests);
  auto acc = test::runOn(*model, Engine::AccMoS, 5000, tests);
  test::expectIdenticalResults(sse, opted, "injected CSEV optimized SSE");
  test::expectSameOutputs(sse, acc, "injected CSEV");
  ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size());
  for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
    EXPECT_EQ(sse.diagnostics[k].actorPath, acc.diagnostics[k].actorPath);
    EXPECT_EQ(sse.diagnostics[k].kind, acc.diagnostics[k].kind);
    EXPECT_EQ(sse.diagnostics[k].firstStep, acc.diagnostics[k].firstStep);
    EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count);
  }
}

// Per-actor-type differential micro-models: every type with every engine.
struct TypeCase {
  std::string label;
  std::function<void(Tiny&)> build;
};

void buildChainCommon(Tiny& t, const std::string& opName) {
  t.wire("In1", opName);
  t.wire(opName, "Out1");
}

std::vector<TypeCase> typeCases() {
  std::vector<TypeCase> cases;
  auto add = [&](const std::string& label, std::function<void(Tiny&)> fn) {
    cases.push_back(TypeCase{label, std::move(fn)});
  };

  auto unary = [&](const std::string& label, const std::string& type,
                   std::function<void(Actor&)> cfg = nullptr,
                   DataType out = DataType::F64) {
    add(label, [=](Tiny& t) {
      t.inport("In1", 1);
      Actor& a = t.actor("Op", type);
      a.setDtype(out);
      if (cfg) cfg(a);
      t.outport("Out1", 1);
      buildChainCommon(t, "Op");
    });
  };

  unary("GainF64", "Gain",
        [](Actor& a) { a.params().setDouble("gain", 1.7); });
  unary("GainI32", "Gain",
        [](Actor& a) {
          a.params().setDouble("gain", 3.0);
          a.setDtype(DataType::I32);
        },
        DataType::I32);
  unary("Bias", "Bias", [](Actor& a) { a.params().setDouble("bias", -2.5); });
  unary("Abs", "Abs");
  unary("Sign", "Sign");
  unary("UnaryMinus", "UnaryMinus");
  unary("Sqrt", "Sqrt");
  unary("MathExp", "Math", [](Actor& a) { a.params().set("op", "exp"); });
  unary("MathLog", "Math", [](Actor& a) { a.params().set("op", "log"); });
  unary("MathLog10", "Math", [](Actor& a) { a.params().set("op", "log10"); });
  unary("MathSqrt", "Math", [](Actor& a) { a.params().set("op", "sqrt"); });
  unary("MathSquare", "Math",
        [](Actor& a) { a.params().set("op", "square"); });
  unary("MathRecip", "Math",
        [](Actor& a) { a.params().set("op", "reciprocal"); });
  unary("TrigSin", "Trigonometry",
        [](Actor& a) { a.params().set("op", "sin"); });
  unary("TrigTanh", "Trigonometry",
        [](Actor& a) { a.params().set("op", "tanh"); });
  unary("TrigCos", "Trigonometry",
        [](Actor& a) { a.params().set("op", "cos"); });
  unary("TrigTan", "Trigonometry",
        [](Actor& a) { a.params().set("op", "tan"); });
  unary("TrigAsin", "Trigonometry",
        [](Actor& a) { a.params().set("op", "asin"); });
  unary("TrigAcos", "Trigonometry",
        [](Actor& a) { a.params().set("op", "acos"); });
  unary("TrigAtan", "Trigonometry",
        [](Actor& a) { a.params().set("op", "atan"); });
  unary("TrigSinh", "Trigonometry",
        [](Actor& a) { a.params().set("op", "sinh"); });
  unary("TrigCosh", "Trigonometry",
        [](Actor& a) { a.params().set("op", "cosh"); });
  unary("RoundFloor", "Rounding",
        [](Actor& a) { a.params().set("op", "floor"); });
  unary("RoundFix", "Rounding", [](Actor& a) { a.params().set("op", "fix"); });
  unary("RoundCeil", "Rounding",
        [](Actor& a) { a.params().set("op", "ceil"); });
  unary("RoundRound", "Rounding",
        [](Actor& a) { a.params().set("op", "round"); });
  unary("Poly", "Polynomial",
        [](Actor& a) { a.params().set("coeffs", "1.5,-2,0.25"); });
  unary("Quantizer", "Quantizer",
        [](Actor& a) { a.params().setDouble("interval", 0.3); });
  unary("Saturation", "Saturation", [](Actor& a) {
    a.params().setDouble("min", 0.2);
    a.params().setDouble("max", 0.7);
  });
  unary("DeadZone", "DeadZone", [](Actor& a) {
    a.params().setDouble("start", 0.3);
    a.params().setDouble("end", 0.6);
  });
  unary("WrapToZero", "WrapToZero",
        [](Actor& a) { a.params().setDouble("threshold", 0.5); });
  unary("Relay", "Relay", [](Actor& a) {
    a.params().setDouble("onPoint", 0.7);
    a.params().setDouble("offPoint", 0.3);
    a.params().setDouble("onValue", 5.0);
    a.params().setDouble("offValue", -5.0);
  });
  unary("RateLimiter", "RateLimiter", [](Actor& a) {
    a.params().setDouble("rising", 0.05);
    a.params().setDouble("falling", -0.05);
  });
  unary("UnitDelay", "UnitDelay",
        [](Actor& a) { a.params().setDouble("initial", 9.5); });
  unary("Memory", "Memory");
  unary("Delay3", "Delay", [](Actor& a) {
    a.params().setInt("length", 3);
    a.params().setDouble("initial", -1.0);
  });
  unary("Integrator", "DiscreteIntegrator",
        [](Actor& a) { a.params().setDouble("gain", 0.25); });
  unary("IntegratorI32", "DiscreteIntegrator",
        [](Actor& a) {
          a.params().setDouble("gain", 2.0);
          a.setDtype(DataType::I32);
        },
        DataType::I32);
  unary("Derivative", "DiscreteDerivative");
  unary("Filter", "DiscreteFilter", [](Actor& a) {
    a.params().set("num", "0.4,0.3");
    a.params().set("den", "1,-0.3");
  });
  unary("Zoh", "ZeroOrderHold",
        [](Actor& a) { a.params().setInt("sample", 5); });
  unary("Lookup1D", "Lookup1D", [](Actor& a) {
    a.params().set("x", "0,0.25,0.5,0.75,1");
    a.params().set("y", "0,2,1,5,3");
  });
  unary("Lookup1DNearest", "Lookup1D", [](Actor& a) {
    a.params().set("x", "0,0.5,1");
    a.params().set("y", "1,2,3");
    a.params().set("method", "nearest");
  });
  unary("ConvertToI16", "DataTypeConversion",
        [](Actor& a) { a.setDtype(DataType::I16); }, DataType::I16);
  unary("ConvertToF32", "DataTypeConversion",
        [](Actor& a) { a.setDtype(DataType::F32); }, DataType::F32);
  unary("CompareGt", "CompareToConstant",
        [](Actor& a) {
          a.params().set("op", ">");
          a.params().setDouble("value", 0.4);
        },
        DataType::Bool);
  unary("CompareZero", "CompareToZero",
        [](Actor& a) { a.params().set("op", ">="); }, DataType::Bool);

  auto binary = [&](const std::string& label, const std::string& type,
                    std::function<void(Actor&)> cfg = nullptr,
                    DataType out = DataType::F64) {
    add(label, [=](Tiny& t) {
      t.inport("In1", 1);
      t.inport("In2", 2);
      Actor& a = t.actor("Op", type);
      a.setDtype(out);
      if (cfg) cfg(a);
      t.outport("Out1", 1);
      t.wire("In1", "Op", 1);
      t.wire("In2", "Op", 2);
      t.wire("Op", "Out1");
    });
  };
  binary("SumF64", "Sum", [](Actor& a) { a.params().set("ops", "+-"); });
  binary("SumI8", "Sum",
         [](Actor& a) {
           a.params().set("ops", "++");
           a.setDtype(DataType::I8);
         },
         DataType::I8);
  binary("ProductDiv", "Product",
         [](Actor& a) { a.params().set("ops", "*/"); });
  binary("ProductI32Div", "Product",
         [](Actor& a) {
           a.params().set("ops", "*/");
           a.setDtype(DataType::I32);
         },
         DataType::I32);
  binary("MathPow", "Math", [](Actor& a) { a.params().set("op", "pow"); });
  binary("MathMod", "Math", [](Actor& a) { a.params().set("op", "mod"); });
  binary("MathRem", "Math", [](Actor& a) { a.params().set("op", "rem"); });
  binary("MathHypot", "Math", [](Actor& a) { a.params().set("op", "hypot"); });
  binary("Atan2", "Trigonometry",
         [](Actor& a) { a.params().set("op", "atan2"); });
  binary("MinMaxMin", "MinMax", [](Actor& a) {
    a.params().set("op", "min");
    a.params().setInt("inputs", 2);
  });
  binary("RelLt", "RelationalOperator",
         [](Actor& a) { a.params().set("op", "<"); }, DataType::Bool);
  binary("RelEq", "RelationalOperator",
         [](Actor& a) { a.params().set("op", "=="); }, DataType::Bool);
  binary("Lookup2D", "Lookup2D", [](Actor& a) {
    a.params().set("x", "0,0.5,1");
    a.params().set("y", "0,1");
    a.params().set("z", "0,1,2,3,4,5");
  });

  // Logic over thresholded inputs.
  for (const char* lop : {"AND", "OR", "NAND", "NOR", "XOR", "NXOR"}) {
    add(std::string("Logic") + lop, [lop](Tiny& t) {
      t.inport("In1", 1);
      t.inport("In2", 2);
      Actor& c1 = t.actor("C1", "CompareToConstant");
      c1.params().set("op", ">");
      c1.params().setDouble("value", 0.5);
      Actor& c2 = t.actor("C2", "CompareToConstant");
      c2.params().set("op", ">");
      c2.params().setDouble("value", 0.25);
      Actor& l = t.actor("Op", "LogicalOperator");
      l.params().set("op", lop);
      l.params().setInt("inputs", 2);
      t.outport("Out1", 1);
      t.wire("In1", "C1");
      t.wire("In2", "C2");
      t.wire("C1", "Op", 1);
      t.wire("C2", "Op", 2);
      t.wire("Op", "Out1");
    });
  }
  add("LogicNot", [](Tiny& t) {
    t.inport("In1", 1);
    Actor& c1 = t.actor("C1", "CompareToConstant");
    c1.params().set("op", ">");
    c1.params().setDouble("value", 0.5);
    Actor& l = t.actor("Op", "LogicalOperator");
    l.params().set("op", "NOT");
    t.outport("Out1", 1);
    t.wire("In1", "C1");
    t.wire("C1", "Op");
    t.wire("Op", "Out1");
  });

  // Integer bit ops on converted inputs.
  add("BitwiseXorShift", [](Tiny& t) {
    t.inport("In1", 1);
    t.inport("In2", 2);
    Actor& g1 = t.actor("G1", "Gain");
    g1.params().setDouble("gain", 1000.0);
    Actor& k1 = t.actor("K1", "DataTypeConversion");
    k1.setDtype(DataType::I32);
    Actor& g2 = t.actor("G2", "Gain");
    g2.params().setDouble("gain", 997.0);
    Actor& k2 = t.actor("K2", "DataTypeConversion");
    k2.setDtype(DataType::I32);
    Actor& bx = t.actor("Bx", "BitwiseOperator");
    bx.params().set("op", "XOR");
    bx.setDtype(DataType::I32);
    Actor& sh = t.actor("Op", "ShiftArithmetic");
    sh.params().set("direction", "left");
    sh.params().setInt("bits", 3);
    sh.setDtype(DataType::I32);
    t.outport("Out1", 1);
    t.wire("In1", "G1");
    t.wire("G1", "K1");
    t.wire("In2", "G2");
    t.wire("G2", "K2");
    t.wire("K1", "Bx", 1);
    t.wire("K2", "Bx", 2);
    t.wire("Bx", "Op");
    t.wire("Op", "Out1");
  });

  // Routing.
  add("SwitchGt0", [](Tiny& t) {
    t.inport("In1", 1);
    t.inport("In2", 2);
    Actor& b = t.actor("B", "Bias");
    b.params().setDouble("bias", -0.5);
    Actor& sw = t.actor("Op", "Switch");
    sw.params().set("criteria", ">0");
    t.outport("Out1", 1);
    t.wire("In2", "B");
    t.wire("In1", "Op", 1);
    t.wire("B", "Op", 2);
    t.wire("In2", "Op", 3);
    t.wire("Op", "Out1");
  });
  add("MultiportSwitch", [](Tiny& t) {
    t.inport("In1", 1);
    t.inport("In2", 2);
    Actor& g = t.actor("G", "Gain");
    g.params().setDouble("gain", 4.0);
    Actor& k = t.actor("K", "DataTypeConversion");
    k.setDtype(DataType::I32);
    Actor& c = t.actor("C", "Constant");
    c.params().setDouble("value", 42.0);
    Actor& mp = t.actor("Op", "MultiportSwitch");
    mp.params().setInt("cases", 2);
    t.outport("Out1", 1);
    t.wire("In1", "G");
    t.wire("G", "K");
    t.wire("K", "Op", 1);
    t.wire("In2", "Op", 2);
    t.wire("C", "Op", 3);
    t.wire("Op", "Out1");
  });
  add("MuxDemuxSelector", [](Tiny& t) {
    t.inport("In1", 1);
    t.inport("In2", 2);
    Actor& mux = t.actor("M", "Mux");
    mux.params().setInt("inputs", 2);
    mux.setWidth(2);
    Actor& sel = t.actor("Sel", "Selector");
    sel.params().set("indices", "2,1,2");
    sel.setWidth(3);
    t.actor("S", "SumOfElements");
    t.outport("Out1", 1);
    t.wire("In1", "M", 1);
    t.wire("In2", "M", 2);
    t.wire("M", "Sel");
    t.wire("Sel", "S");
    t.wire("S", "Out1");
  });
  add("IndexVector", [](Tiny& t) {
    t.inport("In1", 1);
    t.inport("In2", 2);
    Actor& g = t.actor("G", "Gain");
    g.params().setDouble("gain", 3.0);
    Actor& k = t.actor("K", "DataTypeConversion");
    k.setDtype(DataType::I32);
    Actor& mux = t.actor("M", "Mux");
    mux.params().setInt("inputs", 2);
    mux.setWidth(2);
    t.actor("Op", "IndexVector");
    t.outport("Out1", 1);
    t.wire("In1", "G");
    t.wire("G", "K");
    t.wire("In1", "M", 1);
    t.wire("In2", "M", 2);
    t.wire("K", "Op", 1);
    t.wire("M", "Op", 2);
    t.wire("Op", "Out1");
  });

  // Sources (no inputs; an Inport still drives the stimulus stream).
  auto source = [&](const std::string& label, const std::string& type,
                    std::function<void(Actor&)> cfg = nullptr,
                    DataType out = DataType::F64) {
    add(label, [=](Tiny& t) {
      t.inport("In1", 1);
      Actor& s = t.actor("Src", type);
      s.setDtype(out);
      if (cfg) cfg(s);
      Actor& sum = t.actor("Mix", "Sum");
      sum.params().set("ops", "++");
      t.outport("Out1", 1);
      t.wire("Src", "Mix", 1);
      t.wire("In1", "Mix", 2);
      t.wire("Mix", "Out1");
    });
  };
  source("Constant", "Constant",
         [](Actor& a) { a.params().setDouble("value", 2.25); });
  source("Step", "Step", [](Actor& a) {
    a.params().setDouble("stepTime", 50.0);
    a.params().setDouble("before", -1.0);
    a.params().setDouble("after", 3.0);
  });
  source("Ramp", "Ramp", [](Actor& a) {
    a.params().setDouble("start", 10.0);
    a.params().setDouble("slope", 0.125);
  });
  source("SineWave", "SineWave", [](Actor& a) {
    a.params().setDouble("amplitude", 2.0);
    a.params().setDouble("freq", 0.01);
  });
  source("Pulse", "PulseGenerator", [](Actor& a) {
    a.params().setInt("period", 7);
    a.params().setDouble("duty", 0.4);
  });
  source("Clock", "Clock");
  source("Ground", "Ground");
  source("Random", "RandomNumber", [](Actor& a) {
    a.params().setInt("seed", 99);
    a.params().setDouble("min", -2.0);
    a.params().setDouble("max", 2.0);
  });

  add("CounterMod", [](Tiny& t) {
    t.inport("In1", 1);
    Actor& c = t.actor("Cnt", "Counter");
    c.setDtype(DataType::I32);
    c.params().setInt("max", 17);
    Actor& k = t.actor("K", "DataTypeConversion");
    k.setDtype(DataType::F64);
    Actor& sum = t.actor("Mix", "Sum");
    sum.params().set("ops", "++");
    t.outport("Out1", 1);
    t.wire("Cnt", "K");
    t.wire("K", "Mix", 1);
    t.wire("In1", "Mix", 2);
    t.wire("Mix", "Out1");
  });

  // Vector-width path through an element-wise chain.
  add("VectorChain", [](Tiny& t) {
    Actor& in = t.inport("In1", 1);
    in.setWidth(4);
    Actor& g = t.actor("G", "Gain");
    g.params().setDouble("gain", 0.5);
    g.setWidth(4);
    Actor& a = t.actor("A", "Abs");
    a.setWidth(4);
    t.actor("S", "SumOfElements");
    t.outport("Out1", 1);
    t.wire("In1", "G");
    t.wire("G", "A");
    t.wire("A", "S");
    t.wire("S", "Out1");
  });

  return cases;
}

class TypeDifferential : public ::testing::TestWithParam<TypeCase> {};

TEST_P(TypeDifferential, AllInProcessEnginesAgree) {
  Tiny t("M");
  GetParam().build(t);
  TestCaseSpec tests;
  tests.seed = 1234;
  tests.defaultPort.min = -1.0;
  tests.defaultPort.max = 1.0;
  auto sse = test::runOn(t.model(), Engine::SSE, 400, tests);
  auto ac = test::runOn(t.model(), Engine::SSEac, 400, tests);
  auto rac = test::runOn(t.model(), Engine::SSErac, 400, tests);
  test::expectSameOutputs(sse, ac, GetParam().label + " ac");
  test::expectSameOutputs(sse, rac, GetParam().label + " rac");
}

INSTANTIATE_TEST_SUITE_P(
    Actors, TypeDifferential, ::testing::ValuesIn(typeCases()),
    [](const ::testing::TestParamInfo<TypeCase>& info) {
      return info.param.label;
    });

// AccMoS parity for the same micro-model set: batch several per generated
// program run by concatenating cases into one model would change semantics;
// instead sample a representative subset (compilation cost bounded).
TEST(TypeDifferentialAccMoS, RepresentativeSubsetMatches) {
  std::vector<std::string> wanted = {
      "SumI8",        "ProductI32Div", "MathMod",     "LogicXOR",
      "SwitchGt0",    "MultiportSwitch", "MuxDemuxSelector",
      "IndexVector",  "UnitDelay",     "Integrator",  "Filter",
      "Lookup1D",     "Lookup2D",      "ConvertToI16", "Relay",
      "RateLimiter",  "BitwiseXorShift", "Random",    "VectorChain",
      "CounterMod",
  };
  auto cases = typeCases();
  int tested = 0;
  for (const auto& c : cases) {
    if (std::find(wanted.begin(), wanted.end(), c.label) == wanted.end()) {
      continue;
    }
    Tiny t("M");
    c.build(t);
    TestCaseSpec tests;
    tests.seed = 77;
    tests.defaultPort.min = -1.0;
    tests.defaultPort.max = 1.0;
    auto sse = test::runOn(t.model(), Engine::SSE, 300, tests);
    auto acc = test::runOn(t.model(), Engine::AccMoS, 300, tests);
    test::expectSameOutputs(sse, acc, c.label + " AccMoS");
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(sse.coverage.of(m).covered, acc.coverage.of(m).covered)
          << c.label << " " << covMetricName(m);
    }
    ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size()) << c.label;
    for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
      EXPECT_EQ(sse.diagnostics[k].kind, acc.diagnostics[k].kind) << c.label;
      EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count) << c.label;
      EXPECT_EQ(sse.diagnostics[k].firstStep, acc.diagnostics[k].firstStep)
          << c.label;
    }
    ++tested;
  }
  EXPECT_EQ(tested, static_cast<int>(wanted.size()));
}

// Every C library function the emitter can write, compiled into one
// library and checked against SSE. Generated code includes no <cmath>, so
// a function the runtime preamble does not declare fails to compile here.
TEST(TypeDifferentialAccMoS, EveryCLibraryCallMatches) {
  struct Call {
    const char* type;
    const char* op;  // "" when the actor has no op parameter
    int inputs;
  };
  const Call calls[] = {
      {"Trigonometry", "sin", 1},  {"Trigonometry", "cos", 1},
      {"Trigonometry", "tan", 1},  {"Trigonometry", "asin", 1},
      {"Trigonometry", "acos", 1}, {"Trigonometry", "atan", 1},
      {"Trigonometry", "atan2", 2}, {"Trigonometry", "sinh", 1},
      {"Trigonometry", "cosh", 1}, {"Trigonometry", "tanh", 1},
      {"Math", "exp", 1},          {"Math", "log", 1},
      {"Math", "log10", 1},        {"Math", "sqrt", 1},
      {"Math", "pow", 2},          {"Math", "hypot", 2},
      {"Math", "mod", 2},          {"Math", "rem", 2},
      {"Rounding", "floor", 1},    {"Rounding", "ceil", 1},
      {"Rounding", "round", 1},    {"Rounding", "fix", 1},
      {"Sqrt", "", 1},             {"Abs", "", 1},
      {"Quantizer", "", 1},        {"SineWave", "", 0},
  };
  Tiny t("M");
  t.inport("In1", 1);
  t.inport("In2", 2);
  int k = 0;
  for (const Call& c : calls) {
    const std::string name = std::string("C").append(std::to_string(++k));
    const std::string out = "Out" + std::to_string(k);
    Actor& a = t.actor(name, c.type);
    if (*c.op != '\0') a.params().set("op", c.op);
    for (int p = 1; p <= c.inputs; ++p) {
      t.wire("In" + std::to_string(p), name, p);
    }
    t.outport(out, k);
    t.wire(name, out);
  }
  TestCaseSpec tests;
  tests.seed = 99;
  tests.defaultPort.min = -2.0;
  tests.defaultPort.max = 2.0;
  auto sse = test::runOn(t.model(), Engine::SSE, 300, tests);
  auto acc = test::runOn(t.model(), Engine::AccMoS, 300, tests);
  test::expectSameOutputs(sse, acc, "C library calls");
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(sse.coverage.of(m).covered, acc.coverage.of(m).covered)
        << covMetricName(m);
  }
  ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size());
  for (size_t d = 0; d < sse.diagnostics.size(); ++d) {
    EXPECT_EQ(sse.diagnostics[d].actorPath, acc.diagnostics[d].actorPath);
    EXPECT_EQ(sse.diagnostics[d].kind, acc.diagnostics[d].kind);
    EXPECT_EQ(sse.diagnostics[d].count, acc.diagnostics[d].count);
    EXPECT_EQ(sse.diagnostics[d].firstStep, acc.diagnostics[d].firstStep);
  }
}

// ---- Actor coverage marked after the step loop ------------------------------
//
// Generated code marks an actor that no enable guards once, after the step
// loop, when a step ran; an enabled subsystem's actors mark inside their
// guard in every step they run. These runs end at the loop's edges (no
// step, a stop after step 0, a time budget) or hold a subsystem disabled,
// and every bitmap must be the one SSE's per-step marks leave.

// Root: In1 (i8) -> Gain x2 (i8) -> Out1, and Halt -> StopSimulation. An
// enabled subsystem, on while En > 0.5, runs En through a UnitDelay and a
// Gain to Out2. The stimulus picks the case, so one library serves them.
Tiny gatedModel() {
  Tiny t("Gated");
  t.inport("In1", 1, DataType::I8);
  t.inport("En", 2);
  t.inport("Halt", 3);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 2.0);
  g.setDtype(DataType::I8);
  Actor& cmp = t.actor("C", "CompareToConstant");
  cmp.params().set("op", ">");
  cmp.params().setDouble("value", 0.5);
  System& inner = t.actor("S", "EnabledSubsystem").makeSubsystem();
  inner.addActor("In1", "Inport").params().setInt("port", 1);
  inner.addActor("D", "UnitDelay");
  inner.addActor("G2", "Gain").params().setDouble("gain", 3.0);
  inner.addActor("Out1", "Outport").params().setInt("port", 1);
  inner.connect("In1", 1, "D", 1);
  inner.connect("D", 1, "G2", 1);
  inner.connect("G2", 1, "Out1", 1);
  t.actor("Stop", "StopSimulation");
  t.outport("Out1", 1);
  t.outport("Out2", 2);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  t.wire("En", "C");
  t.wire("En", "S", 1);
  t.wire("C", "S", 2);
  t.wire("S", "Out2");
  t.wire("Halt", "Stop");
  return t;
}

// Cycled sequences for In1, En and Halt.
TestCaseSpec gatedStimulus(std::vector<double> en,
                           std::vector<double> in1 = {7.0},
                           std::vector<double> halt = {0.0}) {
  TestCaseSpec tests;
  tests.ports.resize(3);
  tests.ports[0].sequence = std::move(in1);
  tests.ports[1].sequence = std::move(en);
  tests.ports[2].sequence = std::move(halt);
  return tests;
}

// Runs `tests` on SSE and AccMoS, requires identical results and returns
// AccMoS's.
SimulationResult expectCoverageMatchesSse(Model& model, SimOptions opt,
                                          const TestCaseSpec& tests,
                                          const std::string& label) {
  opt.engine = Engine::SSE;
  const SimulationResult sse = simulate(model, opt, tests);
  opt.engine = Engine::AccMoS;
  SimulationResult acc = simulate(model, opt, tests);
  test::expectIdenticalResults(sse, acc, label);
  return acc;
}

// Actor coverage of `res` as (covered, total).
std::pair<int, int> actorCoverage(const SimulationResult& res) {
  const auto& m = res.coverage.of(CovMetric::Actor);
  return {m.covered, m.total};
}

TEST(ActorCoverageAfterLoop, ZeroStepsCoverNoActor) {
  Tiny t = gatedModel();
  SimOptions opt;
  opt.maxSteps = 0;
  const SimulationResult acc = expectCoverageMatchesSse(
      t.model(), opt, gatedStimulus({1.0}), "zero steps");
  EXPECT_EQ(acc.stepsExecuted, 0u);
  EXPECT_EQ(actorCoverage(acc).first, 0);
}

TEST(ActorCoverageAfterLoop, StopActorAfterStepZero) {
  Tiny t = gatedModel();
  SimOptions opt;
  opt.maxSteps = 100;
  const SimulationResult acc = expectCoverageMatchesSse(
      t.model(), opt, gatedStimulus({0.0}, {7.0}, {1.0}), "Stop at step 0");
  EXPECT_EQ(acc.stepsExecuted, 1u);
  EXPECT_TRUE(acc.stoppedEarly);
  const auto [covered, total] = actorCoverage(acc);
  EXPECT_GT(covered, 0);
  EXPECT_LT(covered, total);  // the subsystem never ran
}

TEST(ActorCoverageAfterLoop, StopOnDiagnosticAfterStepZero) {
  Tiny t = gatedModel();
  SimOptions opt;
  opt.maxSteps = 100;
  opt.stopOnDiagnostic = true;
  // 100 * 2 wraps the i8 Gain in step 0.
  const SimulationResult acc = expectCoverageMatchesSse(
      t.model(), opt, gatedStimulus({1.0}, {100.0}), "diagnostic at step 0");
  EXPECT_EQ(acc.stepsExecuted, 1u);
  EXPECT_TRUE(acc.stoppedEarly);
  EXPECT_NE(acc.findDiag("Gated_G", DiagKind::WrapOnOverflow), nullptr);
  const auto [covered, total] = actorCoverage(acc);
  EXPECT_EQ(covered, total);
}

TEST(ActorCoverageAfterLoop, NeverEnabledSubsystem) {
  Tiny t = gatedModel();
  SimOptions opt;
  opt.maxSteps = 200;
  const SimulationResult acc = expectCoverageMatchesSse(
      t.model(), opt, gatedStimulus({0.0}), "never enabled");
  const auto [covered, total] = actorCoverage(acc);
  EXPECT_GT(covered, 0);
  EXPECT_LT(covered, total);
}

TEST(ActorCoverageAfterLoop, SubsystemEnabledFromStepFive) {
  Tiny t = gatedModel();
  const TestCaseSpec tests =
      gatedStimulus({0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0});
  for (uint64_t steps : {uint64_t{5}, uint64_t{6}, uint64_t{200}}) {
    SimOptions opt;
    opt.maxSteps = steps;
    const SimulationResult acc = expectCoverageMatchesSse(
        t.model(), opt, tests, "enabled from step 5, " +
                                   std::to_string(steps) + " steps");
    const auto [covered, total] = actorCoverage(acc);
    EXPECT_EQ(covered == total, steps > 5) << steps << " steps";
  }
}

// A 1e-7 s budget is checked after step 1,023 and stops both engines there.
TEST(ActorCoverageAfterLoop, TimeBudgetCutsTheRunShort) {
  Tiny t = gatedModel();
  SimOptions opt;
  opt.maxSteps = uint64_t{1} << 40;
  opt.timeBudgetSec = 1e-7;
  const SimulationResult acc = expectCoverageMatchesSse(
      t.model(), opt, gatedStimulus({0.0}), "time budget");
  EXPECT_EQ(acc.stepsExecuted, 1024u);
  EXPECT_FALSE(acc.stoppedEarly);
}

// The subprocess rung runs the same library, so it marks the same slots.
TEST(ActorCoverageAfterLoop, SubprocessRungMatchesDlopen) {
  Tiny t = gatedModel();
  SimOptions opt;
  opt.maxSteps = 200;
  const TestCaseSpec tests =
      gatedStimulus({0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0});
  const SimulationResult dl =
      expectCoverageMatchesSse(t.model(), opt, tests, "dlopen rung");
  opt.engine = Engine::AccMoS;
  test::EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
  const SimulationResult pr = simulate(t.model(), opt, tests);
  EXPECT_EQ(dl.execMode, "dlopen");
  EXPECT_EQ(pr.execMode, "process");
  test::expectIdenticalResults(dl, pr, "subprocess rung");
}

}  // namespace
}  // namespace accmos
