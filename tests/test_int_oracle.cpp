// An oracle for the integer arithmetic family. Every expected output and
// every wrap, saturate, division and downcast diagnostic below is computed
// here with plain __int128 and this file's own narrowing, never with the
// engines' arithmetic, and each engine is held to it: SSE, SSEac, SSErac
// and the generated code. One model per integer type carries every case,
// so AccMoS compiles one library per type.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "interp/compiled.h"
#include "ir/model.h"
#include "sim/simulator.h"
#include "sim/testcase.h"

namespace accmos {
namespace {

using I128 = __int128;
using U128 = unsigned __int128;

constexpr uint64_t kSteps = 5;

struct Ty {
  DataType t;
  const char* name;
  int bits;
  bool sgn;
};

constexpr Ty kTypes[] = {
    {DataType::I8, "i8", 8, true},     {DataType::I16, "i16", 16, true},
    {DataType::I32, "i32", 32, true},  {DataType::I64, "i64", 64, true},
    {DataType::U8, "u8", 8, false},    {DataType::U16, "u16", 16, false},
    {DataType::U32, "u32", 32, false}, {DataType::U64, "u64", 64, false},
};

I128 lo(const Ty& t) { return t.sgn ? -(I128{1} << (t.bits - 1)) : 0; }
I128 hi(const Ty& t) {
  return (I128{1} << (t.sgn ? t.bits - 1 : t.bits)) - 1;
}

// Paper Fig. 4's sign condition, per signedness: a signed n-bit result is
// representable when every bit from n-1 up repeats its sign (the shift
// leaves 0 or -1); an unsigned one when it is not negative and no bit from
// n up is set.
bool fits(const Ty& t, I128 v) {
  I128 top = v >> (t.sgn ? t.bits - 1 : t.bits);
  return top == 0 || (t.sgn && top == -1);
}

// Two's-complement narrowing to n bits.
I128 narrow(const Ty& t, I128 v) {
  I128 low = static_cast<I128>(static_cast<U128>(v) &
                               ((U128{1} << t.bits) - 1));
  if (t.sgn && (low >> (t.bits - 1)) != 0) low -= I128{1} << t.bits;
  return low;
}

struct Stored {
  I128 value;
  bool flag;  // wrapped, or clamped when saturating
};

Stored store(const Ty& t, I128 exact, bool sat) {
  if (!sat) return {narrow(t, exact), !fits(t, exact)};
  I128 c = exact < lo(t) ? lo(t) : (exact > hi(t) ? hi(t) : exact);
  return {c, c != exact};
}

// A real's store: round to nearest (ties to even), then the store of that
// integer. A double of magnitude 2^127 or more, or an infinity, is beyond
// __int128 here: it clamps to the bound on its side, and it wraps to 0,
// since such a double is a multiple of 2^75 (its low 64 bits are 0).
Stored realStore(const Ty& t, double v, bool sat) {
  const double r = std::nearbyint(v);
  if (std::fabs(r) < 0x1p127) return store(t, static_cast<I128>(r), sat);
  return {sat ? (r > 0 ? hi(t) : lo(t)) : 0, true};
}

// a * b exceeds __int128 only when both are u64 values of at least 2^63;
// that product is positive and beyond every type, and wraps to its low 64
// bits.
Stored mulStore(const Ty& t, I128 a, I128 b, bool sat) {
  const I128 half = I128{1} << 63;
  if (a < half || b < half) return store(t, a * b, sat);
  if (sat) return {hi(t), true};
  U128 p = static_cast<U128>(a) * static_cast<U128>(b);
  return {narrow(t, static_cast<I128>(p & ((U128{1} << 64) - 1))), true};
}

std::string dec(I128 v) {
  if (v == 0) return "0";
  bool neg = v < 0;
  U128 u = neg ? static_cast<U128>(0) - static_cast<U128>(v)
               : static_cast<U128>(v);
  std::string s;
  for (; u != 0; u /= 10) s.insert(s.begin(), static_cast<char>('0' + u % 10));
  return neg ? "-" + s : s;
}

// The boundary operands of a type: 0, +-1, min, min+1, max-1 and max, plus
// 2^62 and 2^63 where the type holds them.
std::vector<I128> operands(const Ty& t) {
  std::vector<I128> cand = {0,          1,         -1,
                            lo(t),      lo(t) + 1, hi(t) - 1,
                            hi(t),      I128{1} << 62, I128{1} << 63};
  std::vector<I128> out;
  for (I128 v : cand) {
    bool dup = false;
    for (I128 w : out) dup = dup || w == v;
    if (!dup && v >= lo(t) && v <= hi(t)) out.push_back(v);
  }
  return out;
}

using Diag = std::tuple<DiagKind, uint64_t, uint64_t>;  // kind, first, count

// One observed actor: its expected final output and diagnostics.
struct Expect {
  std::string actor;
  std::string value;  // Value::toString() form
  std::vector<Diag> diags;
};

// Diagnostics of a fold that behaves the same at every step.
std::vector<Diag> every(bool fires, DiagKind k) {
  if (!fires) return {};
  return {Diag{k, 0, kSteps}};
}

// Builds one model of cases, each an actor wired to its own Outport.
class Cases {
 public:
  explicit Cases(const std::string& name) : model_(name) {}

  Model& model() { return model_; }
  const Model& model() const { return model_; }
  const std::vector<Expect>& expects() const { return expects_; }

  // A Constant holding `vals` exactly (shared per type and values).
  std::string constant(const Ty& t, const std::vector<I128>& vals) {
    std::string text;
    for (I128 v : vals) text += (text.empty() ? "" : ",") + dec(v);
    std::string key = std::string(t.name) + ":" + text;
    auto it = consts_.find(key);
    if (it != consts_.end()) return it->second;
    std::string name = "K" + std::to_string(consts_.size());
    Actor& a = model_.root().addActor(name, "Constant");
    a.setDtype(t.t);
    a.setWidth(static_cast<int>(vals.size()));
    a.params().set("value", text);
    consts_[key] = name;
    return name;
  }

  // An f64 Constant holding `v`.
  std::string realConstant(double v) {
    const std::string text = fmtExact(v);
    auto it = consts_.find("f64:" + text);
    if (it != consts_.end()) return it->second;
    std::string name = "K" + std::to_string(consts_.size());
    Actor& a = model_.root().addActor(name, "Constant");
    a.setDtype(DataType::F64);
    a.params().set("value", text);
    consts_["f64:" + text] = name;
    return name;
  }

  // Adds a case actor fed by `ins` and records what it must produce.
  Actor& add(const std::string& type, DataType dtype,
             const std::vector<std::string>& ins, const std::string& value,
             std::vector<Diag> diags) {
    std::string name = "A" + std::to_string(expects_.size());
    Actor& a = model_.root().addActor(name, type);
    a.setDtype(dtype);
    for (size_t p = 0; p < ins.size(); ++p) {
      model_.root().connect(ins[p], 1, name, static_cast<int>(p + 1));
    }
    std::string out = "O" + std::to_string(expects_.size());
    Actor& o = model_.root().addActor(out, "Outport");
    o.params().setInt("port", static_cast<int64_t>(expects_.size() + 1));
    model_.root().connect(name, 1, out, 1);
    expects_.push_back({name, value, std::move(diags)});
    return a;
  }

 private:
  Model model_;
  std::map<std::string, std::string> consts_;
  std::vector<Expect> expects_;
};

std::string shown(const Ty& t, I128 v) {
  return std::string(t.name) + "[" + dec(v) + "]";
}

DiagKind overflowKind(bool sat) {
  return sat ? DiagKind::SaturateOnOverflow : DiagKind::WrapOnOverflow;
}

// Reals stored into an integer type: one that rounds, the int64 bounds,
// values beyond the int64 range up to and past 2^127, and infinities.
const double kReals[] = {-2.5,
                         0x1p63,
                         -0x1p63,
                         1e19,
                         -1e19,
                         1e20,
                         0x1p64 + 0x1p12,
                         0x1p126,
                         0x1p127,
                         1e300,
                         -1e300,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};

// Every case of type t: Sum, Product, Gain, Bias, Abs, UnaryMinus,
// DotProduct, SumOfElements, ProductOfElements, DiscreteIntegrator,
// DataTypeConversion to every integer type and from f64, and the six
// relational ops.
void buildCases(Cases& c, const Ty& t) {
  const std::vector<I128> ops = operands(t);
  for (bool sat : {false, true}) {
    const DiagKind ov = overflowKind(sat);
    for (I128 a : ops) {
      for (I128 b : ops) {
        const std::string ka = c.constant(t, {a});
        const std::string kb = c.constant(t, {b});
        // Sum "++" and "+-": the first partial (0 + a) always fits.
        for (char op : {'+', '-'}) {
          Stored r = store(t, op == '+' ? a + b : a - b, sat);
          Actor& s = c.add("Sum", t.t, {ka, kb}, shown(t, r.value),
                           every(r.flag, ov));
          s.params().set("ops", std::string("+") + op);
          if (sat) s.params().set("saturate", "1");
        }
        // Product "**" and "*/", zero divisor included.
        Stored m = mulStore(t, a, b, sat);
        Actor& pm = c.add("Product", t.t, {ka, kb}, shown(t, m.value),
                          every(m.flag, ov));
        pm.params().set("ops", "**");
        if (sat) pm.params().set("saturate", "1");
        std::vector<Diag> dd;
        I128 q = 0;
        if (b == 0) {
          dd = every(true, DiagKind::DivisionByZero);
        } else {
          Stored d = store(t, a / b, sat);
          q = d.value;
          dd = every(d.flag, ov);
        }
        Actor& pd = c.add("Product", t.t, {ka, kb}, shown(t, q), dd);
        pd.params().set("ops", "*/");
        if (sat) pd.params().set("saturate", "1");
      }
      // DiscreteIntegrator: state 0, gain 1, input a every step; the
      // output at the last step is the state before its update.
      I128 st = 0;
      I128 last = 0;
      std::vector<Diag> di;
      for (uint64_t k = 0; k < kSteps; ++k) {
        last = st;
        Stored r = store(t, st + a, sat);
        if (r.flag) {
          if (di.empty()) di.push_back(Diag{ov, k, 0});
          std::get<2>(di[0]) += 1;
        }
        st = r.value;
      }
      Actor& in = c.add("DiscreteIntegrator", t.t, {c.constant(t, {a})},
                        shown(t, last), di);
      if (sat) in.params().set("saturate", "1");
      // DataTypeConversion to every integer type.
      for (const Ty& d : kTypes) {
        Stored r = store(d, a, sat);
        std::vector<Diag> cd = every(r.flag, ov);
        if (lo(d) > lo(t) || hi(d) < hi(t)) {
          cd.push_back(Diag{DiagKind::Downcast, 0, kSteps});
        }
        Actor& cv = c.add("DataTypeConversion", d.t, {c.constant(t, {a})},
                          shown(d, r.value), cd);
        if (sat) cv.params().set("saturate", "1");
      }
    }
    // DataTypeConversion from f64: a real-to-int store, always a downcast.
    for (double v : kReals) {
      Stored r = realStore(t, v, sat);
      std::vector<Diag> cd = every(r.flag, ov);
      cd.push_back(Diag{DiagKind::Downcast, 0, kSteps});
      if (std::nearbyint(v) != v) {
        cd.push_back(Diag{DiagKind::PrecisionLoss, 0, kSteps});
      }
      Actor& cv = c.add("DataTypeConversion", t.t, {c.realConstant(v)},
                        shown(t, r.value), cd);
      if (sat) cv.params().set("saturate", "1");
    }
  }
  const DiagKind wrap = DiagKind::WrapOnOverflow;
  for (I128 a : ops) {
    const std::string ka = c.constant(t, {a});
    for (int g : {-1, 3}) {
      Stored r = store(t, a * g, false);
      c.add("Gain", t.t, {ka}, shown(t, r.value), every(r.flag, wrap))
          .params()
          .setInt("gain", g);
      r = store(t, a + g, false);
      c.add("Bias", t.t, {ka}, shown(t, r.value), every(r.flag, wrap))
          .params()
          .setInt("bias", g);
    }
    Stored r = store(t, a < 0 ? -a : a, false);
    c.add("Abs", t.t, {ka}, shown(t, r.value), every(r.flag, wrap));
    r = store(t, -a, false);
    c.add("UnaryMinus", t.t, {ka}, shown(t, r.value), every(r.flag, wrap));
    for (I128 b : ops) {
      const std::string kb = c.constant(t, {b});
      const std::string vab = c.constant(t, {a, b});
      const std::string vba = c.constant(t, {b, a});
      // DotProduct [a b].[b a]: each product folds, then each partial sum.
      Stored p = mulStore(t, a, b, false);
      Stored s1 = store(t, p.value, false);
      Stored s2 = store(t, s1.value + p.value, false);
      c.add("DotProduct", t.t, {vab, vba}, shown(t, s2.value),
            every(p.flag || s2.flag, wrap));
      Stored se = store(t, a + b, false);
      c.add("SumOfElements", t.t, {vab}, shown(t, se.value),
            every(se.flag, wrap));
      Stored pe = mulStore(t, a, b, false);
      c.add("ProductOfElements", t.t, {vab}, shown(t, pe.value),
            every(pe.flag, wrap));
    }
  }
  // The six relational ops, each on every operand pair at once: element k
  // of the two vectors is one pair.
  std::vector<I128> lhs, rhs;
  for (I128 a : ops) {
    for (I128 b : ops) {
      lhs.push_back(a);
      rhs.push_back(b);
    }
  }
  const std::string kl = c.constant(t, lhs);
  const std::string kr = c.constant(t, rhs);
  for (const char* op : {"==", "!=", "<", "<=", ">", ">="}) {
    const std::string o = op;
    std::string want = "bool[";
    for (size_t k = 0; k < lhs.size(); ++k) {
      const I128 a = lhs[k], b = rhs[k];
      bool holds = o == "==" ? a == b
                   : o == "!=" ? a != b
                   : o == "<"  ? a < b
                   : o == "<=" ? a <= b
                   : o == ">"  ? a > b
                               : a >= b;
      want += std::string(k > 0 ? " " : "") + (holds ? "1" : "0");
    }
    Actor& r = c.add("RelationalOperator", DataType::Bool, {kl, kr},
                     want + "]", {});
    r.setWidth(static_cast<int>(lhs.size()));
    r.params().set("op", op);
  }
}

SimOptions options(Engine e) {
  SimOptions o;
  o.engine = e;
  o.maxSteps = kSteps;
  if (e == Engine::SSEac || e == Engine::SSErac) {
    o.coverage = false;
    o.diagnosis = false;
  }
  return o;
}

std::string caseName(const std::string& path) {
  return path.substr(path.rfind('_') + 1);
}

void expectOutputs(const Cases& c, const SimulationResult& r,
                   const std::string& label) {
  ASSERT_EQ(r.finalOutputs.size(), c.expects().size()) << label;
  for (size_t k = 0; k < c.expects().size(); ++k) {
    const Expect& e = c.expects()[k];
    const Actor* a = c.model().root().findActor(e.actor);
    EXPECT_EQ(r.finalOutputs[k].toString(), e.value)
        << label << " " << a->type() << " " << e.actor << " ops="
        << a->params().getString("ops") << " op="
        << a->params().getString("op") << " sat="
        << a->params().getString("saturate");
  }
}

// The wrap, saturate, division and downcast records, per case actor.
void expectDiagnostics(const Cases& c, const SimulationResult& r,
                       const std::string& label) {
  std::map<std::string, std::vector<Diag>> got;
  for (const DiagRecord& d : r.diagnostics) {
    got[caseName(d.actorPath)].push_back(
        Diag{d.kind, d.firstStep, d.count});
  }
  for (const Expect& e : c.expects()) {
    std::vector<Diag> want = e.diags;
    std::vector<Diag> have = got[e.actor];
    std::sort(want.begin(), want.end());
    std::sort(have.begin(), have.end());
    const Actor* a = c.model().root().findActor(e.actor);
    EXPECT_EQ(have, want) << label << " " << a->type() << " " << e.actor
                          << " ops=" << a->params().getString("ops")
                          << " sat=" << a->params().getString("saturate");
  }
}

class IntOracle : public ::testing::TestWithParam<Ty> {};

TEST_P(IntOracle, EveryEngineMatchesTheOracle) {
  const Ty t = GetParam();
  Cases c(std::string("Oracle_") + t.name);
  buildCases(c, t);
  Simulator sim(c.model());
  // SSE and AccMoS run optimized; diagnosis keeps every case actor. The
  // fast modes run the flattened model as given, so the optimizer's folding
  // (SSE semantics) cannot stand in for their kernels.
  const SimulationResult sse = sim.run(options(Engine::SSE), TestCaseSpec{});
  // A library of about a thousand actors takes GCC 10-30 s at -O3 and a
  // fifth of that at -O0. The oracle checks semantics, which the
  // optimization level must not change; every differential suite runs the
  // same core at -O3.
  SimOptions accOpt = options(Engine::AccMoS);
  accOpt.optFlag = "-O0";
  const SimulationResult acc = sim.run(accOpt, TestCaseSpec{});
  const SimulationResult ac =
      runAccelerator(sim.flatModel(), options(Engine::SSEac), TestCaseSpec{});
  const SimulationResult rac = runRapidAccelerator(
      sim.flatModel(), options(Engine::SSErac), TestCaseSpec{});
  expectOutputs(c, sse, "SSE");
  expectOutputs(c, ac, "SSEac");
  expectOutputs(c, rac, "SSErac");
  expectOutputs(c, acc, "AccMoS");
  expectDiagnostics(c, sse, "SSE");
  expectDiagnostics(c, acc, "AccMoS");
}

INSTANTIATE_TEST_SUITE_P(AllIntegerTypes, IntOracle,
                         ::testing::ValuesIn(kTypes),
                         [](const ::testing::TestParamInfo<Ty>& info) {
                           return std::string(info.param.name);
                         });

// ---- the five probes of 64-bit drift, as named cases ------------------

struct Probe {
  SimulationResult sse, rac, acc;
};

Probe runProbe(const Model& m) {
  Simulator sim(m);
  return {sim.run(options(Engine::SSE), TestCaseSpec{}),
          sim.run(options(Engine::SSErac), TestCaseSpec{}),
          sim.run(options(Engine::AccMoS), TestCaseSpec{})};
}

std::vector<Diag> diagsOf(const SimulationResult& r, const std::string& name) {
  std::vector<Diag> out;
  for (const DiagRecord& d : r.diagnostics) {
    if (caseName(d.actorPath) == name) {
      out.push_back(Diag{d.kind, d.firstStep, d.count});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// u64 2^63 = (2^63-1) + 1, the operand of P2, P3 and P5.
Cases twoToThe63(const std::string& name) {
  Cases c(name);
  const Ty u64 = kTypes[7];
  const std::string big = c.constant(u64, {(I128{1} << 63) - 1});
  const std::string one = c.constant(u64, {1});
  c.add("Sum", DataType::U64, {big, one}, "u64[9223372036854775808]", {})
      .params()
      .set("ops", "++");
  return c;
}

TEST(IntOracleProbes, P1_U64IntegratorWrapsAtStep3) {
  // 2^62 accumulates: 3 * 2^62 + 2^62 = 2^64 is step 3's update.
  Cases c("P1");
  c.add("DiscreteIntegrator", DataType::U64,
        {c.constant(kTypes[7], {I128{1} << 62})}, "u64[0]", {});
  Probe p = runProbe(c.model());
  const std::vector<Diag> want = {Diag{DiagKind::WrapOnOverflow, 3, 1}};
  EXPECT_EQ(diagsOf(p.sse, "A0"), want);
  EXPECT_EQ(diagsOf(p.acc, "A0"), want);
  for (const SimulationResult* r : {&p.sse, &p.rac, &p.acc}) {
    EXPECT_EQ(r->finalOutputs[0].toString(), "u64[0]");
  }
}

TEST(IntOracleProbes, P2_U64AboveTwoTo63DoesNotFalselyWrap) {
  Cases c = twoToThe63("P2");
  Actor& s2 = c.add("Sum", DataType::U64, {"A0", "K1"},
                    "u64[9223372036854775809]", {});
  s2.params().set("ops", "++");
  c.add("Gain", DataType::U64, {"A0"}, "u64[9223372036854775808]", {})
      .params()
      .setInt("gain", 1);
  Probe p = runProbe(c.model());
  for (const SimulationResult* r : {&p.sse, &p.rac, &p.acc}) {
    EXPECT_EQ(r->finalOutputs[1].toString(), "u64[9223372036854775809]");
    EXPECT_EQ(r->finalOutputs[2].toString(), "u64[9223372036854775808]");
  }
  EXPECT_TRUE(p.sse.diagnostics.empty());
  EXPECT_TRUE(p.acc.diagnostics.empty());
}

TEST(IntOracleProbes, P3_ConversionOfTwoTo63) {
  Cases c = twoToThe63("P3");
  c.add("DataTypeConversion", DataType::U64, {"A0"},
        "u64[9223372036854775808]", {});
  c.add("DataTypeConversion", DataType::I64, {"A0"},
        "i64[-9223372036854775808]", {});
  Probe p = runProbe(c.model());
  const std::vector<Diag> toI64 = {Diag{DiagKind::WrapOnOverflow, 0, kSteps},
                                   Diag{DiagKind::Downcast, 0, kSteps}};
  for (const SimulationResult* r : {&p.sse, &p.acc}) {
    EXPECT_TRUE(diagsOf(*r, "A1").empty());
    EXPECT_EQ(diagsOf(*r, "A2"), toI64);
  }
  for (const SimulationResult* r : {&p.sse, &p.rac, &p.acc}) {
    EXPECT_EQ(r->finalOutputs[1].toString(), "u64[9223372036854775808]");
    EXPECT_EQ(r->finalOutputs[2].toString(), "i64[-9223372036854775808]");
  }
}

TEST(IntOracleProbes, P4_BoolStoreOfTwoTo64IsOne) {
  // i64 2^32 times a gain of 2^32 is exactly 2^64: nonzero, so true.
  Cases c("P4");
  c.add("Gain", DataType::Bool, {c.constant(kTypes[3], {I128{1} << 32})},
        "bool[1]", {})
      .params()
      .setInt("gain", int64_t{1} << 32);
  Probe p = runProbe(c.model());
  for (const SimulationResult* r : {&p.sse, &p.rac, &p.acc}) {
    EXPECT_EQ(r->finalOutputs[0].toString(), "bool[1]");
  }
}

TEST(IntOracleProbes, P5_CompareTwoTo63WithOne) {
  Cases c = twoToThe63("P5");
  c.add("RelationalOperator", DataType::Bool, {"A0", "K1"}, "bool[1]", {})
      .params()
      .set("op", ">");
  c.add("RelationalOperator", DataType::Bool, {"A0", "K1"}, "bool[0]", {})
      .params()
      .set("op", "<");
  Probe p = runProbe(c.model());
  for (const SimulationResult* r : {&p.sse, &p.rac, &p.acc}) {
    EXPECT_EQ(r->finalOutputs[1].toString(), "bool[1]");
    EXPECT_EQ(r->finalOutputs[2].toString(), "bool[0]");
  }
}

// Reals beyond the int64 range: 1e19 fits u64 and stores exactly; a
// saturating store of 1e300 into i64 clamps and says so.
TEST(IntOracleProbes, P6_RealStoresBeyondTheInt64Range) {
  Cases c("P6");
  const std::string big = c.realConstant(1e19);
  const std::string huge = c.realConstant(1e300);
  c.add("DataTypeConversion", DataType::U64, {big},
        "u64[10000000000000000000]", {});
  c.add("DataTypeConversion", DataType::I64, {huge},
        "i64[9223372036854775807]", {})
      .params()
      .set("saturate", "1");
  Probe p = runProbe(c.model());
  const std::vector<Diag> downcast = {Diag{DiagKind::Downcast, 0, kSteps}};
  const std::vector<Diag> clamped = {
      Diag{DiagKind::SaturateOnOverflow, 0, kSteps},
      Diag{DiagKind::Downcast, 0, kSteps}};
  for (const SimulationResult* r : {&p.sse, &p.acc}) {
    EXPECT_EQ(diagsOf(*r, "A0"), downcast);
    EXPECT_EQ(diagsOf(*r, "A1"), clamped);
  }
  for (const SimulationResult* r : {&p.sse, &p.rac, &p.acc}) {
    EXPECT_EQ(r->finalOutputs[0].toString(), "u64[10000000000000000000]");
    EXPECT_EQ(r->finalOutputs[1].toString(), "i64[9223372036854775807]");
  }
}

// ---- exact integer Constant values ----------------------------------

std::string constantOut(const char* dtype, const char* value, Engine e) {
  Model m("C");
  Actor& k = m.root().addActor("K", "Constant");
  k.params().set("dtype", dtype);
  k.params().set("value", value);
  Actor& o = m.root().addActor("O", "Outport");
  o.params().setInt("port", 1);
  m.root().connect("K", 1, "O", 1);
  return simulate(m, options(e), TestCaseSpec{}).finalOutputs[0].toString();
}

TEST(ExactConstant, SixtyFourBitLiteralsAreExact) {
  for (Engine e : {Engine::SSE, Engine::SSErac, Engine::AccMoS}) {
    EXPECT_EQ(constantOut("u64", "9223372036854775808", e),
              "u64[9223372036854775808]");
    EXPECT_EQ(constantOut("i64", "9007199254740993", e),
              "i64[9007199254740993]");
    EXPECT_EQ(constantOut("u64", "18446744073709551615", e),
              "u64[18446744073709551615]");
    EXPECT_EQ(constantOut("i64", "-9223372036854775808", e),
              "i64[-9223372036854775808]");
  }
}

TEST(ExactConstant, OutOfRangeLiteralsAreModelErrors) {
  for (const auto& [dtype, value] :
       {std::pair<const char*, const char*>{"i8", "128"}, {"u8", "-1"},
        {"u64", "18446744073709551616"}, {"i64", "-9223372036854775809"},
        {"u8", "1,256"}}) {
    try {
      constantOut(dtype, value, Engine::SSE);
      ADD_FAILURE() << dtype << " " << value << " was accepted";
    } catch (const ModelError& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("'K'"), std::string::npos) << what;
      EXPECT_NE(what.find("value"), std::string::npos) << what;
    }
  }
}

TEST(ExactConstant, OtherTokensKeepTheRealStore) {
  // Not decimal integer literals: rounded (2.5 -> 2, to even) and stored
  // like the integer they round to, so 1e20 wraps to its low 64 bits.
  EXPECT_EQ(constantOut("i32", "2.5", Engine::SSE), "i32[2]");
  EXPECT_EQ(constantOut("i32", " 7 ", Engine::SSE), "i32[7]");
  const Ty i64 = kTypes[3];
  const std::string wrapped = shown(i64, realStore(i64, 1e20, false).value);
  EXPECT_EQ(constantOut("i64", "1e+20", Engine::SSE), wrapped);
  EXPECT_EQ(constantOut("i64", "1e+20", Engine::AccMoS), wrapped);
}

}  // namespace
}  // namespace accmos
