// Calculation actors: Sum, Product, Gain, Bias, Abs, Sign, UnaryMinus,
// Sqrt, Math, Trigonometry, MinMax, Rounding, Polynomial, DotProduct,
// SumOfElements, ProductOfElements.
//
// Integer semantics: Simulink accumulates in the output type, so every
// partial operation wraps (and flags) at the output width — that fold is
// exactly what the paper's wrap-on-overflow diagnosis observes.
#include <cmath>

#include "actors/common.h"

namespace accmos {
namespace {

// Folds one partial integer result into the output type, accumulating the
// wrap (or saturate) flag (shared by Sum/Product/DotProduct/...).
int64_t foldInt(DataType t, Int128 acc, ArithFlags& fl, bool sat = false) {
  if (sat) {
    IntResult r = satStore(t, acc);
    fl.sat = fl.sat || r.wrapped;
    return r.value;
  }
  IntResult r = wrapStore(t, acc);
  fl.wrap = fl.wrap || r.wrapped;
  return r.value;
}

// Emits the generated-code equivalent: acc = wrap(expr), flag |= wrapped
// (or the saturating store when the actor uses saturate-on-overflow).
std::string foldIntStmt(EmitContext& ctx, const std::string& accVar,
                        const std::string& expr, const EmitFlags& flags,
                        bool sat) {
  DataType t = ctx.outType();
  std::string fn = sat ? "accmos_sat_" : "accmos_store_";
  const std::string& flagVar = sat ? flags.sat : flags.wrap;
  std::string s = "{ accmos_wrapres _w = " + fn +
                  std::string(dataTypeName(t)) + "((__int128)" + expr + "); " +
                  accVar + " = _w.value;";
  if (!flagVar.empty()) s += " " + flagVar + " |= _w.wrapped;";
  return s + " }";
}

// ---------------------------------------------------------------------------

class SumSpec : public ActorSpec {
 public:
  std::string type() const override { return "Sum"; }

  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {static_cast<int>(parseOps(a, "++", "+-").size()), 1};
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    return arithDiags(fm, fa);
  }

  void eval(EvalContext& ctx) const override {
    auto ops = parseOps(*ctx.fa().src, "++", "+-");
    Value& out = ctx.out();
    ArithFlags fl;
    if (out.isFloat()) {
      for (int i = 0; i < out.width(); ++i) {
        double acc = 0.0;
        for (size_t p = 0; p < ops.size(); ++p) {
          double v = inD(ctx, static_cast<int>(p), i);
          acc = ops[p] == '+' ? acc + v : acc - v;
        }
        storeReal(ctx, 0, i, acc, fl);
      }
    } else {
      DataType t = out.type();
      bool sat = saturating(ctx.fa());
      for (int i = 0; i < out.width(); ++i) {
        int64_t acc = 0;
        for (size_t p = 0; p < ops.size(); ++p) {
          Int128 wide = static_cast<Int128>(acc);
          int64_t v = inI(ctx, static_cast<int>(p), i);
          wide = ops[p] == '+' ? wide + v : wide - v;
          acc = foldInt(t, wide, fl, sat);
        }
        out.setI(i, acc);
      }
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    auto ops = parseOps(*ctx.fa().src, "++", "+-");
    EmitFlags flags = declareArithFlags(ctx);
    bool real = isFloatType(ctx.outType());
    beginElemLoop(ctx, ctx.outWidth());
    if (real) {
      std::string expr = "0.0";
      for (size_t p = 0; p < ops.size(); ++p) {
        expr += std::string(" ") + ops[p] + " " +
                ctx.inElem(static_cast<int>(p), "i", DataType::F64);
      }
      ctx.line(nanCheckStmt(flags, expr).empty()
                   ? ctx.storeOutStmt("i", expr, flags.wrap, flags.prec)
                   : "{ double _s = " + expr + "; " +
                         nanCheckStmt(flags, "_s") + " " +
                         ctx.storeOutStmt("i", "_s", flags.wrap, flags.prec) +
                         " }");
    } else {
      std::string acc = ctx.sink().freshVar("acc");
      bool sat = saturating(ctx.fa());
      ctx.line("int64_t " + acc + " = 0;");
      for (size_t p = 0; p < ops.size(); ++p) {
        std::string term = ctx.inElem(static_cast<int>(p), "i", DataType::I64);
        ctx.line(foldIntStmt(ctx, acc,
                             acc + (ops[p] == '+' ? " + " : " - ") + term,
                             flags, sat));
      }
      ctx.line(ctx.out() + "[i] = (" + std::string(dataTypeCpp(ctx.outType())) +
               ")" + acc + ";");
    }
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }
};

class ProductSpec : public ActorSpec {
 public:
  std::string type() const override { return "Product"; }

  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {static_cast<int>(parseOps(a, "**", "*/").size()), 1};
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    auto kinds = arithDiags(fm, fa);
    auto ops = parseOps(*fa.src, "**", "*/");
    for (char c : ops) {
      if (c == '/') {
        kinds.push_back(DiagKind::DivisionByZero);
        break;
      }
    }
    return kinds;
  }

  void eval(EvalContext& ctx) const override {
    auto ops = parseOps(*ctx.fa().src, "**", "*/");
    Value& out = ctx.out();
    ArithFlags fl;
    bool divZero = false;
    if (out.isFloat()) {
      for (int i = 0; i < out.width(); ++i) {
        double acc = 1.0;
        for (size_t p = 0; p < ops.size(); ++p) {
          double v = inD(ctx, static_cast<int>(p), i);
          if (ops[p] == '/') {
            if (v == 0.0) divZero = true;
            acc /= v;
          } else {
            acc *= v;
          }
        }
        storeReal(ctx, 0, i, acc, fl);
      }
    } else {
      DataType t = out.type();
      bool sat = saturating(ctx.fa());
      for (int i = 0; i < out.width(); ++i) {
        int64_t acc = 1;
        for (size_t p = 0; p < ops.size(); ++p) {
          int64_t v = inI(ctx, static_cast<int>(p), i);
          if (ops[p] == '/') {
            if (v == 0) {
              divZero = true;
              acc = 0;
            } else {
              acc = foldInt(t, static_cast<Int128>(acc) / v, fl, sat);
            }
          } else {
            acc = foldInt(t, static_cast<Int128>(acc) * v, fl, sat);
          }
        }
        out.setI(i, acc);
      }
    }
    if (divZero) ctx.reportDiag(DiagKind::DivisionByZero);
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    auto ops = parseOps(*ctx.fa().src, "**", "*/");
    EmitFlags flags = declareArithFlags(ctx);
    std::string dz;
    if (ctx.sink().diagOn(DiagKind::DivisionByZero)) {
      dz = ctx.sink().freshVar("dz");
      ctx.line("int " + dz + " = 0;");
    }
    bool real = isFloatType(ctx.outType());
    beginElemLoop(ctx, ctx.outWidth());
    if (real) {
      std::string acc = ctx.sink().freshVar("acc");
      ctx.line("double " + acc + " = 1.0;");
      for (size_t p = 0; p < ops.size(); ++p) {
        std::string term = ctx.inElem(static_cast<int>(p), "i", DataType::F64);
        if (ops[p] == '/') {
          if (!dz.empty()) {
            ctx.line("if ((" + term + ") == 0.0) " + dz + " = 1;");
          }
          ctx.line(acc + " /= " + term + ";");
        } else {
          ctx.line(acc + " *= " + term + ";");
        }
      }
      if (!flags.nan.empty()) ctx.line(nanCheckStmt(flags, acc));
      ctx.line(ctx.storeOutStmt("i", acc, flags.wrap, flags.prec));
    } else {
      std::string acc = ctx.sink().freshVar("acc");
      bool sat = saturating(ctx.fa());
      ctx.line("int64_t " + acc + " = 1;");
      for (size_t p = 0; p < ops.size(); ++p) {
        std::string term = ctx.inElem(static_cast<int>(p), "i", DataType::I64);
        if (ops[p] == '/') {
          std::string den = ctx.sink().freshVar("den");
          ctx.line("int64_t " + den + " = " + term + ";");
          std::string body = foldIntStmt(
              ctx, acc, acc + " / " + den, flags, sat);
          ctx.line("if (" + den + " == 0) { " + acc + " = 0;" +
                   (dz.empty() ? "" : " " + dz + " = 1;") + " } else " + body);
        } else {
          ctx.line(foldIntStmt(ctx, acc, acc + " * (__int128)" + term, flags,
                               sat));
        }
      }
      ctx.line(ctx.out() + "[i] = (" + std::string(dataTypeCpp(ctx.outType())) +
               ")" + acc + ";");
    }
    endElemLoop(ctx);
    auto call = flags.asDiagCall();
    if (!dz.empty()) call.emplace_back(DiagKind::DivisionByZero, dz);
    if (ctx.sink().diagOn(DiagKind::Downcast)) {
      call.emplace_back(DiagKind::Downcast, "1");
    }
    ctx.sink().diagCall(call);
  }
};

// Element-wise single-input actor helper.
class UnaryBase : public ActorSpec {
 public:
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }
  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    return arithDiags(fm, fa);
  }
};

class GainSpec : public UnaryBase {
 public:
  std::string type() const override { return "Gain"; }

  void eval(EvalContext& ctx) const override {
    double g = ctx.fa().src->params().getDouble("gain", 1.0);
    Value& out = ctx.out();
    ArithFlags fl;
    if (out.isFloat()) {
      for (int i = 0; i < out.width(); ++i) {
        storeReal(ctx, 0, i, inD(ctx, 0, i) * g, fl);
      }
    } else {
      int64_t gi = f2i(g);
      for (int i = 0; i < out.width(); ++i) {
        out.setI(i, foldInt(out.type(),
                            static_cast<Int128>(inI(ctx, 0, i)) * gi, fl));
      }
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    double g = ctx.fa().src->params().getDouble("gain", 1.0);
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    if (isFloatType(ctx.outType())) {
      std::string expr = ctx.inElem(0, "i", DataType::F64) + " * " + fmtD(g);
      if (!flags.nan.empty()) {
        ctx.line("{ double _s = " + expr + "; " + nanCheckStmt(flags, "_s") +
                 " " + ctx.storeOutStmt("i", "_s", flags.wrap, flags.prec) +
                 " }");
      } else {
        ctx.line(ctx.storeOutStmt("i", expr, flags.wrap, flags.prec));
      }
    } else {
      ctx.line(ctx.storeOutStmt("i",
                                "(__int128)" + ctx.inElem(0, "i", DataType::I64) +
                                    " * " + fmtI(f2i(g)),
                                flags.wrap, flags.prec));
    }
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }
};

class BiasSpec : public UnaryBase {
 public:
  std::string type() const override { return "Bias"; }

  void eval(EvalContext& ctx) const override {
    double b = ctx.fa().src->params().getDouble("bias", 0.0);
    Value& out = ctx.out();
    ArithFlags fl;
    if (out.isFloat()) {
      for (int i = 0; i < out.width(); ++i) {
        storeReal(ctx, 0, i, inD(ctx, 0, i) + b, fl);
      }
    } else {
      int64_t bi = f2i(b);
      for (int i = 0; i < out.width(); ++i) {
        out.setI(i, foldInt(out.type(),
                            static_cast<Int128>(inI(ctx, 0, i)) + bi, fl));
      }
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    double b = ctx.fa().src->params().getDouble("bias", 0.0);
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    if (isFloatType(ctx.outType())) {
      ctx.line(ctx.storeOutStmt(
          "i", ctx.inElem(0, "i", DataType::F64) + " + " + fmtD(b), flags.wrap,
          flags.prec));
    } else {
      ctx.line(ctx.storeOutStmt("i",
                                "(__int128)" + ctx.inElem(0, "i", DataType::I64) +
                                    " + " + fmtI(f2i(b)),
                                flags.wrap, flags.prec));
    }
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }
};

class AbsSpec : public UnaryBase {
 public:
  std::string type() const override { return "Abs"; }

  // Simulink gives Abs decision coverage: negative vs non-negative input.
  int decisionOutcomes(const Actor&) const override { return 2; }

  void eval(EvalContext& ctx) const override {
    Value& out = ctx.out();
    ArithFlags fl;
    if (out.isFloat()) {
      for (int i = 0; i < out.width(); ++i) {
        double v = inD(ctx, 0, i);
        ctx.decision(v < 0.0 ? 0 : 1);
        storeReal(ctx, 0, i, std::fabs(v), fl);
      }
    } else {
      for (int i = 0; i < out.width(); ++i) {
        int64_t v = inI(ctx, 0, i);
        ctx.decision(v < 0 ? 0 : 1);
        Int128 wide = static_cast<Int128>(v);
        out.setI(i, foldInt(out.type(), wide < 0 ? -wide : wide, fl));
      }
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    if (isFloatType(ctx.outType())) {
      std::string v = ctx.sink().freshVar("v");
      ctx.line("double " + v + " = " + ctx.inElem(0, "i", DataType::F64) + ";");
      ctx.line(ctx.sink().covDecisionStmt(v + " < 0.0 ? 0 : 1"));
      ctx.line(ctx.storeOutStmt("i", "fabs(" + v + ")", flags.wrap,
                                flags.prec));
    } else {
      std::string v = ctx.sink().freshVar("v");
      ctx.line("int64_t " + v + " = " + ctx.inElem(0, "i", DataType::I64) + ";");
      ctx.line(ctx.sink().covDecisionStmt(v + " < 0 ? 0 : 1"));
      ctx.line(ctx.storeOutStmt(
          "i", "(" + v + " < 0 ? -(__int128)" + v + " : (__int128)" + v + ")",
          flags.wrap, flags.prec));
    }
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }
};

class SignSpec : public UnaryBase {
 public:
  std::string type() const override { return "Sign"; }

  int decisionOutcomes(const Actor&) const override { return 3; }

  void eval(EvalContext& ctx) const override {
    Value& out = ctx.out();
    ArithFlags fl;
    for (int i = 0; i < out.width(); ++i) {
      double v = inD(ctx, 0, i);
      int outcome = v < 0.0 ? 0 : (v == 0.0 ? 1 : 2);
      ctx.decision(outcome);
      storeReal(ctx, 0, i, v < 0.0 ? -1.0 : (v == 0.0 ? 0.0 : 1.0), fl);
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    std::string v = ctx.sink().freshVar("v");
    ctx.line("double " + v + " = " + ctx.inElem(0, "i", DataType::F64) + ";");
    ctx.line(ctx.sink().covDecisionStmt(v + " < 0.0 ? 0 : (" + v +
                                        " == 0.0 ? 1 : 2)"));
    ctx.line(ctx.storeOutStmt(
        "i", "(" + v + " < 0.0 ? -1.0 : (" + v + " == 0.0 ? 0.0 : 1.0))",
        flags.wrap, flags.prec));
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }
};

class UnaryMinusSpec : public UnaryBase {
 public:
  std::string type() const override { return "UnaryMinus"; }

  void eval(EvalContext& ctx) const override {
    Value& out = ctx.out();
    ArithFlags fl;
    if (out.isFloat()) {
      for (int i = 0; i < out.width(); ++i) {
        storeReal(ctx, 0, i, -inD(ctx, 0, i), fl);
      }
    } else {
      for (int i = 0; i < out.width(); ++i) {
        out.setI(i, foldInt(out.type(),
                            -static_cast<Int128>(inI(ctx, 0, i)), fl));
      }
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    if (isFloatType(ctx.outType())) {
      ctx.line(ctx.storeOutStmt("i", "-" + ctx.inElem(0, "i", DataType::F64),
                                flags.wrap, flags.prec));
    } else {
      ctx.line(ctx.storeOutStmt(
          "i", "-(__int128)" + ctx.inElem(0, "i", DataType::I64), flags.wrap,
          flags.prec));
    }
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }
};

class SqrtSpec : public UnaryBase {
 public:
  std::string type() const override { return "Sqrt"; }

  void eval(EvalContext& ctx) const override {
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) {
      storeReal(ctx, 0, i, std::sqrt(inD(ctx, 0, i)), fl);
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    std::string expr = "sqrt(" + ctx.inElem(0, "i", DataType::F64) + ")";
    if (!flags.nan.empty()) {
      ctx.line("{ double _s = " + expr + "; " + nanCheckStmt(flags, "_s") +
               " " + ctx.storeOutStmt("i", "_s", flags.wrap, flags.prec) +
               " }");
    } else {
      ctx.line(ctx.storeOutStmt("i", expr, flags.wrap, flags.prec));
    }
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    auto kinds = arithDiags(fm, fa);
    if (!realDomain(fm, fa)) kinds.push_back(DiagKind::NanInf);
    return kinds;
  }
};

// The generic one/two-input elementary function actor ("the code generated
// for a Math actor varies depending on the operator it takes, e.g. exp or
// log" — paper §3.3). Always computes in the real domain.
class MathSpec : public ActorSpec {
 public:
  std::string type() const override { return "Math"; }

  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {isBinary(op(a)) ? 2 : 1, 1};
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    auto kinds = arithDiags(fm, fa);
    if (!realDomain(fm, fa)) kinds.push_back(DiagKind::NanInf);
    std::string o = op(*fa.src);
    if (o == "reciprocal" || o == "mod" || o == "rem") {
      kinds.push_back(DiagKind::DivisionByZero);
    }
    return kinds;
  }

  void eval(EvalContext& ctx) const override {
    std::string o = op(*ctx.fa().src);
    ArithFlags fl;
    bool divZero = false;
    for (int i = 0; i < ctx.out().width(); ++i) {
      double a = inD(ctx, 0, i);
      double b = isBinary(o) ? inD(ctx, 1, i) : 0.0;
      double r = apply(o, a, b, divZero);
      storeReal(ctx, 0, i, r, fl);
    }
    if (divZero) ctx.reportDiag(DiagKind::DivisionByZero);
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    std::string o = op(*ctx.fa().src);
    EmitFlags flags = declareArithFlags(ctx);
    std::string dz;
    if (ctx.sink().diagOn(DiagKind::DivisionByZero)) {
      dz = ctx.sink().freshVar("dz");
      ctx.line("int " + dz + " = 0;");
    }
    beginElemLoop(ctx, ctx.outWidth());
    std::string a = ctx.inElem(0, "i", DataType::F64);
    std::string b = isBinary(o) ? ctx.inElem(1, "i", DataType::F64) : "0.0";
    std::string expr;
    if (o == "exp") expr = "exp(" + a + ")";
    else if (o == "log") expr = "log(" + a + ")";
    else if (o == "log10") expr = "log10(" + a + ")";
    else if (o == "sqrt") expr = "sqrt(" + a + ")";
    else if (o == "square") expr = "(" + a + ") * (" + a + ")";
    else if (o == "pow") expr = "pow(" + a + ", " + b + ")";
    else if (o == "hypot") expr = "hypot(" + a + ", " + b + ")";
    else if (o == "reciprocal") expr = "1.0 / (" + a + ")";
    else if (o == "mod") expr = "accmos_fmod_floor(" + a + ", " + b + ")";
    else if (o == "rem") expr = "fmod(" + a + ", " + b + ")";
    else expr = a;
    if (!dz.empty() && (o == "reciprocal" || o == "mod" || o == "rem")) {
      std::string den = o == "reciprocal" ? a : b;
      ctx.line("if ((" + den + ") == 0.0) " + dz + " = 1;");
    }
    ctx.line("{ double _s = " + expr + "; " +
             (flags.nan.empty() ? "" : nanCheckStmt(flags, "_s") + " ") +
             ctx.storeOutStmt("i", "_s", flags.wrap, flags.prec) + " }");
    endElemLoop(ctx);
    auto call = flags.asDiagCall();
    if (!dz.empty()) call.emplace_back(DiagKind::DivisionByZero, dz);
    if (ctx.sink().diagOn(DiagKind::Downcast)) {
      call.emplace_back(DiagKind::Downcast, "1");
    }
    ctx.sink().diagCall(call);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    static const char* kOps[] = {"exp",  "log",        "log10", "sqrt",
                                 "square", "pow",      "hypot", "reciprocal",
                                 "mod",  "rem"};
    std::string o = op(*fa.src);
    for (const char* k : kOps) {
      if (o == k) return;
    }
    throw ModelError("actor '" + fa.path + "': unknown Math op '" + o + "'");
  }

 private:
  static std::string op(const Actor& a) {
    return a.params().getString("op", "exp");
  }
  static bool isBinary(const std::string& o) {
    return o == "pow" || o == "mod" || o == "rem" || o == "hypot";
  }
  static double apply(const std::string& o, double a, double b,
                      bool& divZero) {
    if (o == "exp") return std::exp(a);
    if (o == "log") return std::log(a);
    if (o == "log10") return std::log10(a);
    if (o == "sqrt") return std::sqrt(a);
    if (o == "square") return a * a;
    if (o == "pow") return std::pow(a, b);
    if (o == "hypot") return std::hypot(a, b);
    if (o == "reciprocal") {
      if (a == 0.0) divZero = true;
      return 1.0 / a;
    }
    if (o == "mod") {
      if (b == 0.0) divZero = true;
      double m = std::fmod(a, b);
      if (m != 0.0 && ((m < 0.0) != (b < 0.0))) m += b;
      return m;
    }
    if (o == "rem") {
      if (b == 0.0) divZero = true;
      return std::fmod(a, b);
    }
    return a;
  }
};

class TrigonometrySpec : public ActorSpec {
 public:
  std::string type() const override { return "Trigonometry"; }

  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {op(a) == "atan2" ? 2 : 1, 1};
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    auto kinds = arithDiags(fm, fa);
    if (!realDomain(fm, fa)) kinds.push_back(DiagKind::NanInf);
    return kinds;
  }

  void eval(EvalContext& ctx) const override {
    std::string o = op(*ctx.fa().src);
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) {
      double a = inD(ctx, 0, i);
      double b = o == "atan2" ? inD(ctx, 1, i) : 0.0;
      storeReal(ctx, 0, i, apply(o, a, b), fl);
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    std::string o = op(*ctx.fa().src);
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    std::string a = ctx.inElem(0, "i", DataType::F64);
    std::string expr;
    if (o == "atan2") {
      expr = "atan2(" + a + ", " + ctx.inElem(1, "i", DataType::F64) + ")";
    } else {
      expr = o + "(" + a + ")";
    }
    ctx.line("{ double _s = " + expr + "; " +
             (flags.nan.empty() ? "" : nanCheckStmt(flags, "_s") + " ") +
             ctx.storeOutStmt("i", "_s", flags.wrap, flags.prec) + " }");
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    static const char* kOps[] = {"sin",  "cos",  "tan",  "asin", "acos",
                                 "atan", "atan2", "sinh", "cosh", "tanh"};
    std::string o = op(*fa.src);
    for (const char* k : kOps) {
      if (o == k) return;
    }
    throw ModelError("actor '" + fa.path + "': unknown Trigonometry op '" + o +
                     "'");
  }

 private:
  static std::string op(const Actor& a) {
    return a.params().getString("op", "sin");
  }
  static double apply(const std::string& o, double a, double b) {
    if (o == "sin") return std::sin(a);
    if (o == "cos") return std::cos(a);
    if (o == "tan") return std::tan(a);
    if (o == "asin") return std::asin(a);
    if (o == "acos") return std::acos(a);
    if (o == "atan") return std::atan(a);
    if (o == "atan2") return std::atan2(a, b);
    if (o == "sinh") return std::sinh(a);
    if (o == "cosh") return std::cosh(a);
    return std::tanh(a);
  }
};

class MinMaxSpec : public ActorSpec {
 public:
  std::string type() const override { return "MinMax"; }

  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {a.intParam("inputs", 2, 0, kMaxDimParam), 1};
  }

  // Decision coverage: which input wins (first index on ties).
  int decisionOutcomes(const Actor& a) const override {
    return a.intParam("inputs", 2, 0, kMaxDimParam);
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    return arithDiags(fm, fa);
  }

  void eval(EvalContext& ctx) const override {
    bool isMin = ctx.fa().src->params().getString("op", "max") == "min";
    int n = ctx.numInputs();
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) {
      double best = inD(ctx, 0, i);
      int arg = 0;
      for (int p = 1; p < n; ++p) {
        double v = inD(ctx, p, i);
        if (isMin ? v < best : v > best) {
          best = v;
          arg = p;
        }
      }
      ctx.decision(arg);
      storeReal(ctx, 0, i, best, fl);
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    bool isMin = ctx.fa().src->params().getString("op", "max") == "min";
    int n = ctx.numInputs();
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    std::string best = ctx.sink().freshVar("best");
    std::string arg = ctx.sink().freshVar("arg");
    ctx.line("double " + best + " = " + ctx.inElem(0, "i", DataType::F64) +
             "; int " + arg + " = 0;");
    for (int p = 1; p < n; ++p) {
      std::string v = ctx.inElem(p, "i", DataType::F64);
      ctx.line("if (" + v + (isMin ? " < " : " > ") + best + ") { " + best +
               " = " + v + "; " + arg + " = " + std::to_string(p) + "; }");
    }
    ctx.line(ctx.sink().covDecisionStmt(arg));
    ctx.line(ctx.storeOutStmt("i", best, flags.wrap, flags.prec));
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }
};

class RoundingSpec : public UnaryBase {
 public:
  std::string type() const override { return "Rounding"; }

  void eval(EvalContext& ctx) const override {
    std::string o = ctx.fa().src->params().getString("op", "round");
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) {
      double v = inD(ctx, 0, i);
      double r;
      if (o == "floor") r = std::floor(v);
      else if (o == "ceil") r = std::ceil(v);
      else if (o == "fix") r = std::trunc(v);
      else r = std::nearbyint(v);
      storeReal(ctx, 0, i, r, fl);
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    std::string o = ctx.fa().src->params().getString("op", "round");
    std::string fn = o == "floor" ? "floor"
                     : o == "ceil" ? "ceil"
                     : o == "fix" ? "trunc"
                                  : "nearbyint";
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.storeOutStmt(
        "i", fn + "(" + ctx.inElem(0, "i", DataType::F64) + ")", flags.wrap,
        flags.prec));
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }
};

class PolynomialSpec : public UnaryBase {
 public:
  std::string type() const override { return "Polynomial"; }

  void eval(EvalContext& ctx) const override {
    auto coeffs = ctx.fa().src->params().getDoubleList("coeffs");
    if (coeffs.empty()) coeffs.push_back(0.0);
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) {
      double x = inD(ctx, 0, i);
      double acc = coeffs[0];
      for (size_t k = 1; k < coeffs.size(); ++k) acc = acc * x + coeffs[k];
      storeReal(ctx, 0, i, acc, fl);
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    auto coeffs = ctx.fa().src->params().getDoubleList("coeffs");
    if (coeffs.empty()) coeffs.push_back(0.0);
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    std::string x = ctx.sink().freshVar("x");
    std::string acc = ctx.sink().freshVar("acc");
    ctx.line("double " + x + " = " + ctx.inElem(0, "i", DataType::F64) + ";");
    ctx.line("double " + acc + " = " + fmtD(coeffs[0]) + ";");
    for (size_t k = 1; k < coeffs.size(); ++k) {
      ctx.line(acc + " = " + acc + " * " + x + " + " + fmtD(coeffs[k]) + ";");
    }
    if (!flags.nan.empty()) ctx.line(nanCheckStmt(flags, acc));
    ctx.line(ctx.storeOutStmt("i", acc, flags.wrap, flags.prec));
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }
};

// Reduction actors: vector input -> scalar output.
class ReductionBase : public ActorSpec {
 public:
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {numIn(), 1};
  }
  int outputWidth(const Actor&, int) const override { return 1; }
  void validate(const FlatModel&, const FlatActor&) const override {
    // Any input width is fine.
  }
  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    return arithDiags(fm, fa);
  }

 protected:
  virtual int numIn() const { return 1; }
};

class SumOfElementsSpec : public ReductionBase {
 public:
  std::string type() const override { return "SumOfElements"; }

  void eval(EvalContext& ctx) const override {
    const Value& v = ctx.in(0);
    Value& out = ctx.out();
    ArithFlags fl;
    if (out.isFloat()) {
      double acc = 0.0;
      for (int i = 0; i < v.width(); ++i) acc += v.asDouble(i);
      storeReal(ctx, 0, 0, acc, fl);
    } else {
      int64_t acc = 0;
      for (int i = 0; i < v.width(); ++i) {
        acc = foldInt(out.type(), static_cast<Int128>(acc) + v.asInt(i), fl);
      }
      out.setI(0, acc);
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    EmitFlags flags = declareArithFlags(ctx);
    std::string acc = ctx.sink().freshVar("acc");
    if (isFloatType(ctx.outType())) {
      ctx.line("double " + acc + " = 0.0;");
      beginElemLoop(ctx, ctx.inWidth(0));
      ctx.line(acc + " += " + ctx.inElem(0, "i", DataType::F64) + ";");
      endElemLoop(ctx);
      if (!flags.nan.empty()) ctx.line(nanCheckStmt(flags, acc));
      ctx.line(ctx.storeOutStmt("0", acc, flags.wrap, flags.prec));
    } else {
      ctx.line("int64_t " + acc + " = 0;");
      beginElemLoop(ctx, ctx.inWidth(0));
      ctx.line(foldIntStmt(ctx, acc,
                           acc + " + " + ctx.inElem(0, "i", DataType::I64),
                           flags, false));
      endElemLoop(ctx);
      ctx.line(ctx.out() + "[0] = (" + std::string(dataTypeCpp(ctx.outType())) +
               ")" + acc + ";");
    }
    finishEmit(ctx, flags);
  }
};

class ProductOfElementsSpec : public ReductionBase {
 public:
  std::string type() const override { return "ProductOfElements"; }

  void eval(EvalContext& ctx) const override {
    const Value& v = ctx.in(0);
    Value& out = ctx.out();
    ArithFlags fl;
    if (out.isFloat()) {
      double acc = 1.0;
      for (int i = 0; i < v.width(); ++i) acc *= v.asDouble(i);
      storeReal(ctx, 0, 0, acc, fl);
    } else {
      int64_t acc = 1;
      for (int i = 0; i < v.width(); ++i) {
        acc = foldInt(out.type(), static_cast<Int128>(acc) * v.asInt(i), fl);
      }
      out.setI(0, acc);
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    EmitFlags flags = declareArithFlags(ctx);
    std::string acc = ctx.sink().freshVar("acc");
    if (isFloatType(ctx.outType())) {
      ctx.line("double " + acc + " = 1.0;");
      beginElemLoop(ctx, ctx.inWidth(0));
      ctx.line(acc + " *= " + ctx.inElem(0, "i", DataType::F64) + ";");
      endElemLoop(ctx);
      if (!flags.nan.empty()) ctx.line(nanCheckStmt(flags, acc));
      ctx.line(ctx.storeOutStmt("0", acc, flags.wrap, flags.prec));
    } else {
      ctx.line("int64_t " + acc + " = 1;");
      beginElemLoop(ctx, ctx.inWidth(0));
      ctx.line(foldIntStmt(ctx, acc,
                           acc + " * (__int128)" +
                               ctx.inElem(0, "i", DataType::I64),
                           flags, false));
      endElemLoop(ctx);
      ctx.line(ctx.out() + "[0] = (" + std::string(dataTypeCpp(ctx.outType())) +
               ")" + acc + ";");
    }
    finishEmit(ctx, flags);
  }
};

class DotProductSpec : public ReductionBase {
 public:
  std::string type() const override { return "DotProduct"; }

  void eval(EvalContext& ctx) const override {
    const Value& a = ctx.in(0);
    Value& out = ctx.out();
    ArithFlags fl;
    int w = a.width();
    if (out.isFloat()) {
      double acc = 0.0;
      for (int i = 0; i < w; ++i) acc += inD(ctx, 0, i) * inD(ctx, 1, i);
      storeReal(ctx, 0, 0, acc, fl);
    } else {
      int64_t acc = 0;
      DataType t = out.type();
      for (int i = 0; i < w; ++i) {
        int64_t prod = foldInt(
            t, static_cast<Int128>(inI(ctx, 0, i)) * inI(ctx, 1, i), fl);
        acc = foldInt(t, static_cast<Int128>(acc) + prod, fl);
      }
      out.setI(0, acc);
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    EmitFlags flags = declareArithFlags(ctx);
    std::string acc = ctx.sink().freshVar("acc");
    if (isFloatType(ctx.outType())) {
      ctx.line("double " + acc + " = 0.0;");
      beginElemLoop(ctx, ctx.inWidth(0));
      ctx.line(acc + " += " + ctx.inElem(0, "i", DataType::F64) + " * " +
               ctx.inElem(1, "i", DataType::F64) + ";");
      endElemLoop(ctx);
      if (!flags.nan.empty()) ctx.line(nanCheckStmt(flags, acc));
      ctx.line(ctx.storeOutStmt("0", acc, flags.wrap, flags.prec));
    } else {
      std::string prod = ctx.sink().freshVar("prod");
      ctx.line("int64_t " + acc + " = 0;");
      beginElemLoop(ctx, ctx.inWidth(0));
      ctx.line("int64_t " + prod + " = 0;");
      ctx.line(foldIntStmt(ctx, prod,
                           "(__int128)" + ctx.inElem(0, "i", DataType::I64) +
                               " * " + ctx.inElem(1, "i", DataType::I64),
                           flags, false));
      ctx.line(foldIntStmt(ctx, acc, acc + " + " + prod, flags, false));
      endElemLoop(ctx);
      ctx.line(ctx.out() + "[0] = (" + std::string(dataTypeCpp(ctx.outType())) +
               ")" + acc + ";");
    }
    finishEmit(ctx, flags);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    if (fm.signal(fa.inputs[0]).width != fm.signal(fa.inputs[1]).width) {
      throw ModelError("actor '" + fa.path +
                       "': DotProduct inputs must have equal width");
    }
  }

 protected:
  int numIn() const override { return 2; }
};

}  // namespace

void registerMathActors(std::vector<std::unique_ptr<ActorSpec>>& out) {
  out.push_back(std::make_unique<SumSpec>());
  out.push_back(std::make_unique<ProductSpec>());
  out.push_back(std::make_unique<GainSpec>());
  out.push_back(std::make_unique<BiasSpec>());
  out.push_back(std::make_unique<AbsSpec>());
  out.push_back(std::make_unique<SignSpec>());
  out.push_back(std::make_unique<UnaryMinusSpec>());
  out.push_back(std::make_unique<SqrtSpec>());
  out.push_back(std::make_unique<MathSpec>());
  out.push_back(std::make_unique<TrigonometrySpec>());
  out.push_back(std::make_unique<MinMaxSpec>());
  out.push_back(std::make_unique<RoundingSpec>());
  out.push_back(std::make_unique<PolynomialSpec>());
  out.push_back(std::make_unique<SumOfElementsSpec>());
  out.push_back(std::make_unique<ProductOfElementsSpec>());
  out.push_back(std::make_unique<DotProductSpec>());
}

}  // namespace accmos
