// Boolean and bit-level actors: RelationalOperator, LogicalOperator,
// CompareToConstant, CompareToZero, BitwiseOperator, ShiftArithmetic.
//
// LogicalOperator is the model's "combination condition" (Algorithm 1): it
// carries condition coverage (every input seen true and false), decision
// coverage (output outcomes) and masking MC/DC (an input shown to
// independently determine the output).
#include "actors/common.h"

namespace accmos {
namespace {

const char* kRelOps[] = {"==", "!=", "<", "<=", ">", ">="};

class RelationalOperatorSpec : public ActorSpec {
 public:
  std::string type() const override { return "RelationalOperator"; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {2, 1};
  }
  DataType outputType(const Actor&, int) const override {
    return DataType::Bool;
  }
  int decisionOutcomes(const Actor&) const override { return 2; }

  void eval(EvalContext& ctx) const override {
    std::string o = ctx.fa().src->params().getString("op", "<");
    bool real = ctx.in(0).isFloat() || ctx.in(1).isFloat();
    Value& out = ctx.out();
    for (int i = 0; i < out.width(); ++i) {
      bool r;
      if (real) {
        r = apply(o, inD(ctx, 0, i), inD(ctx, 1, i));
      } else {
        r = apply(o, inI(ctx, 0, i), inI(ctx, 1, i));
      }
      ctx.decision(r ? 0 : 1);
      out.setI(i, r ? 1 : 0);
    }
  }

  void emit(EmitContext& ctx) const override {
    std::string o = ctx.fa().src->params().getString("op", "<");
    bool real = isFloatType(ctx.inType(0)) || isFloatType(ctx.inType(1));
    DataType domain = real ? DataType::F64 : DataType::I64;
    beginElemLoop(ctx, ctx.outWidth());
    std::string r = ctx.sink().freshVar("r");
    ctx.line("int " + r + " = (" + ctx.inElem(0, "i", domain) + " " +
             cppOp(o) + " " + ctx.inElem(1, "i", domain) + ");");
    ctx.line(ctx.sink().covDecisionStmt(r + " ? 0 : 1"));
    ctx.line(ctx.out() + "[i] = (bool)" + r + ";");
    endElemLoop(ctx);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    checkOp(fa, fa.src->params().getString("op", "<"));
  }

  static void checkOp(const FlatActor& fa, const std::string& o) {
    for (const char* k : kRelOps) {
      if (o == k || (o == "~=" && std::string(k) == "!=")) return;
    }
    throw ModelError("actor '" + fa.path + "': unknown relational op '" + o +
                     "'");
  }

  static std::string cppOp(const std::string& o) {
    return o == "~=" ? "!=" : o;
  }

  template <typename T>
  static bool apply(const std::string& o, T a, T b) {
    if (o == "==") return a == b;
    if (o == "!=" || o == "~=") return a != b;
    if (o == "<") return a < b;
    if (o == "<=") return a <= b;
    if (o == ">") return a > b;
    return a >= b;
  }
};

class CompareBase : public ActorSpec {
 public:
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }
  DataType outputType(const Actor&, int) const override {
    return DataType::Bool;
  }
  int decisionOutcomes(const Actor&) const override { return 2; }

  void eval(EvalContext& ctx) const override {
    std::string o = ctx.fa().src->params().getString("op", ">");
    double c = constant(*ctx.fa().src);
    Value& out = ctx.out();
    for (int i = 0; i < out.width(); ++i) {
      bool r = RelationalOperatorSpec::apply(o, inD(ctx, 0, i), c);
      ctx.decision(r ? 0 : 1);
      out.setI(i, r ? 1 : 0);
    }
  }

  void emit(EmitContext& ctx) const override {
    std::string o = ctx.fa().src->params().getString("op", ">");
    beginElemLoop(ctx, ctx.outWidth());
    std::string r = ctx.sink().freshVar("r");
    ctx.line("int " + r + " = (" + ctx.inElem(0, "i", DataType::F64) + " " +
             RelationalOperatorSpec::cppOp(o) + " " +
             fmtD(constant(*ctx.fa().src)) + ");");
    ctx.line(ctx.sink().covDecisionStmt(r + " ? 0 : 1"));
    ctx.line(ctx.out() + "[i] = (bool)" + r + ";");
    endElemLoop(ctx);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    RelationalOperatorSpec::checkOp(fa,
                                    fa.src->params().getString("op", ">"));
  }

 protected:
  virtual double constant(const Actor& a) const = 0;
};

class CompareToConstantSpec : public CompareBase {
 public:
  std::string type() const override { return "CompareToConstant"; }

 protected:
  double constant(const Actor& a) const override {
    return a.params().getDouble("value", 0.0);
  }
};

class CompareToZeroSpec : public CompareBase {
 public:
  std::string type() const override { return "CompareToZero"; }

 protected:
  double constant(const Actor&) const override { return 0.0; }
};

class LogicalOperatorSpec : public ActorSpec {
 public:
  std::string type() const override { return "LogicalOperator"; }

  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {numInputs(a), 1};
  }
  DataType outputType(const Actor&, int) const override {
    return DataType::Bool;
  }

  int decisionOutcomes(const Actor&) const override { return 2; }
  int numConditions(const Actor& a) const override { return numInputs(a); }
  bool isCombinationCondition(const Actor& a) const override {
    return numInputs(a) >= 2;
  }

  void eval(EvalContext& ctx) const override {
    std::string o = op(*ctx.fa().src);
    int n = ctx.numInputs();
    Value& out = ctx.out();
    bool vals[16];
    for (int i = 0; i < out.width(); ++i) {
      for (int p = 0; p < n; ++p) vals[p] = inB(ctx, p, i);
      bool r = combine(o, vals, n);
      for (int p = 0; p < n; ++p) ctx.condition(p, vals[p]);
      ctx.decision(r ? 0 : 1);
      markMcdc(ctx, o, vals, n);
      out.setI(i, r ? 1 : 0);
    }
  }

  void emit(EmitContext& ctx) const override {
    std::string o = op(*ctx.fa().src);
    int n = ctx.numInputs();
    beginElemLoop(ctx, ctx.outWidth());
    std::vector<std::string> b(static_cast<size_t>(n));
    for (int p = 0; p < n; ++p) {
      b[static_cast<size_t>(p)] = ctx.sink().freshVar("b");
      ctx.line("int " + b[static_cast<size_t>(p)] + " = (" +
               ctx.in(p) + "[" + (ctx.inWidth(p) == 1 ? "0" : "i") +
               "] != 0);");
    }
    std::string r = ctx.sink().freshVar("r");
    ctx.line("int " + r + " = " + combineExpr(o, b) + ";");
    for (int p = 0; p < n; ++p) {
      ctx.line(ctx.sink().covConditionStmt(p, b[static_cast<size_t>(p)]));
    }
    ctx.line(ctx.sink().covDecisionStmt(r + " ? 0 : 1"));
    emitMcdc(ctx, o, b);
    ctx.line(ctx.out() + "[i] = (bool)" + r + ";");
    endElemLoop(ctx);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    std::string o = op(*fa.src);
    static const char* kOps[] = {"AND", "OR", "NAND", "NOR",
                                 "XOR", "NXOR", "NOT"};
    bool ok = false;
    for (const char* k : kOps) ok = ok || o == k;
    if (!ok) {
      throw ModelError("actor '" + fa.path + "': unknown logical op '" + o +
                       "'");
    }
    int n = numInputs(*fa.src);
    if (n < 1 || n > 16) {
      throw ModelError("actor '" + fa.path +
                       "': LogicalOperator supports 1..16 inputs");
    }
    if (o == "NOT" && n != 1) {
      throw ModelError("actor '" + fa.path + "': NOT takes exactly 1 input");
    }
  }

 private:
  static std::string op(const Actor& a) {
    return a.params().getString("op", "AND");
  }
  static int numInputs(const Actor& a) {
    if (op(a) == "NOT") return 1;
    return a.intParam("inputs", 2, 0, kMaxDimParam);
  }

  static bool combine(const std::string& o, const bool* vals, int n) {
    if (o == "NOT") return !vals[0];
    if (o == "AND" || o == "NAND") {
      bool r = true;
      for (int p = 0; p < n; ++p) r = r && vals[p];
      return o == "AND" ? r : !r;
    }
    if (o == "OR" || o == "NOR") {
      bool r = false;
      for (int p = 0; p < n; ++p) r = r || vals[p];
      return o == "OR" ? r : !r;
    }
    // XOR / NXOR: parity.
    bool r = false;
    for (int p = 0; p < n; ++p) r = r != vals[p];
    return o == "XOR" ? r : !r;
  }

  // Masking MC/DC: for AND-family, input p is independent when all other
  // inputs are true; for OR-family, when all others are false; for parity
  // and NOT every evaluation demonstrates independence.
  static void markMcdc(EvalContext& ctx, const std::string& o,
                       const bool* vals, int n) {
    for (int p = 0; p < n; ++p) {
      bool independent;
      if (o == "AND" || o == "NAND") {
        independent = true;
        for (int q = 0; q < n; ++q) {
          if (q != p) independent = independent && vals[q];
        }
      } else if (o == "OR" || o == "NOR") {
        independent = true;
        for (int q = 0; q < n; ++q) {
          if (q != p) independent = independent && !vals[q];
        }
      } else {
        independent = true;
      }
      if (independent) ctx.mcdc(p, vals[p]);
    }
  }

  static std::string combineExpr(const std::string& o,
                                 const std::vector<std::string>& b) {
    if (o == "NOT") return "!" + b[0];
    std::string joiner = (o == "AND" || o == "NAND") ? " && "
                         : (o == "OR" || o == "NOR") ? " || "
                                                     : " ^ ";
    std::string expr = b[0];
    for (size_t p = 1; p < b.size(); ++p) expr += joiner + b[p];
    expr = "(" + expr + ")";
    if (o == "NAND" || o == "NOR" || o == "NXOR") expr = "!" + expr;
    return expr;
  }

  void emitMcdc(EmitContext& ctx, const std::string& o,
                const std::vector<std::string>& b) const {
    int n = static_cast<int>(b.size());
    for (int p = 0; p < n; ++p) {
      std::string stmt =
          ctx.sink().covMcdcStmt(p, b[static_cast<size_t>(p)]);
      if (stmt.empty()) continue;
      if (o == "XOR" || o == "NXOR" || o == "NOT" || n == 1) {
        ctx.line(stmt);
        continue;
      }
      std::string guard;
      for (int q = 0; q < n; ++q) {
        if (q == p) continue;
        std::string term = (o == "OR" || o == "NOR")
                               ? "!" + b[static_cast<size_t>(q)]
                               : b[static_cast<size_t>(q)];
        guard += (guard.empty() ? "" : " && ") + term;
      }
      ctx.line("if (" + guard + ") { " + stmt + " }");
    }
  }
};

class BitwiseOperatorSpec : public ActorSpec {
 public:
  std::string type() const override { return "BitwiseOperator"; }

  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {numInputs(a), 1};
  }

  void eval(EvalContext& ctx) const override {
    std::string o = op(*ctx.fa().src);
    int n = ctx.numInputs();
    Value& out = ctx.out();
    for (int i = 0; i < out.width(); ++i) {
      uint64_t acc = static_cast<uint64_t>(inI(ctx, 0, i));
      if (o == "NOT") {
        acc = ~acc;
      } else {
        for (int p = 1; p < n; ++p) {
          uint64_t v = static_cast<uint64_t>(inI(ctx, p, i));
          if (o == "AND") acc &= v;
          else if (o == "OR") acc |= v;
          else acc ^= v;
        }
      }
      // Mask to the output width without flagging: bit patterns, not
      // arithmetic values.
      out.setI(i, wrapStore(out.type(), static_cast<Int128>(
                                            static_cast<int64_t>(acc)))
                      .value);
    }
  }

  void emit(EmitContext& ctx) const override {
    std::string o = op(*ctx.fa().src);
    int n = ctx.numInputs();
    beginElemLoop(ctx, ctx.outWidth());
    std::string acc = ctx.sink().freshVar("acc");
    ctx.line("uint64_t " + acc + " = (uint64_t)" +
             ctx.inElem(0, "i", DataType::I64) + ";");
    if (o == "NOT") {
      ctx.line(acc + " = ~" + acc + ";");
    } else {
      std::string cop = o == "AND" ? "&=" : (o == "OR" ? "|=" : "^=");
      for (int p = 1; p < n; ++p) {
        ctx.line(acc + " " + cop + " (uint64_t)" +
                 ctx.inElem(p, "i", DataType::I64) + ";");
      }
    }
    ctx.line(ctx.storeOutStmt("i", "(__int128)(int64_t)" + acc, "", ""));
    endElemLoop(ctx);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    DataType t = fm.signal(fa.outputs[0]).type;
    if (isFloatType(t)) {
      throw ModelError("actor '" + fa.path +
                       "': BitwiseOperator needs an integer output type");
    }
    std::string o = op(*fa.src);
    if (o != "AND" && o != "OR" && o != "XOR" && o != "NOT") {
      throw ModelError("actor '" + fa.path + "': unknown bitwise op '" + o +
                       "'");
    }
  }

 private:
  static std::string op(const Actor& a) {
    return a.params().getString("op", "AND");
  }
  static int numInputs(const Actor& a) {
    if (op(a) == "NOT") return 1;
    return a.intParam("inputs", 2, 0, kMaxDimParam);
  }
};

class ShiftArithmeticSpec : public ActorSpec {
 public:
  std::string type() const override { return "ShiftArithmetic"; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }

  std::vector<DiagKind> diagnostics(const FlatModel&,
                                    const FlatActor& fa) const override {
    if (fa.src->params().getString("direction", "left") == "left") {
      return {DiagKind::WrapOnOverflow};
    }
    return {};
  }

  void eval(EvalContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    int bits = a.intParam("bits", 1, 0, 63);
    bool left = a.params().getString("direction", "left") == "left";
    Value& out = ctx.out();
    ArithFlags fl;
    for (int i = 0; i < out.width(); ++i) {
      int64_t v = inI(ctx, 0, i);
      if (left) {
        IntResult r = wrapStore(out.type(), static_cast<Int128>(v) << bits);
        fl.wrap = fl.wrap || r.wrapped;
        out.setI(i, r.value);
      } else {
        out.setI(i, v >> bits);
      }
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    int bits = a.intParam("bits", 1, 0, 63);
    bool left = a.params().getString("direction", "left") == "left";
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    if (left) {
      ctx.line(ctx.storeOutStmt("i",
                                "(__int128)" + ctx.inElem(0, "i", DataType::I64) +
                                    " << " + std::to_string(bits),
                                flags.wrap, flags.prec));
    } else {
      ctx.line(ctx.storeOutStmt("i",
                                "(__int128)(" + ctx.inElem(0, "i", DataType::I64) +
                                    " >> " + std::to_string(bits) + ")",
                                flags.wrap, flags.prec));
    }
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    DataType t = fm.signal(fa.outputs[0]).type;
    if (isFloatType(t)) {
      throw ModelError("actor '" + fa.path +
                       "': ShiftArithmetic needs an integer output type");
    }
    int64_t bits = fa.src->params().getInt("bits", 1);
    if (bits < 0 || bits > 63) {
      throw ModelError("actor '" + fa.path + "': shift bits must be in 0..63");
    }
  }
};

}  // namespace

void registerLogicActors(std::vector<std::unique_ptr<ActorSpec>>& out) {
  out.push_back(std::make_unique<RelationalOperatorSpec>());
  out.push_back(std::make_unique<CompareToConstantSpec>());
  out.push_back(std::make_unique<CompareToZeroSpec>());
  out.push_back(std::make_unique<LogicalOperatorSpec>());
  out.push_back(std::make_unique<BitwiseOperatorSpec>());
  out.push_back(std::make_unique<ShiftArithmeticSpec>());
}

}  // namespace accmos
