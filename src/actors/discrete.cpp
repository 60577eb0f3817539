// Discrete (stateful) actors: UnitDelay, Delay, Memory, TappedDelay,
// DiscreteIntegrator, DiscreteDerivative, DiscreteFilter, ZeroOrderHold,
// and the data-store family (DataStoreMemory/Read/Write — the paper's case
// study models the CSEV `quantity` accumulator with one).
//
// Delay-class actors output from state only and latch inputs in the update
// phase; they break feedback cycles.
#include "actors/common.h"

namespace accmos {
namespace {

std::vector<double> initList(const Actor& a, int width) {
  std::vector<double> init = a.params().getDoubleList("initial");
  if (init.empty()) init.push_back(a.params().getDouble("initial", 0.0));
  init.resize(static_cast<size_t>(width), init.back());
  return init;
}

void checkInMatchesOut(const FlatModel& fm, const FlatActor& fa) {
  DataType inT = fm.signal(fa.inputs[0]).type;
  DataType outT = fm.signal(fa.outputs[0]).type;
  if (inT != outT) {
    throw ModelError("actor '" + fa.path + "': input type " +
                     std::string(dataTypeName(inT)) +
                     " must match output type " +
                     std::string(dataTypeName(outT)));
  }
}

// ---------------------------------------------------------------------------

class UnitDelayBase : public ActorSpec {
 public:
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }
  bool isDelayClass(const Actor&) const override { return true; }

  std::optional<StateSpec> state(const FlatModel& fm,
                                 const FlatActor& fa) const override {
    StateSpec s;
    s.type = fm.signal(fa.outputs[0]).type;
    s.width = fm.signal(fa.outputs[0]).width;
    s.initial = initList(*fa.src, s.width);
    return s;
  }

  void eval(EvalContext& ctx) const override {
    Value& out = ctx.out();
    const Value& st = ctx.state();
    for (int i = 0; i < out.width(); ++i) {
      if (out.isFloat()) {
        out.setF(i, st.f(i));
      } else {
        out.setI(i, st.i(i));
      }
    }
  }

  void update(EvalContext& ctx) const override {
    const Value& in = ctx.in(0);
    Value& st = ctx.state();
    for (int i = 0; i < st.width(); ++i) {
      int src = in.width() == 1 ? 0 : i;
      if (st.isFloat()) {
        st.setF(i, in.f(src));
      } else {
        st.setI(i, in.i(src));
      }
    }
  }

  void emit(EmitContext& ctx) const override {
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.out() + "[i] = " + ctx.state() + "[i];");
    endElemLoop(ctx);
    std::string src = ctx.inWidth(0) == 1 ? "[0]" : "[i]";
    ctx.sink().updateLine("for (int i = 0; i < " +
                          std::to_string(ctx.outWidth()) + "; ++i) " +
                          ctx.state() + "[i] = " + ctx.in(0) + src + ";");
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    checkInMatchesOut(fm, fa);
  }
};

class UnitDelaySpec : public UnitDelayBase {
 public:
  std::string type() const override { return "UnitDelay"; }
};

class MemorySpec : public UnitDelayBase {
 public:
  std::string type() const override { return "Memory"; }
};

// N-step delay implemented as a shifting line (length * width state).
class DelaySpec : public ActorSpec {
 public:
  std::string type() const override { return "Delay"; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }
  bool isDelayClass(const Actor&) const override { return true; }

  std::optional<StateSpec> state(const FlatModel& fm,
                                 const FlatActor& fa) const override {
    int w = fm.signal(fa.outputs[0]).width;
    int n = length(*fa.src);
    StateSpec s;
    s.type = fm.signal(fa.outputs[0]).type;
    s.width = w * n;
    auto one = initList(*fa.src, w);
    for (int k = 0; k < n; ++k) {
      s.initial.insert(s.initial.end(), one.begin(), one.end());
    }
    return s;
  }

  void eval(EvalContext& ctx) const override {
    // Oldest slot [0, w) is the delayed output.
    Value& out = ctx.out();
    const Value& st = ctx.state();
    for (int i = 0; i < out.width(); ++i) {
      if (out.isFloat()) {
        out.setF(i, st.f(i));
      } else {
        out.setI(i, st.i(i));
      }
    }
  }

  void update(EvalContext& ctx) const override {
    int w = ctx.out().width();
    int n = length(*ctx.fa().src);
    Value& st = ctx.state();
    const Value& in = ctx.in(0);
    for (int k = 0; k + w < w * n; ++k) {
      if (st.isFloat()) {
        st.setF(k, st.f(k + w));
      } else {
        st.setI(k, st.i(k + w));
      }
    }
    for (int i = 0; i < w; ++i) {
      int src = in.width() == 1 ? 0 : i;
      int dst = w * (n - 1) + i;
      if (st.isFloat()) {
        st.setF(dst, in.f(src));
      } else {
        st.setI(dst, in.i(src));
      }
    }
  }

  void emit(EmitContext& ctx) const override {
    int w = ctx.outWidth();
    int n = length(*ctx.fa().src);
    beginElemLoop(ctx, w);
    ctx.line(ctx.out() + "[i] = " + ctx.state() + "[i];");
    endElemLoop(ctx);
    std::string src = ctx.inWidth(0) == 1 ? "[0]" : "[i]";
    ctx.sink().updateLine("for (int k = 0; k + " + std::to_string(w) +
                          " < " + std::to_string(w * n) + "; ++k) " +
                          ctx.state() + "[k] = " + ctx.state() + "[k + " +
                          std::to_string(w) + "];");
    ctx.sink().updateLine("for (int i = 0; i < " + std::to_string(w) +
                          "; ++i) " + ctx.state() + "[" +
                          std::to_string(w * (n - 1)) + " + i] = " +
                          ctx.in(0) + src + ";");
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    checkInMatchesOut(fm, fa);
    if (length(*fa.src) < 1 || length(*fa.src) > 4096) {
      throw ModelError("actor '" + fa.path + "': Delay length must be 1..4096");
    }
  }

 private:
  static int length(const Actor& a) {
    return a.intParam("length", 1, 0, kMaxDimParam);
  }
};

// Scalar input; output vector of the last N inputs, most recent last.
class TappedDelaySpec : public ActorSpec {
 public:
  std::string type() const override { return "TappedDelay"; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }
  bool isDelayClass(const Actor&) const override { return true; }
  int outputWidth(const Actor& a, int) const override {
    return a.intParam("taps", 2, 1, kMaxDimParam);
  }

  std::optional<StateSpec> state(const FlatModel& fm,
                                 const FlatActor& fa) const override {
    StateSpec s;
    s.type = fm.signal(fa.outputs[0]).type;
    s.width = fm.signal(fa.outputs[0]).width;
    s.initial = initList(*fa.src, s.width);
    return s;
  }

  void eval(EvalContext& ctx) const override {
    Value& out = ctx.out();
    const Value& st = ctx.state();
    for (int i = 0; i < out.width(); ++i) {
      if (out.isFloat()) {
        out.setF(i, st.f(i));
      } else {
        out.setI(i, st.i(i));
      }
    }
  }

  void update(EvalContext& ctx) const override {
    Value& st = ctx.state();
    const Value& in = ctx.in(0);
    int n = st.width();
    for (int k = 0; k + 1 < n; ++k) {
      if (st.isFloat()) {
        st.setF(k, st.f(k + 1));
      } else {
        st.setI(k, st.i(k + 1));
      }
    }
    if (st.isFloat()) {
      st.setF(n - 1, in.f(0));
    } else {
      st.setI(n - 1, in.i(0));
    }
  }

  void emit(EmitContext& ctx) const override {
    int n = ctx.outWidth();
    beginElemLoop(ctx, n);
    ctx.line(ctx.out() + "[i] = " + ctx.state() + "[i];");
    endElemLoop(ctx);
    ctx.sink().updateLine("for (int k = 0; k + 1 < " + std::to_string(n) +
                          "; ++k) " + ctx.state() + "[k] = " + ctx.state() +
                          "[k + 1];");
    ctx.sink().updateLine(ctx.state() + "[" + std::to_string(n - 1) + "] = " +
                          ctx.in(0) + "[0];");
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    checkInMatchesOut(fm, fa);
    if (fm.signal(fa.inputs[0]).width != 1) {
      throw ModelError("actor '" + fa.path +
                       "': TappedDelay input must be scalar");
    }
  }
};

// Forward-Euler discrete integrator: y[n] = y[n-1] + K * u[n-1].
class DiscreteIntegratorSpec : public ActorSpec {
 public:
  std::string type() const override { return "DiscreteIntegrator"; }
  bool canSaturate() const override { return true; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }
  bool isDelayClass(const Actor&) const override { return true; }

  std::optional<StateSpec> state(const FlatModel& fm,
                                 const FlatActor& fa) const override {
    StateSpec s;
    s.type = fm.signal(fa.outputs[0]).type;
    s.width = fm.signal(fa.outputs[0]).width;
    s.initial = initList(*fa.src, s.width);
    return s;
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    // An integrator accumulates without bound — the canonical source of the
    // paper's long-horizon wrap-on-overflow errors.
    return arithDiags(fm, fa);
  }

  void eval(EvalContext& ctx) const override {
    Value& out = ctx.out();
    const Value& st = ctx.state();
    for (int i = 0; i < out.width(); ++i) {
      if (out.isFloat()) {
        out.setF(i, st.f(i));
      } else {
        out.setI(i, st.i(i));
      }
    }
  }

  void update(EvalContext& ctx) const override {
    double k = ctx.fa().src->params().getDouble("gain", 1.0);
    Value& st = ctx.state();
    ArithFlags fl;
    if (st.isFloat()) {
      for (int i = 0; i < st.width(); ++i) {
        double v = st.f(i) + k * inD(ctx, 0, i);
        if (!std::isfinite(v)) fl.nan = true;
        auto sf = st.store(i, v);
        fl.wrap = fl.wrap || sf.wrapped;
        fl.prec = fl.prec || sf.precisionLoss;
      }
    } else {
      Int128 ki = f2i(k);
      bool sat = saturating(ctx.fa());
      for (int i = 0; i < st.width(); ++i) {
        st.setI(i, foldInt(st.type(), st.asInt(i) + ki * inI(ctx, 0, i), sat,
                           fl));
      }
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    double k = ctx.fa().src->params().getDouble("gain", 1.0);
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.out() + "[i] = " + ctx.state() + "[i];");
    endElemLoop(ctx);
    // The update phase carries the wrap diagnosis; flags are declared in
    // that scope, not the eval scope.
    bool real = isFloatType(ctx.outType());
    bool sat = saturating(ctx.fa());
    EmitFlags flags;
    if (!real && ctx.sink().diagOn(DiagKind::WrapOnOverflow)) {
      flags.wrap = ctx.sink().freshVar("wf");
      ctx.sink().updateLinePre("int " + flags.wrap + " = 0;");
    }
    if (!real && ctx.sink().diagOn(DiagKind::SaturateOnOverflow)) {
      flags.sat = ctx.sink().freshVar("sf");
      ctx.sink().updateLinePre("int " + flags.sat + " = 0;");
    }
    if (real && ctx.sink().diagOn(DiagKind::NanInf)) {
      flags.nan = ctx.sink().freshVar("nf");
      ctx.sink().updateLinePre("int " + flags.nan + " = 0;");
    }
    ctx.sink().updateLine("for (int i = 0; i < " +
                          std::to_string(ctx.outWidth()) + "; ++i) {");
    if (real) {
      std::string expr = ctx.state() + "[i] + " + fmtD(k) + " * " +
                         ctx.inElem(0, "i", DataType::F64);
      std::string stmt = "{ double _s = " + expr + ";";
      if (!flags.nan.empty()) {
        stmt += " if (!accmos_isfinite(_s)) " + flags.nan + " = 1;";
      }
      stmt += " " + ctx.state() + "[i] = (" +
              std::string(dataTypeCpp(ctx.outType())) + ")_s; }";
      ctx.sink().updateLine(stmt);
    } else {
      ctx.sink().updateLine(foldStmt(
          ctx.outType(), ctx.state() + "[i]",
          "(__int128)" + ctx.state() + "[i] + " + fmtI(f2i(k)) + " * " +
              ctx.inElem(0, "i", DataType::I64),
          sat, flags.overflow(sat)));
    }
    ctx.sink().updateLine("}");
    // The diagnostic call runs after the update loop, where update() also
    // reports the static downcast.
    auto call = flags.asDiagCall();
    if (ctx.sink().diagOn(DiagKind::Downcast)) {
      call.emplace_back(DiagKind::Downcast, "1");
    }
    ctx.sink().diagCallInUpdate(call);
  }
};

// y[n] = u[n] - u[n-1] (per-step difference).
class DiscreteDerivativeSpec : public ActorSpec {
 public:
  std::string type() const override { return "DiscreteDerivative"; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }

  std::optional<StateSpec> state(const FlatModel& fm,
                                 const FlatActor& fa) const override {
    StateSpec s;
    s.type = DataType::F64;
    s.width = fm.signal(fa.outputs[0]).width;
    s.initial = initList(*fa.src, s.width);
    return s;
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    return arithDiags(fm, fa);
  }

  void eval(EvalContext& ctx) const override {
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) {
      storeReal(ctx, 0, i, inD(ctx, 0, i) - ctx.state().f(i), fl);
    }
    reportArith(ctx, fl);
  }

  void update(EvalContext& ctx) const override {
    Value& st = ctx.state();
    for (int i = 0; i < st.width(); ++i) st.setF(i, inD(ctx, 0, i));
  }

  void emit(EmitContext& ctx) const override {
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.storeOutStmt("i",
                              ctx.inElem(0, "i", DataType::F64) + " - " +
                                  ctx.state() + "[i]",
                              flags.wrap, flags.prec));
    endElemLoop(ctx);
    finishEmit(ctx, flags);
    ctx.sink().updateLine("for (int i = 0; i < " +
                          std::to_string(ctx.outWidth()) + "; ++i) " +
                          ctx.state() + "[i] = " +
                          ctx.inElem(0, "i", DataType::F64) + ";");
  }
};

// First/second-order IIR filter: y = (b0*u + b1*u1 + b2*u2 - a1*y1 - a2*y2).
// num = b coefficients, den = 1, a1, a2... (den[0] must be 1).
class DiscreteFilterSpec : public ActorSpec {
 public:
  std::string type() const override { return "DiscreteFilter"; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }

  std::optional<StateSpec> state(const FlatModel&,
                                 const FlatActor& fa) const override {
    auto [b, a] = coeffs(*fa.src);
    StateSpec s;
    s.type = DataType::F64;
    // u history (len b-1) then y history (len a-1).
    s.width = static_cast<int>(b.size() - 1 + a.size() - 1);
    if (s.width == 0) s.width = 1;  // degenerate pure-gain filter
    s.initial = {0.0};
    return s;
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    return arithDiags(fm, fa);
  }

  void eval(EvalContext& ctx) const override {
    auto [b, a] = coeffs(*ctx.fa().src);
    int nb = static_cast<int>(b.size()) - 1;
    int na = static_cast<int>(a.size()) - 1;
    double u = inD(ctx, 0, 0);
    Value& st = ctx.state();
    double y = b[0] * u;
    for (int k = 0; k < nb; ++k) y += b[static_cast<size_t>(k + 1)] * st.f(k);
    for (int k = 0; k < na; ++k) {
      y -= a[static_cast<size_t>(k + 1)] * st.f(nb + k);
    }
    ArithFlags fl;
    storeReal(ctx, 0, 0, y, fl);
    reportArith(ctx, fl);
  }

  void update(EvalContext& ctx) const override {
    auto [b, a] = coeffs(*ctx.fa().src);
    int nb = static_cast<int>(b.size()) - 1;
    int na = static_cast<int>(a.size()) - 1;
    Value& st = ctx.state();
    // Recompute y from the unmodified state (update runs after all evals,
    // before any state of this actor changed) to latch the y-history.
    double u = inD(ctx, 0, 0);
    double y = b[0] * u;
    for (int k = 0; k < nb; ++k) y += b[static_cast<size_t>(k + 1)] * st.f(k);
    for (int k = 0; k < na; ++k) {
      y -= a[static_cast<size_t>(k + 1)] * st.f(nb + k);
    }
    for (int k = nb - 1; k > 0; --k) st.setF(k, st.f(k - 1));
    if (nb > 0) st.setF(0, u);
    for (int k = na - 1; k > 0; --k) st.setF(nb + k, st.f(nb + k - 1));
    if (na > 0) st.setF(nb, y);
  }

  void emit(EmitContext& ctx) const override {
    auto [b, a] = coeffs(*ctx.fa().src);
    int nb = static_cast<int>(b.size()) - 1;
    int na = static_cast<int>(a.size()) - 1;
    EmitFlags flags = declareArithFlags(ctx);
    std::string y = ctx.sink().freshVar("y");
    std::string expr = fmtD(b[0]) + " * " + ctx.inElem(0, "0", DataType::F64);
    for (int k = 0; k < nb; ++k) {
      expr += " + " + fmtD(b[static_cast<size_t>(k + 1)]) + " * " +
              ctx.state() + "[" + std::to_string(k) + "]";
    }
    for (int k = 0; k < na; ++k) {
      expr += " - " + fmtD(a[static_cast<size_t>(k + 1)]) + " * " +
              ctx.state() + "[" + std::to_string(nb + k) + "]";
    }
    ctx.line("double " + y + " = " + expr + ";");
    if (!flags.nan.empty()) ctx.line(nanCheckStmt(flags, y));
    ctx.line(ctx.storeOutStmt("0", y, flags.wrap, flags.prec));
    finishEmit(ctx, flags);
    for (int k = nb - 1; k > 0; --k) {
      ctx.sink().updateLine(ctx.state() + "[" + std::to_string(k) + "] = " +
                            ctx.state() + "[" + std::to_string(k - 1) + "];");
    }
    if (nb > 0) {
      ctx.sink().updateLine(ctx.state() + "[0] = " +
                            ctx.inElem(0, "0", DataType::F64) + ";");
    }
    for (int k = na - 1; k > 0; --k) {
      ctx.sink().updateLine(ctx.state() + "[" + std::to_string(nb + k) +
                            "] = " + ctx.state() + "[" +
                            std::to_string(nb + k - 1) + "];");
    }
    if (na > 0) {
      // Recompute y in the update phase: the eval-scope variable is not
      // visible there (each phase has its own scope).
      std::string uy = ctx.sink().freshVar("uy");
      std::string uexpr = fmtD(b[0]) + " * " +
                          ctx.inElem(0, "0", DataType::F64);
      for (int k = 0; k < nb; ++k) {
        uexpr += " + " + fmtD(b[static_cast<size_t>(k + 1)]) + " * " +
                 ctx.state() + "[" + std::to_string(k) + "]";
      }
      for (int k = 0; k < na; ++k) {
        uexpr += " - " + fmtD(a[static_cast<size_t>(k + 1)]) + " * " +
                 ctx.state() + "[" + std::to_string(nb + k) + "]";
      }
      ctx.sink().updateLinePre("double " + uy + " = " + uexpr + ";");
      ctx.sink().updateLine(ctx.state() + "[" + std::to_string(nb) + "] = " +
                            uy + ";");
    }
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    if (fm.signal(fa.inputs[0]).width != 1 ||
        fm.signal(fa.outputs[0]).width != 1) {
      throw ModelError("actor '" + fa.path +
                       "': DiscreteFilter is scalar-only");
    }
    if (!isFloatType(fm.signal(fa.outputs[0]).type)) {
      throw ModelError("actor '" + fa.path +
                       "': DiscreteFilter output must be float");
    }
    auto [b, a] = coeffs(*fa.src);
    if (a.empty() || a[0] != 1.0) {
      throw ModelError("actor '" + fa.path +
                       "': DiscreteFilter den[0] must be 1");
    }
    if (b.size() > 5 || a.size() > 5) {
      throw ModelError("actor '" + fa.path +
                       "': DiscreteFilter supports order <= 4");
    }
  }

 private:
  static std::pair<std::vector<double>, std::vector<double>> coeffs(
      const Actor& a) {
    std::vector<double> num = a.params().getDoubleList("num");
    std::vector<double> den = a.params().getDoubleList("den");
    if (num.empty()) num = {1.0};
    if (den.empty()) den = {1.0};
    return {num, den};
  }

};

// Holds the input sampled every `sample` steps.
class ZeroOrderHoldSpec : public ActorSpec {
 public:
  std::string type() const override { return "ZeroOrderHold"; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }

  std::optional<StateSpec> state(const FlatModel& fm,
                                 const FlatActor& fa) const override {
    StateSpec s;
    s.type = fm.signal(fa.outputs[0]).type;
    s.width = fm.signal(fa.outputs[0]).width;
    s.initial = initList(*fa.src, s.width);
    return s;
  }

  void eval(EvalContext& ctx) const override {
    int64_t n = std::max<int64_t>(1, ctx.fa().src->params().getInt("sample", 1));
    Value& out = ctx.out();
    Value& st = ctx.state();
    bool sampleStep = ctx.step() % static_cast<uint64_t>(n) == 0;
    for (int i = 0; i < out.width(); ++i) {
      if (sampleStep) {
        const Value& in = ctx.in(0);
        int src = in.width() == 1 ? 0 : i;
        if (st.isFloat()) {
          st.setF(i, in.f(src));
        } else {
          st.setI(i, in.i(src));
        }
      }
      if (out.isFloat()) {
        out.setF(i, st.f(i));
      } else {
        out.setI(i, st.i(i));
      }
    }
  }

  void emit(EmitContext& ctx) const override {
    int64_t n = std::max<int64_t>(1, ctx.fa().src->params().getInt("sample", 1));
    std::string src = ctx.inWidth(0) == 1 ? "[0]" : "[i]";
    ctx.line("if (step % " + std::to_string(n) + "ULL == 0) {");
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.state() + "[i] = " + ctx.in(0) + src + ";");
    endElemLoop(ctx);
    ctx.line("}");
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.out() + "[i] = " + ctx.state() + "[i];");
    endElemLoop(ctx);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    checkInMatchesOut(fm, fa);
  }
};

// ---------------------------------------------------------------------------
// Data store family.
// ---------------------------------------------------------------------------

class DataStoreMemorySpec : public ActorSpec {
 public:
  std::string type() const override { return "DataStoreMemory"; }
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {0, 0};
  }
  bool countsForActorCoverage(const Actor&) const override { return false; }
  void eval(EvalContext&) const override {}
  void emit(EmitContext&) const override {}
};

class DataStoreReadSpec : public ActorSpec {
 public:
  std::string type() const override { return "DataStoreRead"; }
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {0, 1};
  }

  void eval(EvalContext& ctx) const override {
    const Value& st = ctx.store();
    Value& out = ctx.out();
    for (int i = 0; i < out.width(); ++i) {
      if (out.isFloat()) {
        out.setF(i, st.f(i));
      } else {
        out.setI(i, st.i(i));
      }
    }
  }

  void emit(EmitContext& ctx) const override {
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.out() + "[i] = " + ctx.store() + "[i];");
    endElemLoop(ctx);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    const DataStoreInfo& ds = fm.dataStores[static_cast<size_t>(fa.dataStore)];
    if (fm.signal(fa.outputs[0]).type != ds.type ||
        fm.signal(fa.outputs[0]).width != ds.width) {
      throw ModelError("actor '" + fa.path +
                       "': DataStoreRead type/width must match store '" +
                       ds.name + "' (declare dtype/width on the actor)");
    }
  }
};

class DataStoreWriteSpec : public ActorSpec {
 public:
  std::string type() const override { return "DataStoreWrite"; }
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 0};
  }

  void eval(EvalContext& ctx) const override {
    const Value& in = ctx.in(0);
    Value& st = ctx.store();
    for (int i = 0; i < st.width(); ++i) {
      int src = in.width() == 1 ? 0 : i;
      if (st.isFloat()) {
        st.setF(i, in.f(src));
      } else {
        st.setI(i, in.i(src));
      }
    }
  }

  void emit(EmitContext& ctx) const override {
    const DataStoreInfo& ds =
        ctx.fm().dataStores[static_cast<size_t>(ctx.fa().dataStore)];
    std::string src = ctx.inWidth(0) == 1 ? "[0]" : "[i]";
    ctx.line("for (int i = 0; i < " + std::to_string(ds.width) + "; ++i) " +
             ctx.store() + "[i] = " + ctx.in(0) + src + ";");
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    const DataStoreInfo& ds = fm.dataStores[static_cast<size_t>(fa.dataStore)];
    if (fm.signal(fa.inputs[0]).type != ds.type) {
      throw ModelError("actor '" + fa.path +
                       "': DataStoreWrite input type must match store '" +
                       ds.name + "'");
    }
    int iw = fm.signal(fa.inputs[0]).width;
    if (iw != 1 && iw != ds.width) {
      throw ModelError("actor '" + fa.path +
                       "': DataStoreWrite input width incompatible with "
                       "store '" + ds.name + "'");
    }
  }
};

}  // namespace

void registerDiscreteActors(std::vector<std::unique_ptr<ActorSpec>>& out) {
  out.push_back(std::make_unique<UnitDelaySpec>());
  out.push_back(std::make_unique<MemorySpec>());
  out.push_back(std::make_unique<DelaySpec>());
  out.push_back(std::make_unique<TappedDelaySpec>());
  out.push_back(std::make_unique<DiscreteIntegratorSpec>());
  out.push_back(std::make_unique<DiscreteDerivativeSpec>());
  out.push_back(std::make_unique<DiscreteFilterSpec>());
  out.push_back(std::make_unique<ZeroOrderHoldSpec>());
  out.push_back(std::make_unique<DataStoreMemorySpec>());
  out.push_back(std::make_unique<DataStoreReadSpec>());
  out.push_back(std::make_unique<DataStoreWriteSpec>());
}

}  // namespace accmos
