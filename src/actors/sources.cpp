// Source actors: Inport, Constant, Step, Ramp, SineWave, PulseGenerator,
// Clock, Counter, RandomNumber, Ground.
//
// Time is measured in steps (the models are discrete; the paper's
// evaluation drives them with a fixed step count), so rate parameters are
// expressed per step.
#include <cmath>

#include "actors/common.h"

namespace accmos {
namespace {

class SourceBase : public ActorSpec {
 public:
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {0, 1};
  }
};

// ---------------------------------------------------------------------------

class InportSpec : public SourceBase {
 public:
  std::string type() const override { return "Inport"; }

  // The engine (or generated main loop) writes the test-case value into the
  // output signal before the step runs; the actor itself is a placeholder.
  void eval(EvalContext&) const override {}

  void emit(EmitContext&) const override {}
};

class GroundSpec : public SourceBase {
 public:
  std::string type() const override { return "Ground"; }

  void eval(EvalContext& ctx) const override {
    Value& out = ctx.out();
    for (int i = 0; i < out.width(); ++i) out.setI(i, 0);
  }

  void emit(EmitContext& ctx) const override {
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.out() + "[i] = 0;");
    endElemLoop(ctx);
  }
};

class ConstantSpec : public SourceBase {
 public:
  std::string type() const override { return "Constant"; }

  void eval(EvalContext& ctx) const override {
    Value& out = ctx.out();
    if (isIntType(out.type())) {
      auto vals = intConstantValues(*ctx.fa().src, out.type(), out.width());
      for (int i = 0; i < out.width(); ++i) out.setI(i, vals[i]);
      return;
    }
    auto vals = values(*ctx.fa().src, out.width());
    ArithFlags fl;
    for (int i = 0; i < out.width(); ++i) storeReal(ctx, 0, i, vals[i], fl);
  }

  void emit(EmitContext& ctx) const override {
    if (isIntType(ctx.outType())) {
      auto vals =
          intConstantValues(*ctx.fa().src, ctx.outType(), ctx.outWidth());
      for (int i = 0; i < ctx.outWidth(); ++i) {
        ctx.line(ctx.out() + "[" + std::to_string(i) + "] = " +
                 fmtI(vals[static_cast<size_t>(i)]) + ";");
      }
      return;
    }
    auto vals = values(*ctx.fa().src, ctx.outWidth());
    for (int i = 0; i < ctx.outWidth(); ++i) {
      ctx.line(ctx.storeOutStmt(std::to_string(i), fmtD(vals[i]), "", ""));
    }
  }

  // An integer literal outside the output type is a model error.
  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    DataType t = fm.signal(fa.outputs[0]).type;
    if (isIntType(t)) intConstantValues(*fa.src, t, 1);
  }

 private:
  static std::vector<double> values(const Actor& a, int width) {
    std::vector<double> vals = a.params().getDoubleList("value");
    if (vals.empty()) vals.push_back(a.params().getDouble("value", 0.0));
    vals.resize(static_cast<size_t>(width), vals.back());
    return vals;
  }
};

class StepSpec : public SourceBase {
 public:
  std::string type() const override { return "Step"; }

  void eval(EvalContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    double v = static_cast<double>(ctx.step()) >=
                       a.params().getDouble("stepTime", 1.0)
                   ? a.params().getDouble("after", 1.0)
                   : a.params().getDouble("before", 0.0);
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) storeReal(ctx, 0, i, v, fl);
  }

  void emit(EmitContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    std::string expr = "((double)step >= " +
                       fmtD(a.params().getDouble("stepTime", 1.0)) + " ? " +
                       fmtD(a.params().getDouble("after", 1.0)) + " : " +
                       fmtD(a.params().getDouble("before", 0.0)) + ")";
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.storeOutStmt("i", expr, "", ""));
    endElemLoop(ctx);
  }
};

class RampSpec : public SourceBase {
 public:
  std::string type() const override { return "Ramp"; }

  void eval(EvalContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    double start = a.params().getDouble("start", 0.0);
    double t = static_cast<double>(ctx.step());
    double v = a.params().getDouble("initial", 0.0);
    if (t >= start) v += a.params().getDouble("slope", 1.0) * (t - start);
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) storeReal(ctx, 0, i, v, fl);
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    std::string start = fmtD(a.params().getDouble("start", 0.0));
    std::string expr = "((double)step >= " + start + " ? " +
                       fmtD(a.params().getDouble("initial", 0.0)) + " + " +
                       fmtD(a.params().getDouble("slope", 1.0)) +
                       " * ((double)step - " + start + ") : " +
                       fmtD(a.params().getDouble("initial", 0.0)) + ")";
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.storeOutStmt("i", expr, flags.wrap, flags.prec));
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    // A ramp grows without bound: integer outputs eventually wrap — the
    // cumulative-error class the paper's motivation targets.
    return arithDiags(fm, fa);
  }
};

class SineWaveSpec : public SourceBase {
 public:
  std::string type() const override { return "SineWave"; }

  void eval(EvalContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    double t = static_cast<double>(ctx.step());
    double v = a.params().getDouble("amplitude", 1.0) *
                   std::sin(2.0 * M_PI * a.params().getDouble("freq", 0.01) * t +
                            a.params().getDouble("phase", 0.0)) +
               a.params().getDouble("bias", 0.0);
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) storeReal(ctx, 0, i, v, fl);
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    std::string expr =
        fmtD(a.params().getDouble("amplitude", 1.0)) + " * sin(" +
        fmtD(2.0 * M_PI * a.params().getDouble("freq", 0.01)) +
        " * (double)step + " + fmtD(a.params().getDouble("phase", 0.0)) +
        ") + " + fmtD(a.params().getDouble("bias", 0.0));
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.storeOutStmt("i", expr, flags.wrap, flags.prec));
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    if (realDomain(fm, fa)) return {};  // bounded, cannot overflow
    return arithDiags(fm, fa);
  }
};

class PulseGeneratorSpec : public SourceBase {
 public:
  std::string type() const override { return "PulseGenerator"; }

  void eval(EvalContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    int64_t period = std::max<int64_t>(1, a.params().getInt("period", 10));
    int64_t on = onSteps(a, period);
    double v = static_cast<int64_t>(ctx.step() % static_cast<uint64_t>(period)) < on
                   ? a.params().getDouble("amplitude", 1.0)
                   : 0.0;
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) storeReal(ctx, 0, i, v, fl);
  }

  void emit(EmitContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    int64_t period = std::max<int64_t>(1, a.params().getInt("period", 10));
    std::string expr = "((int64_t)(step % " + std::to_string(period) +
                       "ULL) < " + std::to_string(onSteps(a, period)) + " ? " +
                       fmtD(a.params().getDouble("amplitude", 1.0)) + " : 0.0)";
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.storeOutStmt("i", expr, "", ""));
    endElemLoop(ctx);
  }

 private:
  static int64_t onSteps(const Actor& a, int64_t period) {
    double duty = a.params().getDouble("duty", 0.5);
    int64_t on = static_cast<int64_t>(std::nearbyint(duty * static_cast<double>(period)));
    return std::clamp<int64_t>(on, 0, period);
  }
};

class ClockSpec : public SourceBase {
 public:
  std::string type() const override { return "Clock"; }

  void eval(EvalContext& ctx) const override {
    ArithFlags fl;
    double t = static_cast<double>(ctx.step());
    for (int i = 0; i < ctx.out().width(); ++i) storeReal(ctx, 0, i, t, fl);
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.storeOutStmt("i", "(double)step", flags.wrap, flags.prec));
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    if (realDomain(fm, fa)) return {};
    return arithDiags(fm, fa);
  }
};

class CounterSpec : public SourceBase {
 public:
  std::string type() const override { return "Counter"; }

  void eval(EvalContext& ctx) const override {
    int64_t max = std::max<int64_t>(1, ctx.fa().src->params().getInt("max", 256));
    ArithFlags fl;
    Int128 v = static_cast<int64_t>(ctx.step() % static_cast<uint64_t>(max));
    Value& out = ctx.out();
    for (int i = 0; i < out.width(); ++i) {
      out.setI(i, foldInt(out.type(), v, false, fl));
    }
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    int64_t max = std::max<int64_t>(1, ctx.fa().src->params().getInt("max", 256));
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.storeOutStmt(
        "i", "(__int128)(int64_t)(step % " + std::to_string(max) + "ULL)",
        flags.wrap, flags.prec));
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    DataType t = fm.signal(fa.outputs[0]).type;
    if (isFloatType(t)) {
      throw ModelError("actor '" + fa.path + "': Counter output must be an "
                       "integer type");
    }
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    return arithDiags(fm, fa);
  }
};

class RandomNumberSpec : public SourceBase {
 public:
  std::string type() const override { return "RandomNumber"; }

  std::optional<StateSpec> state(const FlatModel&,
                                 const FlatActor& fa) const override {
    StateSpec s;
    s.type = DataType::U64;
    s.width = 1;
    s.initial = {
        static_cast<double>(fa.src->params().getInt("seed", 1) & 0xFFFFFFFF)};
    return s;
  }

  void eval(EvalContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    double lo = a.params().getDouble("min", 0.0);
    double hi = a.params().getDouble("max", 1.0);
    SplitMix64 rng(static_cast<uint64_t>(ctx.state().i(0)));
    ArithFlags fl;
    for (int i = 0; i < ctx.out().width(); ++i) {
      storeReal(ctx, 0, i, rng.nextUniform(lo, hi), fl);
    }
    ctx.state().setI(0, static_cast<int64_t>(rng.state));
  }

  void emit(EmitContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    std::string lo = fmtD(a.params().getDouble("min", 0.0));
    std::string hi = fmtD(a.params().getDouble("max", 1.0));
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.storeOutStmt("i",
                              lo + " + accmos_sm64_unit(&" + ctx.state() +
                                  "[0]) * (" + hi + " - " + lo + ")",
                              "", ""));
    endElemLoop(ctx);
  }
};

}  // namespace

void registerSourceActors(std::vector<std::unique_ptr<ActorSpec>>& out) {
  out.push_back(std::make_unique<InportSpec>());
  out.push_back(std::make_unique<GroundSpec>());
  out.push_back(std::make_unique<ConstantSpec>());
  out.push_back(std::make_unique<StepSpec>());
  out.push_back(std::make_unique<RampSpec>());
  out.push_back(std::make_unique<SineWaveSpec>());
  out.push_back(std::make_unique<PulseGeneratorSpec>());
  out.push_back(std::make_unique<ClockSpec>());
  out.push_back(std::make_unique<CounterSpec>());
  out.push_back(std::make_unique<RandomNumberSpec>());
}

}  // namespace accmos
