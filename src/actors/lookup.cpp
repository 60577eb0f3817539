// Lookup tables: Lookup1D (linear interpolation / nearest) and Lookup2D
// (bilinear). Inputs outside the breakpoint range clip and raise the
// array-out-of-bounds diagnostic (§3.2.B).
#include <cmath>
#include <sstream>

#include "actors/common.h"

namespace accmos {
namespace {

std::string tableLiteral(const std::vector<double>& v) {
  std::ostringstream os;
  os << "{";
  for (size_t k = 0; k < v.size(); ++k) {
    if (k > 0) os << ", ";
    os << fmtD(v[k]);
  }
  os << "}";
  return os.str();
}

class Lookup1DSpec : public ActorSpec {
 public:
  std::string type() const override { return "Lookup1D"; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }

  // Outcomes: clipped below / interior / clipped above.
  int decisionOutcomes(const Actor&) const override { return 3; }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    auto kinds = arithDiags(fm, fa);
    kinds.push_back(DiagKind::OutOfBounds);
    return kinds;
  }

  void eval(EvalContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    auto xs = a.params().getDoubleList("x");
    auto ys = a.params().getDoubleList("y");
    bool nearest = a.params().getString("method", "interp") == "nearest";
    ArithFlags fl;
    bool oob = false;
    for (int i = 0; i < ctx.out().width(); ++i) {
      int outcome = 1;
      double r = accmos_lut1(xs.data(), ys.data(), static_cast<int>(xs.size()),
                             inD(ctx, 0, i), nearest ? 1 : 0, &outcome);
      ctx.decision(outcome);
      oob = oob || outcome != 1;
      storeReal(ctx, 0, i, r, fl);
    }
    if (oob) ctx.reportDiag(DiagKind::OutOfBounds);
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    auto xs = a.params().getDoubleList("x");
    auto ys = a.params().getDoubleList("y");
    bool nearest = a.params().getString("method", "interp") == "nearest";
    std::string xt = ctx.sink().freshVar("lutx");
    std::string yt = ctx.sink().freshVar("luty");
    ctx.line("static const double " + xt + "[" + std::to_string(xs.size()) +
             "] = " + tableLiteral(xs) + ";");
    ctx.line("static const double " + yt + "[" + std::to_string(ys.size()) +
             "] = " + tableLiteral(ys) + ";");
    EmitFlags flags = declareArithFlags(ctx);
    std::string oob;
    if (ctx.sink().diagOn(DiagKind::OutOfBounds)) {
      oob = ctx.sink().freshVar("oob");
      ctx.line("int " + oob + " = 0;");
    }
    beginElemLoop(ctx, ctx.outWidth());
    std::string o = ctx.sink().freshVar("o");
    std::string r = ctx.sink().freshVar("r");
    ctx.line("int " + o + " = 1;");
    ctx.line("double " + r + " = accmos_lut1(" + xt + ", " + yt + ", " +
             std::to_string(xs.size()) + ", " +
             ctx.inElem(0, "i", DataType::F64) + ", " +
             (nearest ? "1" : "0") + ", &" + o + ");");
    ctx.line(ctx.sink().covDecisionStmt(o));
    if (!oob.empty()) ctx.line("if (" + o + " != 1) " + oob + " = 1;");
    ctx.line(ctx.storeOutStmt("i", r, flags.wrap, flags.prec));
    endElemLoop(ctx);
    auto call = flags.asDiagCall();
    if (!oob.empty()) call.emplace_back(DiagKind::OutOfBounds, oob);
    if (ctx.sink().diagOn(DiagKind::Downcast)) {
      call.emplace_back(DiagKind::Downcast, "1");
    }
    ctx.sink().diagCall(call);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    auto xs = fa.src->params().getDoubleList("x");
    auto ys = fa.src->params().getDoubleList("y");
    if (xs.size() < 2 || xs.size() != ys.size()) {
      throw ModelError("actor '" + fa.path +
                       "': Lookup1D needs matching x/y tables of size >= 2");
    }
    for (size_t k = 1; k < xs.size(); ++k) {
      if (xs[k] <= xs[k - 1]) {
        throw ModelError("actor '" + fa.path +
                         "': Lookup1D x table must be strictly increasing");
      }
    }
  }
};

class Lookup2DSpec : public ActorSpec {
 public:
  std::string type() const override { return "Lookup2D"; }

  // Ports: row input (x), column input (y).
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {2, 1};
  }

  int decisionOutcomes(const Actor&) const override { return 2; }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    auto kinds = arithDiags(fm, fa);
    kinds.push_back(DiagKind::OutOfBounds);
    return kinds;
  }

  void eval(EvalContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    auto xs = a.params().getDoubleList("x");
    auto ys = a.params().getDoubleList("y");
    auto zs = a.params().getDoubleList("z");
    double u = inD(ctx, 0, 0);
    double v = inD(ctx, 1, 0);
    int clipped = 0;
    double r = accmos_lut2(xs.data(), static_cast<int>(xs.size()), ys.data(),
                           static_cast<int>(ys.size()), zs.data(), u, v,
                           &clipped);
    ctx.decision(clipped ? 0 : 1);
    if (clipped) ctx.reportDiag(DiagKind::OutOfBounds);
    ArithFlags fl;
    storeReal(ctx, 0, 0, r, fl);
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    auto xs = a.params().getDoubleList("x");
    auto ys = a.params().getDoubleList("y");
    auto zs = a.params().getDoubleList("z");
    std::string xt = ctx.sink().freshVar("lutx");
    std::string yt = ctx.sink().freshVar("luty");
    std::string zt = ctx.sink().freshVar("lutz");
    ctx.line("static const double " + xt + "[" + std::to_string(xs.size()) +
             "] = " + tableLiteral(xs) + ";");
    ctx.line("static const double " + yt + "[" + std::to_string(ys.size()) +
             "] = " + tableLiteral(ys) + ";");
    ctx.line("static const double " + zt + "[" + std::to_string(zs.size()) +
             "] = " + tableLiteral(zs) + ";");
    EmitFlags flags = declareArithFlags(ctx);
    std::string c = ctx.sink().freshVar("clip");
    std::string r = ctx.sink().freshVar("r");
    ctx.line("int " + c + " = 0;");
    ctx.line("double " + r + " = accmos_lut2(" + xt + ", " +
             std::to_string(xs.size()) + ", " + yt + ", " +
             std::to_string(ys.size()) + ", " + zt + ", " +
             ctx.inElem(0, "0", DataType::F64) + ", " +
             ctx.inElem(1, "0", DataType::F64) + ", &" + c + ");");
    ctx.line(ctx.sink().covDecisionStmt(c + " ? 0 : 1"));
    ctx.line(ctx.storeOutStmt("0", r, flags.wrap, flags.prec));
    auto call = flags.asDiagCall();
    if (ctx.sink().diagOn(DiagKind::OutOfBounds)) {
      call.emplace_back(DiagKind::OutOfBounds, c);
    }
    if (ctx.sink().diagOn(DiagKind::Downcast)) {
      call.emplace_back(DiagKind::Downcast, "1");
    }
    ctx.sink().diagCall(call);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    auto xs = fa.src->params().getDoubleList("x");
    auto ys = fa.src->params().getDoubleList("y");
    auto zs = fa.src->params().getDoubleList("z");
    if (xs.size() < 2 || ys.size() < 2 || zs.size() != xs.size() * ys.size()) {
      throw ModelError("actor '" + fa.path +
                       "': Lookup2D needs x,y >= 2 and z of size |x|*|y|");
    }
    if (fm.signal(fa.inputs[0]).width != 1 ||
        fm.signal(fa.inputs[1]).width != 1 ||
        fm.signal(fa.outputs[0]).width != 1) {
      throw ModelError("actor '" + fa.path + "': Lookup2D is scalar-only");
    }
  }

};

}  // namespace

void registerLookupActors(std::vector<std::unique_ptr<ActorSpec>>& out) {
  out.push_back(std::make_unique<Lookup1DSpec>());
  out.push_back(std::make_unique<Lookup2DSpec>());
}

}  // namespace accmos
