// Signal routing actors: Switch, MultiportSwitch, Mux, Demux, Selector,
// IndexVector.
//
// Switch and MultiportSwitch are the model's branch actors (Algorithm 1's
// isBranchActor): they carry condition coverage on the control predicate and
// decision coverage on the selected path.
#include "actors/common.h"

namespace accmos {
namespace {

// Copies input element -> output element of identical type (validated), so
// routing never converts.
void checkSameType(const FlatModel& fm, const FlatActor& fa, int port) {
  DataType inT = fm.signal(fa.inputs[static_cast<size_t>(port)]).type;
  DataType outT = fm.signal(fa.outputs[0]).type;
  if (inT != outT) {
    throw ModelError("actor '" + fa.path + "': data input " +
                     std::to_string(port + 1) + " type " +
                     std::string(dataTypeName(inT)) +
                     " must match output type " +
                     std::string(dataTypeName(outT)));
  }
}

void copyElem(EvalContext& ctx, int port, int elem) {
  const Value& in = ctx.in(port);
  Value& out = ctx.out();
  int src = in.width() == 1 ? 0 : elem;
  if (out.isFloat()) {
    out.setF(elem, in.f(src));
  } else {
    out.setI(elem, in.i(src));
  }
}

class SwitchSpec : public ActorSpec {
 public:
  std::string type() const override { return "Switch"; }

  // Ports: data1, control, data2 (Simulink layout).
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {3, 1};
  }

  bool isBranchActor(const Actor&) const override { return true; }
  int numConditions(const Actor&) const override { return 1; }
  int decisionOutcomes(const Actor&) const override { return 2; }

  void eval(EvalContext& ctx) const override {
    bool c = control(ctx);
    ctx.condition(0, c);
    ctx.decision(c ? 0 : 1);
    for (int i = 0; i < ctx.out().width(); ++i) copyElem(ctx, c ? 0 : 2, i);
  }

  void emit(EmitContext& ctx) const override {
    const Actor& a = *ctx.fa().src;
    std::string crit = a.params().getString("criteria", ">0");
    std::string ctrl = ctx.inElem(1, "0", DataType::F64);
    std::string cond;
    if (crit == ">0") cond = ctrl + " > 0.0";
    else if (crit == "~=0") cond = ctrl + " != 0.0";
    else cond = ctrl + " >= " + fmtD(a.params().getDouble("threshold", 0.0));
    std::string c = ctx.sink().freshVar("c");
    ctx.line("int " + c + " = (" + cond + ");");
    ctx.line(ctx.sink().covConditionStmt(0, c));
    ctx.line(ctx.sink().covDecisionStmt(c + " ? 0 : 1"));
    beginElemLoop(ctx, ctx.outWidth());
    ctx.line(ctx.out() + "[i] = " + c + " ? " + elem(ctx, 0) + " : " +
             elem(ctx, 2) + ";");
    endElemLoop(ctx);
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    checkSameType(fm, fa, 0);
    checkSameType(fm, fa, 2);
    if (fm.signal(fa.inputs[1]).width != 1) {
      throw ModelError("actor '" + fa.path +
                       "': Switch control must be scalar");
    }
    std::string crit = fa.src->params().getString("criteria", ">0");
    if (crit != ">0" && crit != "~=0" && crit != ">=") {
      throw ModelError("actor '" + fa.path + "': unknown Switch criteria '" +
                       crit + "'");
    }
  }

 private:
  static std::string elem(EmitContext& ctx, int port) {
    return ctx.in(port) + "[" + (ctx.inWidth(port) == 1 ? "0" : "i") + "]";
  }

  static bool control(EvalContext& ctx) {
    const Actor& a = *ctx.fa().src;
    std::string crit = a.params().getString("criteria", ">0");
    double v = ctx.in(1).asDouble(0);
    if (crit == ">0") return v > 0.0;
    if (crit == "~=0") return v != 0.0;
    return v >= a.params().getDouble("threshold", 0.0);
  }
};

class MultiportSwitchSpec : public ActorSpec {
 public:
  std::string type() const override { return "MultiportSwitch"; }

  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {1 + cases(a), 1};
  }

  bool isBranchActor(const Actor&) const override { return true; }
  int decisionOutcomes(const Actor& a) const override { return cases(a); }

  std::vector<DiagKind> diagnostics(const FlatModel&,
                                    const FlatActor&) const override {
    return {DiagKind::OutOfBounds};
  }

  void eval(EvalContext& ctx) const override {
    int n = cases(*ctx.fa().src);
    int64_t c = ctx.in(0).asInt(0);
    if (c < 1 || c > n) {
      ctx.reportDiag(DiagKind::OutOfBounds);
      c = c < 1 ? 1 : n;
    }
    ctx.decision(static_cast<int>(c) - 1);
    for (int i = 0; i < ctx.out().width(); ++i) {
      copyElem(ctx, static_cast<int>(c), i);
    }
  }

  void emit(EmitContext& ctx) const override {
    int n = cases(*ctx.fa().src);
    std::string c = ctx.sink().freshVar("c");
    ctx.line("int64_t " + c + " = " + ctx.inElem(0, "0", DataType::I64) + ";");
    std::string oob;
    if (ctx.sink().diagOn(DiagKind::OutOfBounds)) {
      oob = ctx.sink().freshVar("oob");
      ctx.line("int " + oob + " = (" + c + " < 1 || " + c + " > " +
               std::to_string(n) + ");");
    }
    ctx.line("if (" + c + " < 1) " + c + " = 1; else if (" + c + " > " +
             std::to_string(n) + ") " + c + " = " + std::to_string(n) + ";");
    ctx.line(ctx.sink().covDecisionStmt("(int)" + c + " - 1"));
    beginElemLoop(ctx, ctx.outWidth());
    std::string expr = elem(ctx, n);  // last case as fallback
    for (int k = n - 1; k >= 1; --k) {
      expr = c + " == " + std::to_string(k) + " ? " + elem(ctx, k) + " : (" +
             expr + ")";
    }
    ctx.line(ctx.out() + "[i] = " + expr + ";");
    endElemLoop(ctx);
    if (!oob.empty()) {
      ctx.sink().diagCall({{DiagKind::OutOfBounds, oob}});
    }
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    ActorSpec::validate(fm, fa);
    int n = cases(*fa.src);
    if (n < 1 || n > 64) {
      throw ModelError("actor '" + fa.path +
                       "': MultiportSwitch supports 1..64 cases");
    }
    for (int p = 1; p <= n; ++p) checkSameType(fm, fa, p);
    if (fm.signal(fa.inputs[0]).width != 1) {
      throw ModelError("actor '" + fa.path +
                       "': MultiportSwitch control must be scalar");
    }
  }

 private:
  static int cases(const Actor& a) {
    return a.intParam("cases", 2, 0, kMaxDimParam);
  }
  static std::string elem(EmitContext& ctx, int port) {
    return ctx.in(port) + "[" + (ctx.inWidth(port) == 1 ? "0" : "i") + "]";
  }
};

class MuxSpec : public ActorSpec {
 public:
  std::string type() const override { return "Mux"; }

  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {a.intParam("inputs", 2, 0, kMaxDimParam), 1};
  }

  void eval(EvalContext& ctx) const override {
    Value& out = ctx.out();
    int pos = 0;
    for (int p = 0; p < ctx.numInputs(); ++p) {
      const Value& in = ctx.in(p);
      for (int i = 0; i < in.width(); ++i, ++pos) {
        if (out.isFloat()) {
          out.setF(pos, in.f(i));
        } else {
          out.setI(pos, in.i(i));
        }
      }
    }
  }

  void emit(EmitContext& ctx) const override {
    int pos = 0;
    for (int p = 0; p < ctx.numInputs(); ++p) {
      int w = ctx.inWidth(p);
      ctx.line("for (int i = 0; i < " + std::to_string(w) + "; ++i) " +
               ctx.out() + "[" + std::to_string(pos) + " + i] = " + ctx.in(p) +
               "[i];");
      pos += w;
    }
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    int sum = 0;
    for (size_t p = 0; p < fa.inputs.size(); ++p) {
      checkSameType(fm, fa, static_cast<int>(p));
      sum += fm.signal(fa.inputs[p]).width;
    }
    if (sum != fm.signal(fa.outputs[0]).width) {
      throw ModelError("actor '" + fa.path + "': Mux output width must be " +
                       std::to_string(sum) + " (sum of input widths)");
    }
  }
};

class DemuxSpec : public ActorSpec {
 public:
  std::string type() const override { return "Demux"; }

  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {1, a.intParam("outputs", 2, 0, kMaxDimParam)};
  }

  void eval(EvalContext& ctx) const override {
    const Value& in = ctx.in(0);
    int pos = 0;
    for (size_t p = 0; p < ctx.fa().outputs.size(); ++p) {
      Value& out = ctx.out(static_cast<int>(p));
      for (int i = 0; i < out.width(); ++i, ++pos) {
        if (out.isFloat()) {
          out.setF(i, in.f(pos));
        } else {
          out.setI(i, in.i(pos));
        }
      }
    }
  }

  void emit(EmitContext& ctx) const override {
    int pos = 0;
    for (size_t p = 0; p < ctx.fa().outputs.size(); ++p) {
      int w = ctx.outWidth(static_cast<int>(p));
      ctx.line("for (int i = 0; i < " + std::to_string(w) + "; ++i) " +
               ctx.out(static_cast<int>(p)) + "[i] = " + ctx.in(0) + "[" +
               std::to_string(pos) + " + i];");
      pos += w;
    }
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    int sum = 0;
    DataType inT = fm.signal(fa.inputs[0]).type;
    for (int sig : fa.outputs) {
      sum += fm.signal(sig).width;
      if (fm.signal(sig).type != inT) {
        throw ModelError("actor '" + fa.path +
                         "': Demux outputs must match the input type");
      }
    }
    if (sum != fm.signal(fa.inputs[0]).width) {
      throw ModelError("actor '" + fa.path +
                       "': Demux output widths must sum to the input width");
    }
  }
};

class SelectorSpec : public ActorSpec {
 public:
  std::string type() const override { return "Selector"; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }
  int outputWidth(const Actor& a, int) const override {
    return static_cast<int>(indices(a).size());
  }

  void eval(EvalContext& ctx) const override {
    auto idx = indices(*ctx.fa().src);
    const Value& in = ctx.in(0);
    Value& out = ctx.out();
    for (size_t k = 0; k < idx.size(); ++k) {
      int src = static_cast<int>(idx[k]) - 1;
      if (out.isFloat()) {
        out.setF(static_cast<int>(k), in.f(src));
      } else {
        out.setI(static_cast<int>(k), in.i(src));
      }
    }
  }

  void emit(EmitContext& ctx) const override {
    auto idx = indices(*ctx.fa().src);
    for (size_t k = 0; k < idx.size(); ++k) {
      ctx.line(ctx.out() + "[" + std::to_string(k) + "] = " + ctx.in(0) + "[" +
               std::to_string(static_cast<int>(idx[k]) - 1) + "];");
    }
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    checkSameType(fm, fa, 0);
    auto idx = indices(*fa.src);
    if (idx.empty()) {
      throw ModelError("actor '" + fa.path + "': Selector needs 'indices'");
    }
    int w = fm.signal(fa.inputs[0]).width;
    for (double d : idx) {
      int i = static_cast<int>(d);
      if (i < 1 || i > w) {
        throw ModelError("actor '" + fa.path + "': Selector index " +
                         std::to_string(i) + " outside input width " +
                         std::to_string(w));
      }
    }
  }

 private:
  static std::vector<double> indices(const Actor& a) {
    return a.params().getDoubleList("indices");
  }
};

// Dynamic vector indexing: the array-out-of-bounds diagnosis of §3.2.B.
class IndexVectorSpec : public ActorSpec {
 public:
  std::string type() const override { return "IndexVector"; }

  // Ports: index (scalar int), vector.
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {2, 1};
  }
  int outputWidth(const Actor&, int) const override { return 1; }

  std::vector<DiagKind> diagnostics(const FlatModel&,
                                    const FlatActor&) const override {
    return {DiagKind::OutOfBounds};
  }

  void eval(EvalContext& ctx) const override {
    const Value& vec = ctx.in(1);
    int64_t idx = ctx.in(0).asInt(0);
    if (idx < 1 || idx > vec.width()) {
      ctx.reportDiag(DiagKind::OutOfBounds);
      idx = idx < 1 ? 1 : vec.width();
    }
    Value& out = ctx.out();
    if (out.isFloat()) {
      out.setF(0, vec.f(static_cast<int>(idx) - 1));
    } else {
      out.setI(0, vec.i(static_cast<int>(idx) - 1));
    }
  }

  void emit(EmitContext& ctx) const override {
    int w = ctx.inWidth(1);
    std::string c = ctx.sink().freshVar("idx");
    ctx.line("int64_t " + c + " = " + ctx.inElem(0, "0", DataType::I64) + ";");
    std::string oob;
    if (ctx.sink().diagOn(DiagKind::OutOfBounds)) {
      oob = ctx.sink().freshVar("oob");
      ctx.line("int " + oob + " = (" + c + " < 1 || " + c + " > " +
               std::to_string(w) + ");");
    }
    ctx.line("if (" + c + " < 1) " + c + " = 1; else if (" + c + " > " +
             std::to_string(w) + ") " + c + " = " + std::to_string(w) + ";");
    ctx.line(ctx.out() + "[0] = " + ctx.in(1) + "[" + c + " - 1];");
    if (!oob.empty()) {
      ctx.sink().diagCall({{DiagKind::OutOfBounds, oob}});
    }
  }

  void validate(const FlatModel& fm, const FlatActor& fa) const override {
    checkSameType(fm, fa, 1);
    if (fm.signal(fa.inputs[0]).width != 1) {
      throw ModelError("actor '" + fa.path +
                       "': IndexVector index must be scalar");
    }
  }
};

}  // namespace

void registerRoutingActors(std::vector<std::unique_ptr<ActorSpec>>& out) {
  out.push_back(std::make_unique<SwitchSpec>());
  out.push_back(std::make_unique<MultiportSwitchSpec>());
  out.push_back(std::make_unique<MuxSpec>());
  out.push_back(std::make_unique<DemuxSpec>());
  out.push_back(std::make_unique<SelectorSpec>());
  out.push_back(std::make_unique<IndexVectorSpec>());
}

}  // namespace accmos
