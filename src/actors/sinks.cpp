// Sink actors: Outport, Terminator, Scope, Display, Assertion,
// StopSimulation.
#include "actors/common.h"

namespace accmos {
namespace {

class OutportSpec : public ActorSpec {
 public:
  std::string type() const override { return "Outport"; }
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 0};
  }
  // The engine reads the input signal as a model output after each step.
  void eval(EvalContext&) const override {}
  void emit(EmitContext&) const override {}
};

class TerminatorSpec : public ActorSpec {
 public:
  std::string type() const override { return "Terminator"; }
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 0};
  }
  void eval(EvalContext&) const override {}
  void emit(EmitContext&) const override {}
};

// Scope and Display are signal monitors: the engines auto-collect their
// input signals (paper Fig. 3's outputCollect path).
class ScopeSpec : public ActorSpec {
 public:
  std::string type() const override { return "Scope"; }
  ActorCatalog::PortLayout ports(const Actor& a) const override {
    return {a.intParam("inputs", 1, 0, kMaxDimParam), 0};
  }
  void eval(EvalContext&) const override {}
  void emit(EmitContext&) const override {}
};

class DisplaySpec : public ActorSpec {
 public:
  std::string type() const override { return "Display"; }
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 0};
  }
  void eval(EvalContext&) const override {}
  void emit(EmitContext&) const override {}
};

class AssertionSpec : public ActorSpec {
 public:
  std::string type() const override { return "Assertion"; }
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 0};
  }

  std::vector<DiagKind> diagnostics(const FlatModel&,
                                    const FlatActor&) const override {
    return {DiagKind::AssertionFailed};
  }

  void eval(EvalContext& ctx) const override {
    const Value& v = ctx.in(0);
    bool ok = true;
    for (int i = 0; i < v.width(); ++i) ok = ok && v.asBool(i);
    if (!ok) {
      ctx.reportDiag(DiagKind::AssertionFailed,
                     ctx.fa().src->params().getString("message"));
      if (ctx.fa().src->params().getBool("stopOnFail", false)) {
        ctx.requestStop();
      }
    }
  }

  void emit(EmitContext& ctx) const override {
    std::string ok = ctx.sink().freshVar("ok");
    ctx.line("int " + ok + " = 1;");
    beginElemLoop(ctx, ctx.inWidth(0));
    ctx.line(ok + " &= (" + ctx.in(0) + "[i] != 0);");
    endElemLoop(ctx);
    if (ctx.sink().diagOn(DiagKind::AssertionFailed)) {
      ctx.sink().diagCall({{DiagKind::AssertionFailed, "!" + ok}});
    }
    if (ctx.fa().src->params().getBool("stopOnFail", false)) {
      ctx.line("if (!" + ok + ") accmos_stop = 1;");
    }
  }
};

class StopSimulationSpec : public ActorSpec {
 public:
  std::string type() const override { return "StopSimulation"; }
  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 0};
  }

  void eval(EvalContext& ctx) const override {
    const Value& v = ctx.in(0);
    for (int i = 0; i < v.width(); ++i) {
      if (v.asBool(i)) {
        ctx.requestStop();
        return;
      }
    }
  }

  void emit(EmitContext& ctx) const override {
    beginElemLoop(ctx, ctx.inWidth(0));
    ctx.line("if (" + ctx.in(0) + "[i] != 0) accmos_stop = 1;");
    endElemLoop(ctx);
  }
};

}  // namespace

void registerSinkActors(std::vector<std::unique_ptr<ActorSpec>>& out) {
  out.push_back(std::make_unique<OutportSpec>());
  out.push_back(std::make_unique<TerminatorSpec>());
  out.push_back(std::make_unique<ScopeSpec>());
  out.push_back(std::make_unique<DisplaySpec>());
  out.push_back(std::make_unique<AssertionSpec>());
  out.push_back(std::make_unique<StopSimulationSpec>());
}

}  // namespace accmos
