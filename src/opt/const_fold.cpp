#include "opt/passes.h"

#include <cstdio>
#include <memory>

#include "actors/spec.h"

namespace accmos::opt {
namespace {

// Formats one folded element so ParamMap::getDoubleList (strtod) parses the
// identical value back. fmtD() is unsuitable here: it renders NaN/Inf as
// C++ expressions ("(0.0/0.0)") that strtod cannot read. %.17g round-trips
// every finite double; "inf"/"nan" are valid strtod spellings, and the
// re-evaluation check below rejects any element that does not survive the
// round trip bit-exactly (e.g. a NaN payload the parser does not
// reproduce).
std::string paramNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// An integer element as the decimal literal an integer Constant parses
// exactly (every value an integer type holds fits int64 or uint64).
std::string decimal(__int128 v) {
  return v < 0 ? std::to_string(static_cast<int64_t>(v))
               : std::to_string(static_cast<uint64_t>(v));
}

// True when eval() is a pure function of the current input signals: no
// state, no data store, no enable gate (a gated actor skips evaluation and
// holds its previous output, so its output is not step-invariant), and not
// delay-class (output comes from state). Step-dependent actors are all
// zero-input sources or stateful, so requiring inputs plus these conditions
// also excludes them.
bool pureCombinational(const FlatModel& fm, const FlatActor& fa,
                       const ActorSpec& spec) {
  return !fa.delayClass && fa.enableSignal < 0 && fa.dataStore < 0 &&
         !spec.state(fm, fa).has_value();
}

}  // namespace

void constantFold(FlatModel& fm, const SimOptions& opt, OptStats& stats) {
  const Registry& reg = Registry::instance();
  const ActorSpec& constSpec = reg.get("Constant");

  // Scratch signal storage shaped exactly like the interpreter's; the
  // sandboxed EvalContext has no instrumentation or stop flag attached, so
  // coverage marks, diagnostics and requestStop() are no-ops during
  // folding.
  std::vector<Value> sig;
  sig.reserve(fm.signals.size());
  for (const auto& s : fm.signals) sig.emplace_back(s.type, s.width);
  std::vector<Value> stores;  // never touched: foldable actors have none
  EvalContext ctx(fm, sig, stores);

  std::vector<char> isConst(fm.signals.size(), 0);

  for (int id : fm.schedule) {
    FlatActor& fa = fm.actors[static_cast<size_t>(id)];
    const ActorSpec& spec = reg.get(fa);
    if (!pureCombinational(fm, fa, spec)) continue;

    bool seed = fa.inputs.empty() &&
                (fa.type() == "Constant" || fa.type() == "Ground");
    if (!seed) {
      if (fa.inputs.empty() || fa.outputs.empty()) continue;
      bool allConst = true;
      for (int in : fa.inputs) {
        allConst = allConst && isConst[static_cast<size_t>(in)] != 0;
      }
      if (!allConst) continue;
    }

    // Evaluate with the actor's real semantics into the scratch signals.
    ctx.setActor(&fa, nullptr);
    try {
      spec.eval(ctx);
    } catch (const ModelError&) {
      continue;  // conservatively treat as non-constant
    }
    for (int out : fa.outputs) isConst[static_cast<size_t>(out)] = 1;
    if (seed) continue;

    // Rewrite to a synthesized Constant only when provably
    // observation-equivalent.
    if (fa.outputs.size() != 1) continue;
    if (opt.diagnosis && !diagKindsFor(fm, fa).empty()) continue;
    if (opt.coverage) {
      // Constant's coverage traits are the defaults; any other trait set
      // would change the plan layout or drop instrumentation marks.
      CovTraits t = covTraitsFor(fa);
      if (!t.countsForActorCoverage || t.decisionOutcomes != 0 ||
          t.numConditions != 0 || t.mcdc) {
        continue;
      }
    }

    const int out = fa.outputs[0];
    const SignalInfo& info = fm.signals[static_cast<size_t>(out)];
    const Value folded = sig[static_cast<size_t>(out)];
    std::string list;
    for (int i = 0; i < folded.width(); ++i) {
      if (i > 0) list += ",";
      list += folded.isFloat() ? paramNum(folded.f(i))
                               : decimal(folded.asInt(i));
    }

    auto synth = std::make_shared<Actor>(fa.src->name(), "Constant");
    synth->setDtype(info.type);
    synth->setWidth(info.width);
    synth->params().set("value", list);

    // Re-evaluate the synthesized Constant and require a bit-identical
    // Value; this single check subsumes every representability concern
    // (parameter round-trip, float->int store semantics, NaN payloads).
    FlatActor cand = fa;
    cand.src = synth.get();
    cand.inputs.clear();
    ctx.setActor(&cand, nullptr);
    constSpec.eval(ctx);
    bool exact = sig[static_cast<size_t>(out)] == folded;
    sig[static_cast<size_t>(out)] = folded;
    if (!exact) continue;

    fa.src = synth.get();
    fa.inputs.clear();
    fm.synthesized.push_back(std::move(synth));
    stats.actorsFolded += 1;
  }
}

}  // namespace accmos::opt
