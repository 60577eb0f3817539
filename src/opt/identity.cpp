#include "opt/passes.h"

#include "actors/common.h"
#include "actors/spec.h"

namespace accmos::opt {
namespace {

// The runtime Value an un-gated Constant/Ground producer yields, read as
// its eval() reads it: an integer Constant's literals exactly, any other
// Constant's parameter list stored through the output signal's type.
bool producerConstValue(const FlatModel& fm, int sigId, Value* out) {
  const SignalInfo& si = fm.signal(sigId);
  if (si.producerActor < 0) return false;
  const FlatActor& p = fm.actor(si.producerActor);
  if (p.enableSignal >= 0) return false;
  Value v(si.type, si.width);
  if (p.type() == "Ground") {
    for (int i = 0; i < si.width; ++i) v.setI(i, 0);
  } else if (p.type() == "Constant" && isIntType(si.type)) {
    const std::vector<Int128> vals =
        intConstantValues(*p.src, si.type, si.width);
    for (int i = 0; i < si.width; ++i) {
      v.setI(i, static_cast<int64_t>(vals[static_cast<size_t>(i)]));
    }
  } else if (p.type() == "Constant") {
    std::vector<double> vals = p.src->params().getDoubleList("value");
    if (vals.empty()) vals.push_back(p.src->params().getDouble("value", 0.0));
    vals.resize(static_cast<size_t>(si.width), vals.back());
    for (int i = 0; i < si.width; ++i) v.store(i, vals[i]);
  } else {
    return false;
  }
  *out = std::move(v);
  return true;
}

// Every element of the constant, read in the consumer's compute domain
// (double for float outputs, int64 otherwise — mirroring inD()/inI()),
// equals `want`.
bool allElems(const Value& v, bool floatDomain, double want) {
  for (int i = 0; i < v.width(); ++i) {
    if (floatDomain) {
      if (v.asDouble(i) != want) return false;
    } else {
      if (v.asInt(i) != static_cast<int64_t>(want)) return false;
    }
  }
  return true;
}

// The signal `in` can stand in for `out` bit-exactly at every consumer:
// identical type and width (no broadcast, no conversion).
bool sameShape(const FlatModel& fm, int in, int out) {
  const SignalInfo& a = fm.signal(in);
  const SignalInfo& b = fm.signal(out);
  return a.type == b.type && a.width == b.width;
}

// Returns the input signal this actor provably forwards unchanged, or -1.
//
// Float-domain guards: x + 0.0 is NOT an identity ((-0.0) + 0.0 == +0.0
// flips the sign bit), so Sum bypasses are integer-only; x * 1.0 IS exact
// for every finite and infinite double including -0.0, so Gain-of-1 and
// Product bypasses apply to floats too.
int forwardedInput(const FlatModel& fm, const FlatActor& fa) {
  if (fa.outputs.size() != 1 || fa.inputs.empty()) return -1;
  const int out = fa.outputs[0];
  const bool floatOut = isFloatType(fm.signal(out).type);
  const std::string& ty = fa.type();

  if (ty == "Gain") {
    if (fa.src->params().getDouble("gain", 1.0) != 1.0) return -1;
    return sameShape(fm, fa.inputs[0], out) ? fa.inputs[0] : -1;
  }
  if (ty == "Sum") {
    auto ops = parseOps(*fa.src, "++", "+-");
    if (floatOut) return -1;
    if (ops.size() == 1 && ops[0] == '+' &&
        sameShape(fm, fa.inputs[0], out)) {
      return fa.inputs[0];
    }
    if (ops.size() == 2) {
      // Keep the '+' operand, drop a constant-zero operand (x + 0 and
      // x - 0 are both exact in wrap-around integer arithmetic).
      for (int keep = 0; keep < 2; ++keep) {
        int drop = 1 - keep;
        if (ops[static_cast<size_t>(keep)] != '+') continue;
        if (!sameShape(fm, fa.inputs[static_cast<size_t>(keep)], out)) {
          continue;
        }
        Value c;
        if (producerConstValue(fm, fa.inputs[static_cast<size_t>(drop)],
                               &c) &&
            allElems(c, false, 0.0)) {
          return fa.inputs[static_cast<size_t>(keep)];
        }
      }
    }
    return -1;
  }
  if (ty == "Product") {
    auto ops = parseOps(*fa.src, "**", "*/");
    if (ops.size() == 1 && ops[0] == '*' &&
        sameShape(fm, fa.inputs[0], out)) {
      return fa.inputs[0];  // acc = 1 * x: exact for int and float
    }
    if (ops.size() == 2) {
      for (int keep = 0; keep < 2; ++keep) {
        int drop = 1 - keep;
        if (ops[static_cast<size_t>(keep)] != '*') continue;
        if (!sameShape(fm, fa.inputs[static_cast<size_t>(keep)], out)) {
          continue;
        }
        Value c;
        if (producerConstValue(fm, fa.inputs[static_cast<size_t>(drop)],
                               &c) &&
            allElems(c, floatOut, 1.0)) {
          return fa.inputs[static_cast<size_t>(keep)];  // x*1 or x/1: exact
        }
      }
    }
    return -1;
  }
  return -1;
}

}  // namespace

void simplifyIdentities(FlatModel& fm, const SimOptions& opt,
                        OptStats& stats) {
  (void)opt;  // the bypassed actor still evaluates, so no instrumentation
              // guard is needed — only consumers are rewired
  const Registry& reg = Registry::instance();

  // fwd maps a signal to the signal it is provably identical to; resolve()
  // collapses chains built up as the schedule is walked in order.
  std::vector<int> fwd(fm.signals.size());
  for (size_t k = 0; k < fwd.size(); ++k) fwd[k] = static_cast<int>(k);
  auto resolve = [&](int s) {
    while (fwd[static_cast<size_t>(s)] != s) s = fwd[static_cast<size_t>(s)];
    return s;
  };

  for (int id : fm.schedule) {
    const FlatActor& fa = fm.actors[static_cast<size_t>(id)];
    if (fa.delayClass || fa.enableSignal >= 0 || fa.dataStore >= 0) continue;
    if (reg.get(fa).state(fm, fa).has_value()) continue;
    int in = forwardedInput(fm, fa);
    if (in < 0) continue;
    fwd[static_cast<size_t>(fa.outputs[0])] = resolve(in);
    stats.identitiesBypassed += 1;
  }
  if (stats.identitiesBypassed == 0) return;

  // Rewire consumers through the forwarding map. Scope/Display inputs stay
  // as wired: the engines collect those exact signals, and rewiring them
  // would change the reported monitor paths.
  for (auto& fa : fm.actors) {
    if (fa.type() == "Scope" || fa.type() == "Display") continue;
    for (int& in : fa.inputs) in = resolve(in);
    if (fa.enableSignal >= 0) fa.enableSignal = resolve(fa.enableSignal);
  }
}

}  // namespace accmos::opt
