// Shared helpers for the actor template library implementations.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "actors/spec.h"

namespace accmos {

// ---- interpreter-side element access (scalar inputs broadcast) -----------

inline double inD(EvalContext& ctx, int port, int elem) {
  const Value& v = ctx.in(port);
  return v.asDouble(v.width() == 1 ? 0 : elem);
}

// The one exact integer read: the value the element's type holds (a u64
// at or above 2^63 stays positive); floats truncate through f2i.
inline Int128 inI(EvalContext& ctx, int port, int elem) {
  const Value& v = ctx.in(port);
  return v.asInt(v.width() == 1 ? 0 : elem);
}

inline bool inB(EvalContext& ctx, int port, int elem) {
  const Value& v = ctx.in(port);
  return v.asBool(v.width() == 1 ? 0 : elem);
}

// ---- flag accumulation across vector elements -----------------------------

struct ArithFlags {
  bool wrap = false;
  bool sat = false;  // saturating arithmetic clamped
  bool prec = false;
  bool nan = false;

  // The flag an integer fold sets: the clamp of a saturating actor, else
  // the wrap.
  bool& overflow(bool saturating) { return saturating ? sat : wrap; }
};

// Simulink's per-block "saturate on overflow" arithmetic option. Only the
// specs whose canSaturate() is true clamp (Sum, Product, DataTypeConversion
// and DiscreteIntegrator); validateFlatModel rejects it on any other type.
inline bool saturating(const FlatActor& fa) {
  return fa.src->params().getBool("saturate", false);
}

// Stores `v` into output element with the real-domain conversion rules.
inline void storeReal(EvalContext& ctx, int port, int elem, double v,
                      ArithFlags& fl) {
  Value& out = ctx.out(port);
  if (!std::isfinite(v)) fl.nan = true;
  auto sf = out.store(elem, v);
  fl.wrap = fl.wrap || sf.wrapped;
  fl.prec = fl.prec || sf.precisionLoss;
}

// Folds an exact integer into `t` (a wrap, or a clamp when `sat`), noting
// it in `fl`; returns the stored value, exact.
inline Int128 foldInt(DataType t, Int128 exact, bool sat, ArithFlags& fl) {
  IntResult r = fold(t, exact, sat);
  fl.overflow(sat) |= r.wrapped != 0;
  return r.value;
}

// Reports the accumulated arithmetic diagnostics for the current actor;
// one event per (actor, kind) per step, matching the generated code. The
// downcast check is static (paper Fig. 4 line 4) and fires on every
// execution when the plan includes it.
inline void reportArith(EvalContext& ctx, const ArithFlags& fl) {
  if (fl.wrap) ctx.reportDiag(DiagKind::WrapOnOverflow);
  if (fl.sat) ctx.reportDiag(DiagKind::SaturateOnOverflow);
  if (fl.prec) ctx.reportDiag(DiagKind::PrecisionLoss);
  if (fl.nan) ctx.reportDiag(DiagKind::NanInf);
  ctx.reportDiag(DiagKind::Downcast);
}

// ---- diagnosis trait helpers ----------------------------------------------

// The standard arithmetic diagnosis set for a calculation actor: wrap for
// integer outputs, NaN/Inf for float outputs, downcast and precision loss
// from the input/output type relationship (paper §3.2.B: "the type and
// number of diagnoses vary depending on the actor type and its operator").
std::vector<DiagKind> arithDiags(const FlatModel& fm, const FlatActor& fa);

// True when the flattened actor computes in the real (double) domain.
inline bool realDomain(const FlatModel& fm, const FlatActor& fa) {
  return isFloatType(fm.signal(fa.outputs[0]).type);
}

// ---- codegen-side helpers --------------------------------------------------

// Declares one int flag variable per enabled diagnostic kind; returns the
// variable names (empty string when that kind is not in the plan). Order:
// wrap, precision, nan.
struct EmitFlags {
  std::string wrap;
  std::string sat;
  std::string prec;
  std::string nan;

  // The variable an integer fold sets (see ArithFlags::overflow).
  const std::string& overflow(bool saturating) const {
    return saturating ? sat : wrap;
  }

  std::vector<std::pair<DiagKind, std::string>> asDiagCall() const;
};

EmitFlags declareArithFlags(EmitContext& ctx);

// storeOutStmt variant honouring the actor's saturate-on-overflow option:
// integer outputs clamp and flag flags.sat when `sat`.
std::string storeOutSat(EmitContext& ctx, const std::string& idx,
                        const std::string& expr, const EmitFlags& flags,
                        bool sat);

// Emits `for (int i = 0; i < width; ++i) {`, or `{ const int i = 0;` when
// width is 1: element bodies must not use break or continue.
void beginElemLoop(EmitContext& ctx, int width);
void endElemLoop(EmitContext& ctx);

// Emits the NaN/Inf check on a double expression into flags.nan (no-op when
// the NaN diagnostic is off or the output is not float).
std::string nanCheckStmt(const EmitFlags& flags, const std::string& expr);

// Finishes an actor's emit: diagnostic function call + downcast flag.
void finishEmit(EmitContext& ctx, const EmitFlags& flags);

// ---- misc -------------------------------------------------------------------

// Parses a Sum/Product ops string ("++-", "**/"); throws on bad characters.
std::vector<char> parseOps(const Actor& a, const std::string& def,
                           const std::string& allowed);

// Formats a double as a round-trippable C++ literal ("1.5", "1e30", ...).
std::string fmtD(double v);

// Formats an exact integer as a C++ literal of its value: LL suffix, or
// ULL at or above 2^63.
std::string fmtI(Int128 v);

// An integer Constant's element values, stored in `t` and broadcast to
// `width`. A token that is a decimal integer literal is exact and must fit
// `t` (ModelError naming the actor otherwise); any other token is stored
// as a real, as a float Constant would be.
std::vector<Int128> intConstantValues(const Actor& a, DataType t, int width);

}  // namespace accmos
