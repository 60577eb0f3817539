// The host's view of the runtime core (ir/arith_core.h).
//
// Every engine — the boxed interpreter, the typed bytecode/closure engines
// and the C++ code AccMoS generates — must agree bit for bit on integer
// wrapping, saturation, real-to-int stores and division, or the
// differential tests (and the paper's claim that generated code detects
// the same errors as SSE) fall apart. The core holds each rule once, and
// generated libraries compile its exact text. This header only maps a
// runtime DataType to the core's storage type T: each function below is
// one switch over the core, with no second body.
//
// Integer operands are exact: an engine reads an element as the Int128
// value its type holds (a u64 at or above 2^63 stays positive), computes
// on exact values and folds the result into the output type.
#pragma once

#include <cmath>
#include <cstdint>

#include "ir/arith_core.h"
#include "ir/datatype.h"

namespace accmos {

using Int128 = __int128;

// accmos_res: `value` is the stored value, exact; `wrapped` flags a wrap
// (or a clamp when saturating); `prec` flags a real input that was not a
// whole number.
using IntResult = accmos_res;

// Calls f(T{}) for integer or bool type t's C++ storage type T.
template <typename F>
inline auto withIntType(DataType t, F f) {
  switch (t) {
    case DataType::Bool: return f(bool{});
    case DataType::I8: return f(int8_t{});
    case DataType::I16: return f(int16_t{});
    case DataType::I32: return f(int32_t{});
    case DataType::U8: return f(uint8_t{});
    case DataType::U16: return f(uint16_t{});
    case DataType::U32: return f(uint32_t{});
    case DataType::U64: return f(uint64_t{});
    case DataType::I64:
    default: return f(int64_t{});
  }
}

// The exact value of a t element held as a 64-bit slot pattern.
inline Int128 widen(DataType t, uint64_t bits) {
  return withIntType(t, [bits](auto z) {
    return accmos_widen<decltype(z)>(bits);
  });
}

// Folds `x` into integer or bool type t: an exact Int128 wraps (or clamps
// when `sat`); a double is a real-to-int store.
template <typename X>
inline IntResult fold(DataType t, X x, bool sat) {
  return withIntType(t, [x, sat](auto z) {
    return accmos_fold<decltype(z)>(x, sat ? 1 : 0);
  });
}

// The wrapping fold and the wrapping real-to-int store (round to nearest).
inline IntResult wrapStore(DataType t, Int128 exact) {
  return fold(t, exact, false);
}
inline IntResult storeDoubleAsInt(DataType t, double v) {
  return fold(t, v, false);
}

// Product's quotient a / b folded into t; a zero divisor yields 0 and sets
// *divByZero.
inline IntResult intDiv(DataType t, Int128 a, Int128 b, bool sat,
                        int* divByZero) {
  return fold(t, accmos_quot(a, b, divByZero), sat);
}

inline int64_t f2i(double v) { return accmos_f2i(v); }

// The deterministic stimulus generator shared by all engines.
struct SplitMix64 {
  uint64_t state = 0;

  explicit SplitMix64(uint64_t seed = 0) : state(seed) {}

  uint64_t next() { return accmos_sm64_next(&state); }

  // Uniform double in [0, 1).
  double nextUnit() { return accmos_sm64_unit(&state); }

  double nextUniform(double lo, double hi) {
    return lo + nextUnit() * (hi - lo);
  }
};

// Derives an independent per-port stream from a run seed.
inline uint64_t portSeed(uint64_t runSeed, int portIndex) {
  return accmos_portseed(runSeed, portIndex);
}

}  // namespace accmos
