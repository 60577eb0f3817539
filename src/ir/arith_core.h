// The runtime core: the one definition of integer folding, real-to-int
// stores, wide products, Product's quotient, lookups and the stimulus
// stream.
//
// The host compiles this header through ir/arith.h, and CMake embeds its
// exact text into every generated library after the runtime preamble (see
// runtimeCoreText()). So the interpreters and the generated code run the
// same functions: the paper's wrap-on-overflow diagnosis has one
// definition. Rules for editing it:
//  - self-contained C++17 (generated code is compiled as C++17, the host
//    as C++20), with an #ifndef guard: #pragma once warns in a main file;
//  - it includes only <stdint.h> and declares the two C library functions
//    it calls itself, as glibc declares them (extern "C", noexcept), so
//    generated code parses no C++ header and the host's <cmath> agrees;
//  - only static inline, accmos_-prefixed free functions and templates on
//    the C++ storage type T (bool, int8_t ... uint64_t): no host types;
//  - every local is initialized where it is declared, so generated code
//    stays clean under -Werror=maybe-uninitialized.
#ifndef ACCMOS_ARITH_CORE_H_
#define ACCMOS_ARITH_CORE_H_

#include <stdint.h>

extern "C" {
double nearbyint(double) noexcept;
double fmod(double, double) noexcept;
}

// One stored value. `value` is what T holds, widened exactly; `wrapped`
// says it differs from the exact input (a wrap, or a clamp when
// saturating); `prec` says a real input was not a whole number or was NaN.
struct accmos_res {
  __int128 value;
  int wrapped;
  int prec;
};

// The exact value of a T element stored as a 64-bit slot pattern.
template <typename T>
static inline __int128 accmos_widen(uint64_t bits) {
  return (__int128)(T)bits;
}

// Folds an exact integer into T: two's-complement wrap, or a clamp to T's
// range when `sat`. A bool stores 1 for any nonzero value.
template <typename T>
static inline accmos_res accmos_fold(__int128 exact, int sat) {
  accmos_res r = {exact, 0, 0};
  if (!sat) {
    r.value = (__int128)(T)exact;
  } else if ((T)-1 > (T)0) {
    const __int128 hi = (__int128)(T)-1;
    r.value = exact < 0 ? 0 : (exact > hi ? hi : exact);
  } else {
    const __int128 hi = ((__int128)1 << (sizeof(T) * 8 - 1)) - 1;
    r.value = exact < -hi - 1 ? -hi - 1 : (exact > hi ? hi : exact);
  }
  r.wrapped = r.value != exact;
  return r;
}

// Stores a real into T: round to nearest, then fold that integer like any
// other (a wrap, or a clamp to T's range when `sat`), flagged exactly when
// the stored value differs from it. A magnitude of 2^127 or more, or an
// infinity, is beyond every type and folds from such a value with v's
// sign: a clamp stores T's bound, and a wrap stores 0, the exact low 64
// bits of every double of 2^116 or more. NaN stores 0 unflagged.
template <typename T>
static inline accmos_res accmos_fold(double v, int sat) {
  const double rounded = nearbyint(v);
  const __int128 beyond = (__int128)1 << 126;
  __int128 wide = 0;
  if (v != v) {
    // NaN stores 0.
  } else if (rounded > -9.2233720368547758e18 &&
             rounded < 9.2233720368547758e18) {
    // Most stores: an int64_t conversion is one instruction, while a
    // double-to-__int128 conversion is a library call.
    wide = (int64_t)rounded;
  } else if (rounded > -1.7014118346046923e38 &&
             rounded < 1.7014118346046923e38) {
    wide = (__int128)rounded;
  } else {
    wide = rounded > 0 ? beyond : -beyond;
  }
  accmos_res r = accmos_fold<T>(wide, sat);
  r.prec = rounded != v;  // NaN compares unequal to itself
  return r;
}

// The product of two exact operands of 64-bit types. It is exact unless
// both are at least 2^63; that product is at least 2^126, beyond every
// type, and may not fit __int128, so it becomes a value at least 2^126
// with the same low 64 bits: a wrap still stores the right value, and a
// wrap or clamp still fires.
static inline __int128 accmos_mul(__int128 a, __int128 b) {
  const __int128 half = (__int128)1 << 63;
  if (a < half || b < half) return a * b;
  const unsigned __int128 top = (unsigned __int128)1 << 126;
  const unsigned __int128 p = (unsigned __int128)a * (unsigned __int128)b;
  return (__int128)((p & (top - 1)) | top);
}

// Product's quotient: a / b truncated toward zero. A zero divisor yields 0,
// which every fold stores unflagged, and sets *divzero.
static inline __int128 accmos_quot(__int128 a, __int128 b, int* divzero) {
  if (b == 0) {
    *divzero = 1;
    return 0;
  }
  return a / b;
}

// Real to int64, truncating, with NaN -> 0 and out-of-range inputs clamped
// (a plain cast is undefined there).
static inline int64_t accmos_f2i(double v) {
  if (v != v) return 0;
  if (v >= 9223372036854775808.0) return INT64_MAX;
  if (v <= -9223372036854775808.0) return INT64_MIN;
  return (int64_t)v;
}

// Floored modulo (Simulink "mod"): the result takes the divisor's sign.
static inline double accmos_fmod_floor(double a, double b) {
  double m = fmod(a, b);
  if (m != 0.0 && ((m < 0.0) != (b < 0.0))) m += b;
  return m;
}

// 1-D clipping lookup over n breakpoints, linear or nearest. *outcome is 0
// below the range, 1 inside it, 2 above it.
static inline double accmos_lut1(const double* xs, const double* ys, int n,
                                 double v, int nearest, int* outcome) {
  if (v <= xs[0]) {
    *outcome = v < xs[0] ? 0 : 1;
    return ys[0];
  }
  if (v >= xs[n - 1]) {
    *outcome = v > xs[n - 1] ? 2 : 1;
    return ys[n - 1];
  }
  *outcome = 1;
  int k = 0;
  while (k + 2 < n && v >= xs[k + 1]) ++k;
  const double x0 = xs[k], x1 = xs[k + 1], y0 = ys[k], y1 = ys[k + 1];
  if (nearest) return (v - x0 <= x1 - v) ? y0 : y1;
  return y0 + (y1 - y0) * (v - x0) / (x1 - x0);
}

// Clamping bilinear lookup; zs is row-major over x (zs[ix * ny + iy]).
// Sets *clipped when an input lies outside its breakpoints.
static inline double accmos_lut2(const double* xs, int nx, const double* ys,
                                 int ny, const double* zs, double u, double v,
                                 int* clipped) {
  if (u < xs[0]) { u = xs[0]; *clipped = 1; }
  if (u > xs[nx - 1]) { u = xs[nx - 1]; *clipped = 1; }
  if (v < ys[0]) { v = ys[0]; *clipped = 1; }
  if (v > ys[ny - 1]) { v = ys[ny - 1]; *clipped = 1; }
  int ix = 0;
  while (ix + 2 < nx && u >= xs[ix + 1]) ++ix;
  int iy = 0;
  while (iy + 2 < ny && v >= ys[iy + 1]) ++iy;
  const double x0 = xs[ix], x1 = xs[ix + 1];
  const double y0 = ys[iy], y1 = ys[iy + 1];
  const double tx = (u - x0) / (x1 - x0);
  const double ty = (v - y0) / (y1 - y0);
  const double z00 = zs[ix * ny + iy], z01 = zs[ix * ny + iy + 1];
  const double z10 = zs[(ix + 1) * ny + iy], z11 = zs[(ix + 1) * ny + iy + 1];
  const double a = z00 + (z10 - z00) * tx;
  const double b = z01 + (z11 - z01) * tx;
  return a + (b - a) * ty;
}

// The stimulus stream: SplitMix64.
static inline uint64_t accmos_sm64_next(uint64_t* state) {
  *state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Uniform double in [0, 1).
static inline double accmos_sm64_unit(uint64_t* state) {
  return (double)(accmos_sm64_next(state) >> 11) * 0x1.0p-53;
}

// The seed of root Inport `portIndex`'s stream within a run.
static inline uint64_t accmos_portseed(uint64_t runSeed, int portIndex) {
  uint64_t state = runSeed ^ (0xA24BAED4963EE407ULL +
                              (uint64_t)portIndex * 0x9FB21C651E98DF25ULL);
  return accmos_sm64_next(&state);
}

#endif  // ACCMOS_ARITH_CORE_H_
