#include "codegen/runtime_preamble.h"

namespace accmos {

std::string_view runtimePreamble() {
  static constexpr std::string_view kPreamble = R"RT(
// ---- AccMoS generated simulation runtime ---------------------------------
// Behavioural mirror of the in-process engines' arithmetic core; do not
// edit by hand.
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>

struct accmos_wrapres { int64_t value; int wrapped; int prec; };
struct accmos_divres { int64_t value; int wrapped; int divzero; };

template <typename T>
struct accmos_uns { static const bool value = static_cast<T>(0) < static_cast<T>(-1); };

static inline int accmos_isfinite(double v) { return v - v == 0.0; }

static inline int64_t accmos_f2i(double v) {
  if (v != v) return 0;
  if (v >= 9223372036854775808.0) return INT64_MAX;
  if (v <= -9223372036854775808.0) return INT64_MIN;
  return (int64_t)v;
}

template <typename T>
static inline accmos_wrapres accmos_store_w(__int128 acc) {
  accmos_wrapres r;
  r.prec = 0;
  T t = (T)(uint64_t)(unsigned __int128)acc;
  r.value = (int64_t)t;
  __int128 back;
  if (accmos_uns<T>::value) back = (__int128)(uint64_t)t;
  else back = (__int128)(int64_t)t;
  r.wrapped = (back != acc);
  return r;
}

template <typename T>
static inline accmos_wrapres accmos_store_d(double v) {
  accmos_wrapres r;
  r.wrapped = 0;
  r.prec = 0;
  double rounded = nearbyint(v);
  if (rounded != v) r.prec = 1;
  int64_t wide;
  if (v != v) { wide = 0; r.prec = 1; }
  else if (rounded >= 9.2233720368547758e18) { wide = INT64_MAX; r.wrapped = 1; }
  else if (rounded <= -9.2233720368547758e18) { wide = INT64_MIN; r.wrapped = 1; }
  else wide = (int64_t)rounded;
  accmos_wrapres w = accmos_store_w<T>((__int128)wide);
  w.wrapped |= r.wrapped;
  w.prec |= r.prec;
  return w;
}

#define ACCMOS_STORE(NAME, T)                                                 \
  static inline accmos_wrapres accmos_store_##NAME(__int128 a) {              \
    return accmos_store_w<T>(a);                                              \
  }                                                                           \
  static inline accmos_wrapres accmos_store_##NAME(double v) {                \
    return accmos_store_d<T>(v);                                              \
  }
ACCMOS_STORE(bool, bool)
ACCMOS_STORE(i8, int8_t)
ACCMOS_STORE(i16, int16_t)
ACCMOS_STORE(i32, int32_t)
ACCMOS_STORE(i64, int64_t)
ACCMOS_STORE(u8, uint8_t)
ACCMOS_STORE(u16, uint16_t)
ACCMOS_STORE(u32, uint32_t)
ACCMOS_STORE(u64, uint64_t)
#undef ACCMOS_STORE

template <typename T>
static inline accmos_wrapres accmos_sat_w(__int128 acc) {
  accmos_wrapres r;
  r.prec = 0;
  r.wrapped = 0;
  __int128 lo, hi;
  if (accmos_uns<T>::value) {
    lo = 0;
    hi = (__int128)(T)~(T)0;
  } else {
    lo = -((__int128)1 << (sizeof(T) * 8 - 1));
    hi = ((__int128)1 << (sizeof(T) * 8 - 1)) - 1;
  }
  if (acc < lo) { acc = lo; r.wrapped = 1; }
  else if (acc > hi) { acc = hi; r.wrapped = 1; }
  accmos_wrapres w = accmos_store_w<T>(acc);
  r.value = w.value;
  return r;
}

template <typename T>
static inline accmos_wrapres accmos_sat_d(double v) {
  accmos_wrapres r;
  r.wrapped = 0;
  r.prec = 0;
  double rounded = nearbyint(v);
  if (rounded != v) r.prec = 1;
  __int128 wide;
  if (v != v) { wide = 0; r.prec = 1; }
  else if (rounded >= 1.7014118346046923e38) wide = (__int128)INT64_MAX;
  else if (rounded <= -1.7014118346046923e38) wide = -(__int128)INT64_MAX - 1;
  else wide = (__int128)rounded;
  accmos_wrapres w = accmos_sat_w<T>(wide);
  w.prec |= r.prec;
  return w;
}

#define ACCMOS_SAT(NAME, T)                                                   \
  static inline accmos_wrapres accmos_sat_##NAME(__int128 a) {                \
    return accmos_sat_w<T>(a);                                                \
  }                                                                           \
  static inline accmos_wrapres accmos_sat_##NAME(double v) {                  \
    return accmos_sat_d<T>(v);                                                \
  }
ACCMOS_SAT(i8, int8_t)
ACCMOS_SAT(i16, int16_t)
ACCMOS_SAT(i32, int32_t)
ACCMOS_SAT(i64, int64_t)
ACCMOS_SAT(u8, uint8_t)
ACCMOS_SAT(u16, uint16_t)
ACCMOS_SAT(u32, uint32_t)
ACCMOS_SAT(u64, uint64_t)
#undef ACCMOS_SAT

#define ACCMOS_DIV(NAME, T)                                                   \
  static inline accmos_divres accmos_div_##NAME(int64_t a, int64_t b) {       \
    accmos_divres r;                                                          \
    r.value = 0; r.wrapped = 0; r.divzero = 0;                                \
    if (b == 0) { r.divzero = 1; return r; }                                  \
    accmos_wrapres w = accmos_store_w<T>((__int128)a / b);                    \
    r.value = w.value; r.wrapped = w.wrapped;                                 \
    return r;                                                                 \
  }
ACCMOS_DIV(bool, bool)
ACCMOS_DIV(i8, int8_t)
ACCMOS_DIV(i16, int16_t)
ACCMOS_DIV(i32, int32_t)
ACCMOS_DIV(i64, int64_t)
ACCMOS_DIV(u8, uint8_t)
ACCMOS_DIV(u16, uint16_t)
ACCMOS_DIV(u32, uint32_t)
ACCMOS_DIV(u64, uint64_t)
#undef ACCMOS_DIV

// Floored modulo (Simulink "mod"); mirrors MathSpec::apply.
static inline double accmos_fmod_floor(double a, double b) {
  double m = fmod(a, b);
  if (m != 0.0 && ((m < 0.0) != (b < 0.0))) m += b;
  return m;
}

// 1-D table lookup with clipping; mirrors actors/lookup.cpp lut1().
static inline double accmos_lut1(const double* xs, const double* ys, int n,
                                 double v, int nearest, int* outcome) {
  if (v <= xs[0]) { *outcome = v < xs[0] ? 0 : 1; return ys[0]; }
  if (v >= xs[n - 1]) { *outcome = v > xs[n - 1] ? 2 : 1; return ys[n - 1]; }
  *outcome = 1;
  int k = 0;
  while (k + 2 < n && v >= xs[k + 1]) ++k;
  double x0 = xs[k], x1 = xs[k + 1], y0 = ys[k], y1 = ys[k + 1];
  if (nearest) return (v - x0 <= x1 - v) ? y0 : y1;
  return y0 + (y1 - y0) * (v - x0) / (x1 - x0);
}

// Clamping bilinear lookup; mirrors Lookup2DSpec::bilinear.
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
  double x0 = xs[ix], x1 = xs[ix + 1];
  double y0 = ys[iy], y1 = ys[iy + 1];
  double tx = (u - x0) / (x1 - x0);
  double ty = (v - y0) / (y1 - y0);
  double z00 = zs[ix * ny + iy], z01 = zs[ix * ny + iy + 1];
  double z10 = zs[(ix + 1) * ny + iy], z11 = zs[(ix + 1) * ny + iy + 1];
  double a = z00 + (z10 - z00) * tx;
  double b = z01 + (z11 - z01) * tx;
  return a + (b - a) * ty;
}

// SplitMix64 stimulus stream; mirrors ir/arith.h SplitMix64.
static inline uint64_t accmos_sm64_next(uint64_t* state) {
  *state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

static inline double accmos_sm64_unit(uint64_t* state) {
  return (double)(accmos_sm64_next(state) >> 11) * 0x1.0p-53;
}

// Per-port stream derivation; mirrors ir/arith.h portSeed().
static inline uint64_t accmos_portseed(uint64_t runSeed, int portIndex) {
  uint64_t state = runSeed ^ (0xA24BAED4963EE407ULL +
                              (uint64_t)portIndex * 0x9FB21C651E98DF25ULL);
  return accmos_sm64_next(&state);
}

// Deadline clock: absolute seconds on the SAME monotonic clock the host
// reads (std::chrono::steady_clock), so an AccmosRunArgs::deadlineSeconds
// computed host-side compares directly in the generated step loop.
static inline double accmos_now_s(void) {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Cooperative pause used by injected hangs (ACCMOS_FAULT=hang...): spin
// politely so a hung run burns ~no CPU while it waits for its deadline
// (or, with no deadline, for the host watchdog to kill it).
static inline void accmos_pause_ms(int ms) {
  struct timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (long)(ms % 1000) * 1000000L;
  nanosleep(&ts, 0);
}

// Binary-ABI value packing: floats travel as their IEEE-754 double bit
// pattern, so the host-side decoder recovers them bit for bit.
static inline uint64_t accmos_pack_f(double v) {
  uint64_t u;
  memcpy(&u, &v, 8);
  return u;
}

// accmos_stop / accmos_diag_fired live in the per-run model-state struct
// (accmos_model), so concurrent in-process runs cannot observe each other.
// ---- end of runtime ------------------------------------------------------
)RT";
  return kPreamble;
}

}  // namespace accmos
