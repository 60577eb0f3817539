#include "codegen/runtime_preamble.h"

namespace accmos {

std::string_view runtimePreamble() {
  static constexpr std::string_view kPreamble = R"RT(
// ---- AccMoS generated simulation runtime ---------------------------------
// Generated code parses no C++ standard header: two C headers, and below
// them the C library functions it may call.
#include <stdint.h>
#include <time.h>

// The coverage bitmaps are bool arrays, copied out byte for byte.
static_assert(sizeof(bool) == 1, "bool must be one byte");

// Every C library function emitted code may call, declared as glibc
// declares it (extern "C", noexcept), so a <cmath> included after this
// point redeclares the same functions: the Trigonometry, Math and Rounding
// ops, SineWave's sin, Abs's fabs, Sqrt's sqrt, and memcpy.
extern "C" {
double sin(double) noexcept;
double cos(double) noexcept;
double tan(double) noexcept;
double asin(double) noexcept;
double acos(double) noexcept;
double atan(double) noexcept;
double atan2(double, double) noexcept;
double sinh(double) noexcept;
double cosh(double) noexcept;
double tanh(double) noexcept;
double exp(double) noexcept;
double log(double) noexcept;
double log10(double) noexcept;
double sqrt(double) noexcept;
double pow(double, double) noexcept;
double hypot(double, double) noexcept;
double fmod(double, double) noexcept;
double floor(double) noexcept;
double ceil(double) noexcept;
double trunc(double) noexcept;
double nearbyint(double) noexcept;
double fabs(double) noexcept;
void* memcpy(void*, const void*, size_t) noexcept;
}

static inline int accmos_isfinite(double v) { return v - v == 0.0; }

// Nanoseconds on CLOCK_MONOTONIC, the clock the host's
// std::chrono::steady_clock reads.
static inline int64_t accmos_now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000LL + (int64_t)ts.tv_nsec;
}

// Deadline clock: absolute seconds on the SAME monotonic clock the host
// reads, converted as std::chrono::duration<double> converts, so an
// AccmosRunArgs::deadlineSeconds computed host-side compares directly in
// the generated step loop.
static inline double accmos_now_s(void) {
  return (double)accmos_now_ns() / 1e9;
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
// ---- end of preamble: the runtime core follows ---------------------------
)RT";
  return kPreamble;
}

}  // namespace accmos
