#include "codegen/runtime_preamble.h"

namespace accmos {

std::string_view runtimePreamble() {
  static constexpr std::string_view kPreamble = R"RT(
// ---- AccMoS generated simulation runtime ---------------------------------
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>

static inline int accmos_isfinite(double v) { return v - v == 0.0; }

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
// ---- end of preamble: the runtime core follows ---------------------------
)RT";
  return kPreamble;
}

}  // namespace accmos
