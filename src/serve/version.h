// Build/protocol identity: what `accmos --version` prints and what the
// client/daemon hello handshake exchanges. One header so the CLI, the
// daemon and the client can never disagree about what they are.
#pragma once

#include <cstdint>
#include <string>

#include "codegen/run_abi.h"

namespace accmos::serve {

// Tool version. Bumped by hand when the observable surface moves; the
// wire-protocol and cache-schema constants below are the compatibility
// gates, this string is for humans and logs.
inline constexpr const char* kAccmosVersion = "0.9.0";

// Wire protocol of the accmosd unix-socket service (docs/SERVICE.md).
// A client and daemon with different protocol versions refuse each other
// at the hello handshake instead of mis-parsing frames. Version 2 dropped
// the batchLanes field from the options codec; version 3 dropped the tier
// option and the tiering fields of campaign results and shard summaries;
// version 4 dropped the execMode and compileCache options and restricts
// optFlag to -O0..-O3; version 5 dropped the optimize option and the ran
// field of optimizer statistics (the pipeline always runs); version 6
// dropped the step budget option, and a run that crashes or times out
// now comes back as a failed result, not as a "timeout" or "crash" error;
// version 7 lets a run or campaign request name its model by an index
// the daemon answered an earlier request's text with on the same
// connection, in place of the text.
inline constexpr uint32_t kProtocolVersion = 7;

// Compile-cache schema: the on-disk layout under $ACCMOS_CACHE_DIR
// (<key>.bin + "<size> <fnv1a64-hex>" sidecar in <key>.meta, FNV-1a-keyed
// content addressing). Operators comparing caches across binaries need to
// know when the layout moved; bump when compiler_driver.cpp changes it.
inline constexpr const char* kCacheSchema = "fnv1a64-bin+meta-v1";

// Multi-line build identity for `accmos --version`.
inline std::string buildInfo() {
  std::string out;
  out += "accmos " + std::string(kAccmosVersion) +
         " (AccMoS reproduction: code-generated Simulink model simulation)\n";
  out += "run ABI    : v" + std::to_string(ACCMOS_ABI_VERSION) +
         " (accmos_run, src/codegen/run_abi.h)\n";
  out += "protocol   : v" + std::to_string(kProtocolVersion) +
         " (accmosd length-prefixed JSON over unix socket)\n";
  out += "cache      : " + std::string(kCacheSchema) +
         " (content-addressed, $ACCMOS_CACHE_DIR)\n";
#if defined(__VERSION__)
  out += "compiler   : " + std::string(__VERSION__) + "\n";
#endif
  return out;
}

}  // namespace accmos::serve
