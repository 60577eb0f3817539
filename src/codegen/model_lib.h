// RAII wrapper around a dlopen()ed generated model library — the in-process
// execution backend. The library is loaded once per engine (RTLD_NOW |
// RTLD_LOCAL, absolute path); every simulation afterwards is a direct
// accmos_run() call writing into caller-owned binary buffers, with no
// subprocess and no text parsing on the hot path.
//
// Reentrancy contract: accmos_run() allocates a private model-state
// instance per call, so any number of threads may call run() on one
// ModelLib concurrently (campaign and test-generation workers share the
// loaded library).
#pragma once

#include <string>

#include "codegen/compiler_driver.h"
#include "codegen/run_abi.h"

namespace accmos {

class ModelLib {
 public:
  // Loads the shared library at `path` and resolves + validates the ABI
  // entry points. Version negotiation: the info query is issued with the
  // host's (v2) struct size first; a library that rejects it with
  // ACCMOS_ABI_EARG is retried with the 88-byte v1 size, and accepted when
  // it reports abiVersion 1. Throws
  // CompileError (carrying the dlerror/description) when the library
  // cannot be loaded, a mandatory symbol is missing, or the library's ABI
  // version is neither the host's nor 1. The ACCMOS_FAULT=dlopen-fail
  // directive (or the legacy ACCMOS_DLOPEN_FAIL variable) forces the
  // constructor to throw — a test hook for the subprocess fallback path.
  explicit ModelLib(const std::string& path);
  ~ModelLib();

  ModelLib(const ModelLib&) = delete;
  ModelLib& operator=(const ModelLib&) = delete;

  // Model geometry reported by the library (buffer sizes for run()).
  const AccmosModelInfo& info() const { return info_; }

  // ABI version the library actually implements (1 or ACCMOS_ABI_VERSION).
  // Callers must stamp this — not their own compile-time constant — into
  // AccmosRunArgs/AccmosRunResult so a v1 library's version check passes.
  uint32_t abiVersion() const { return info_.abiVersion; }

  // structSize a caller must stamp into AccmosRunArgs for THIS library.
  // v3 appended the deadline/stepBudget fields, so a v3 host talking to an
  // older library must present the smaller pre-v3 layout (which the v1
  // and v2 size checks accept) — the deadline fields simply do not travel,
  // and the host-side watchdog is the only deadline enforcement for such
  // libraries.
  uint32_t runArgsSize() const {
    return info_.abiVersion >= 3u ? static_cast<uint32_t>(sizeof(AccmosRunArgs))
                                  : ACCMOS_ABI_RUN_ARGS_SIZE_V2;
  }

  // True when the library understands ABI v3 deadlines (deadlineSeconds /
  // stepBudget in the run args, timedOut in the results). Callers that
  // need a hard deadline against an older library must route the run to
  // the subprocess backend, whose watchdog works for any library age.
  bool supportsDeadlines() const { return info_.abiVersion >= 3u; }

  // One simulation run; returns the ABI status code (ACCMOS_ABI_OK on
  // success). Thread-safe: see the reentrancy contract above.
  int run(const AccmosRunArgs& args, AccmosRunResult& res) const {
    return run_(&args, &res);
  }

  // Wall time spent in dlopen + symbol resolution + info query.
  double loadSeconds() const { return loadSeconds_; }

  const std::string& path() const { return path_; }

  // Process-wide count of successful library loads — the "did this request
  // dlopen anything fresh" regression handle, mirroring
  // CompilerDriver::compilerInvocations(): the model-library pool's
  // warm-hit guarantee is `loadCount()` unchanged across the request.
  static long loadCount();

 private:
  std::string path_;
  void* handle_ = nullptr;
  AccmosRunFn run_ = nullptr;
  AccmosModelInfo info_{};
  double loadSeconds_ = 0.0;
};

}  // namespace accmos
