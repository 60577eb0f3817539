// RAII wrapper around a dlopen()ed generated model library — the in-process
// execution backend. The library is loaded once per engine (RTLD_NOW |
// RTLD_LOCAL, absolute path); every simulation afterwards is a direct
// accmos_run() call writing into caller-owned binary buffers, with no
// subprocess on the hot path.
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
  // entry points. Throws CompileError (carrying the dlerror/description)
  // when the library cannot be loaded, a mandatory symbol is missing, or
  // the library was built for another ABI version. The
  // ACCMOS_FAULT=dlopen-fail directive forces the constructor to throw — a
  // test hook for the subprocess fallback path.
  explicit ModelLib(const std::string& path);
  ~ModelLib();

  ModelLib(const ModelLib&) = delete;
  ModelLib& operator=(const ModelLib&) = delete;

  // Model geometry reported by the library (buffer sizes for run()).
  const AccmosModelInfo& info() const { return info_; }

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
