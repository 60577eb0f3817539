// Compile-and-execute step of the AccMoS pipeline: writes the generated
// source, invokes the host C++ compiler (the paper uses GCC -O3) to build
// the model's shared library, and runs simulation processes under a
// watchdog for the subprocess backend.
//
// Compilation is fronted by a content-addressed cache: the key is a hash of
// (compiler, common flags, optimization level, generated source), and
// compiled binaries are stored under $ACCMOS_CACHE_DIR (default
// <system-tmp>/accmos-cache). A second engine construction for the same
// model skips the dominant compile cost — "one compiled simulator serves a
// whole campaign" extends to "…and every later campaign on the same model".
// Cached entries carry a size + content hash sidecar and are verified on
// every hit; a corrupted or truncated entry falls back to a recompile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/model.h"

namespace accmos {

// Thrown when the compiler or the generated binary fails; carries the
// captured compiler/binary output. A ModelError so callers handling model
// pipeline failures see compiler stderr, not a bare exit code.
class CompileError : public ModelError {
 public:
  explicit CompileError(const std::string& what) : ModelError(what) {}
};

// What the driver produces from the generated source: always a shared
// library built -shared -fPIC, which the dlopen backend loads in-process
// and the subprocess backend's runner loads in a child. The enum stays
// because the benchmark harness (accbench/) names it.
enum class ArtifactKind : uint8_t { SharedLib };

struct CompileOutput {
  std::string exePath;  // the compiled shared library
  std::string sourcePath;
  double seconds = 0.0;
  bool cacheHit = false;  // binary came from the content-addressed cache
  int retries = 0;  // transient compiler failures absorbed (OOM-kill, EAGAIN)
  // Process-wide ordinal (1-based) of the real compiler invocation that
  // produced this binary; 0 when the cache served it without running the
  // compiler. Requests that joined an in-flight single-flight compile share
  // the producer's ordinal — two equal ordinals mean one compiler run.
  uint64_t invocation = 0;
};

class CompilerDriver {
 public:
  // workDir: where sources/binaries are placed; created if missing. When
  // empty a fresh directory under the system temp dir is used.
  explicit CompilerDriver(std::string workDir = "");
  ~CompilerDriver();

  CompilerDriver(const CompilerDriver&) = delete;
  CompilerDriver& operator=(const CompilerDriver&) = delete;

  // Writes `source` to <dir>/<name>.cpp and compiles it to a shared
  // library — or, when the cache holds a verified binary for the same
  // (compiler, flags, source), returns that binary with cacheHit set and
  // near-zero seconds. `extraFlags` are appended verbatim to the compile
  // command and are part of the cache identity — same source, different
  // defines, distinct entries.
  //
  // Single-flight per cache key: concurrent requests in one process share
  // one compiler run. The first requester compiles inline in its own
  // directory; the others wait for it and receive its output, or the same
  // exception. Across processes, a claim file in the cache directory holds
  // a cold key to one compile (see the .cpp). Both need the cache; with it
  // off (setCacheEnabled(false) or ACCMOS_CACHE_DISABLE) every request
  // compiles privately.
  CompileOutput compile(const std::string& source, const std::string& name,
                        const std::string& optFlag,
                        ArtifactKind kind = ArtifactKind::SharedLib,
                        const std::string& extraFlags = "");

  // Runs the program with the given argv, returning its captured stdout;
  // stderr goes into the failure messages. timeoutSec > 0 arms the
  // host-side watchdog: on expiry the child's process group is SIGKILLed
  // and SimTimeoutError is thrown. Death by signal throws SimCrashError
  // (carrying the signal), a nonzero exit throws SimCrashError with signal
  // 0 and the exit status, and a launch failure throws CompileError — the
  // same taxonomy campaigns record.
  std::string run(const std::string& exePath,
                  const std::vector<std::string>& args,
                  double timeoutSec = 0.0) const;

  const std::string& dir() const { return dir_; }
  // Keep the working directory on destruction (for debugging / the
  // keepGeneratedCode option).
  void setKeep(bool keep) { keep_ = keep; }
  // Disable the compile cache for this driver (SimOptions::compileCache).
  // The ACCMOS_CACHE_DISABLE environment variable disables it globally.
  void setCacheEnabled(bool enabled) { cacheEnabled_ = enabled; }
  // Wall-clock watchdog for one compiler invocation (seconds; 0 = off).
  // Initialized from $ACCMOS_COMPILE_TIMEOUT, default 300.
  void setCompileTimeout(double sec) { compileTimeoutSec_ = sec; }
  double compileTimeout() const { return compileTimeoutSec_; }

  // The compiler command used ($CXX, else c++).
  static std::string compilerPath();
  // Resolved cache directory: $ACCMOS_CACHE_DIR, else <tmp>/accmos-cache.
  static std::string cacheDir();
  // Content-address of a compilation: stable across processes. The
  // compiler, the flags and the source are the address. Extra flags are
  // part of it because a source compiled with an extra -D define produces
  // a different binary than the flagless compile of the identical source,
  // and neither may be served in place of the other.
  static uint64_t cacheKey(const std::string& source,
                           const std::string& optFlag,
                           const std::string& extraFlags = "");

  // Default compile watchdog: $ACCMOS_COMPILE_TIMEOUT seconds, else 300
  // (a backstop against a wedged compiler, far above any real compile).
  static double defaultCompileTimeout();

  // Total real compiler invocations this process has made (cache hits and
  // joined single-flight requests do not count). The regression handle for
  // "N racing engines, one compile".
  static uint64_t compilerInvocations();

 private:
  std::string dir_;
  bool owned_ = false;  // we created it -> we may remove it
  bool keep_ = false;
  bool cacheEnabled_ = true;
  double compileTimeoutSec_ = defaultCompileTimeout();
};

}  // namespace accmos
