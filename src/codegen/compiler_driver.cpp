#include "codegen/compiler_driver.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "codegen/fault.h"
#include "codegen/subprocess.h"
#include "sim/failure.h"

namespace accmos {
namespace fs = std::filesystem;

namespace {

std::atomic<int> g_dirCounter{0};
std::atomic<int> g_tmpCounter{0};
std::atomic<uint64_t> g_invocations{0};

std::string readFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string shellQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

uint64_t fnv1a64(const std::string& data, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Every artifact is a shared library; part of the cache identity.
constexpr const char* kSharedLibFlags = "-shared -fPIC";

bool cacheDisabledByEnv() {
  const char* v = std::getenv("ACCMOS_CACHE_DISABLE");
  return v != nullptr && v[0] != '\0' && std::string(v) != "0";
}

// In-process index of cache entries this process has verified or produced.
// Hits are still re-verified against the on-disk content (size + hash), so
// external corruption — or a cleaned temp dir — degrades to a recompile,
// never to executing a damaged binary.
std::mutex g_cacheMutex;
std::unordered_map<uint64_t, std::string> g_cacheIndex;

struct CacheEntry {
  fs::path bin;
  fs::path meta;
};

CacheEntry cachePaths(const fs::path& dir, uint64_t key) {
  return {dir / (hex16(key) + ".bin"), dir / (hex16(key) + ".meta")};
}

// A cache entry is valid when the sidecar's recorded size and content hash
// match the binary on disk (catches truncation and bit rot).
bool verifyEntry(const CacheEntry& e) {
  std::error_code ec;
  if (!fs::is_regular_file(e.bin, ec) || !fs::is_regular_file(e.meta, ec)) {
    return false;
  }
  std::ifstream meta(e.meta);
  uint64_t size = 0;
  std::string hash;
  if (!(meta >> size >> hash)) return false;
  if (fs::file_size(e.bin, ec) != size || ec) return false;
  return hex16(fnv1a64(readFile(e.bin))) == hash;
}

// Flushes a file's data to stable storage before it is renamed into
// place: a crash between rename and writeback must not be able to
// publish a hole-filled binary under a valid-looking name.
bool fsyncPath(const fs::path& p) {
  int fd = ::open(p.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// Best-effort sweep of abandoned temp files (a writer killed between
// copy and rename leaves its *.tmp behind forever otherwise). Only
// clearly-stale files go: anything older than an hour can't belong to a
// live writer. Runs once per process — the dir scan is not free.
void sweepStaleTemps(const fs::path& dir) {
  static std::once_flag once;
  std::call_once(once, [&dir] {
    std::error_code ec;
    auto now = fs::file_time_type::clock::now();
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const fs::path& p = it->path();
      if (p.extension() != ".tmp") continue;
      auto mtime = fs::last_write_time(p, ec);
      if (ec) continue;
      if (now - mtime > std::chrono::hours(1)) fs::remove(p, ec);
    }
  });
}

// Atomically publishes `exePath` under the cache key: copy to a temp name
// in the cache dir, fsync, then rename (binary first, sidecar last —
// readers require a valid sidecar, so a torn write is just a miss). The
// temp tag is pid + a process-wide counter, so concurrent writers in one
// process (campaign workers compiling different shapes) can never race on
// the same temp name. Best effort: any filesystem error leaves the cache
// unused, not the build broken.
bool storeEntry(const CacheEntry& e, const fs::path& exePath) {
  try {
    fs::create_directories(e.bin.parent_path());
    sweepStaleTemps(e.bin.parent_path());
    std::string tag = "." + std::to_string(::getpid()) + "." +
                      std::to_string(g_tmpCounter.fetch_add(1)) + ".tmp";
    fs::path binTmp = e.bin.string() + tag;
    fs::path metaTmp = e.meta.string() + tag;
    fs::copy_file(exePath, binTmp, fs::copy_options::overwrite_existing);
    std::string content = readFile(binTmp);
    {
      std::ofstream meta(metaTmp);
      meta << content.size() << " " << hex16(fnv1a64(content)) << "\n";
      if (!meta) return false;
    }
    if (!fsyncPath(binTmp) || !fsyncPath(metaTmp)) {
      std::error_code ec;
      fs::remove(binTmp, ec);
      fs::remove(metaTmp, ec);
      return false;
    }
    fs::rename(binTmp, e.bin);
    fs::rename(metaTmp, e.meta);
    return true;
  } catch (const fs::filesystem_error&) {
    return false;
  }
}

// ---- Cross-process single-flight ---------------------------------------
// The in-process single-flight map (g_inFlight, below) cannot see other
// processes; shard workers (src/dist) and concurrent CLI invocations
// pointed at one shared cache directory would each pay the cold compile.
// A claim file `<key>.lock` in the cache dir — created with O_EXCL, pid
// inside — extends single-flight across the fleet: exactly one process
// compiles a cold key, the losers poll until the winner's crash-safe
// publication appears and load it. The lock is an OPTIMIZATION, never a
// correctness dependency: a claimant that cannot acquire within a bounded
// budget compiles anyway (the duplicate store is harmless — publication is
// atomic and content-addressed), and a lock whose holder died is broken by
// the next contender, so a crashed compiler never wedges the fleet.

class CacheKeyLock {
 public:
  ~CacheKeyLock() { release(); }

  bool tryAcquire(const CacheEntry& e) {
    path_ = e.bin;
    path_ += ".lock";
    std::error_code ec;
    fs::create_directories(path_.parent_path(), ec);
    int fd = ::open(path_.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) return false;
    std::string pid = std::to_string(::getpid()) + "\n";
    ssize_t ignored = ::write(fd, pid.data(), pid.size());
    (void)ignored;
    ::close(fd);
    held_ = true;
    return true;
  }

  // Breaks the lock when its recorded holder is provably gone (dead pid on
  // this host) or the file has outlived any plausible compile (`maxAgeSec`).
  // Best effort and racy by design: the worst case is a duplicate compile,
  // which atomic publication absorbs.
  void breakIfStale(double maxAgeSec) const {
    std::error_code ec;
    std::ifstream f(path_);
    long pid = 0;
    if (f >> pid && pid > 0) {
      if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
        fs::remove(path_, ec);
        return;
      }
    }
    auto mtime = fs::last_write_time(path_, ec);
    if (ec) return;
    auto age = fs::file_time_type::clock::now() - mtime;
    if (std::chrono::duration<double>(age).count() > maxAgeSec) {
      fs::remove(path_, ec);
    }
  }

  void release() {
    if (!held_) return;
    std::error_code ec;
    fs::remove(path_, ec);
    held_ = false;
  }

 private:
  fs::path path_;
  bool held_ = false;
};

// One fully-specified compilation: the request plus what the environment
// decides (compiler, cache directory, fault plan), read once per request.
struct CompileParams {
  std::string name;
  std::string optFlag;
  std::string extraFlags;
  std::string compiler;
  fs::path cacheDir;
  FaultPlan faults;
  double timeoutSec = 0.0;
  bool publish = false;  // cache usable: publish + single-flight by key
  uint64_t key = 0;
};

// Re-verifies and returns the cache entry for `key`, or nullopt on a miss
// (dropping any stale in-process index entry).
std::optional<CompileOutput> tryCacheHit(const fs::path& dir, uint64_t key) {
  auto t0 = std::chrono::steady_clock::now();
  CacheEntry e = cachePaths(dir, key);
  if (!verifyEntry(e)) {
    std::lock_guard<std::mutex> lock(g_cacheMutex);
    g_cacheIndex.erase(key);
    return std::nullopt;
  }
  {
    std::lock_guard<std::mutex> lock(g_cacheMutex);
    g_cacheIndex[key] = e.bin.string();
  }
  auto t1 = std::chrono::steady_clock::now();
  CompileOutput out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.exePath = e.bin.string();
  out.cacheHit = true;
  return out;
}

// Runs one real compilation of the source already written to `src`,
// building next to it: invokes the compiler under the watchdog/rlimits
// with the transient-failure retry loop, and publishes to the cache when
// the params ask for it.
CompileOutput compileNow(const CompileParams& p, const fs::path& src) {
  CompileOutput out;
  const fs::path dir = src.parent_path();
  fs::path exe = dir / (p.name + ".so");
  fs::path log = dir / (p.name + ".log");
  out.sourcePath = src.string();

  // Another process may have published this key since our caller's cache
  // probe; claiming the hit here saves the compile.
  const CacheEntry entry = cachePaths(p.cacheDir, p.key);
  if (p.publish) {
    if (auto hit = tryCacheHit(p.cacheDir, p.key)) {
      hit->sourcePath = out.sourcePath;
      return *hit;
    }
  }

  // Cross-process single-flight (see CacheKeyLock): claim the key, or poll
  // for the winner's publication. Whatever happens below — cache hit,
  // successful publish, compile failure, exception — the claim's RAII
  // release unblocks the other processes.
  CacheKeyLock claim;
  if (p.publish) {
    const double budget =
        std::max(60.0, p.timeoutSec > 0.0 ? p.timeoutSec * 2.0 : 600.0);
    const auto waitStart = std::chrono::steady_clock::now();
    for (;;) {
      if (claim.tryAcquire(entry)) {
        // The previous holder may have published between our probe above
        // and this acquire; one more probe avoids a duplicate compile.
        if (auto hit = tryCacheHit(p.cacheDir, p.key)) {
          hit->sourcePath = out.sourcePath;
          return *hit;
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (auto hit = tryCacheHit(p.cacheDir, p.key)) {
        hit->sourcePath = out.sourcePath;
        return *hit;
      }
      claim.breakIfStale(budget);
      const double waited = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - waitStart)
                                .count();
      if (waited > budget) break;  // claim-less compile: still correct
    }
  }

  std::ostringstream cmd;
  cmd << p.compiler << " -std=c++17 " << p.optFlag << " "
      << kSharedLibFlags;
  if (!p.extraFlags.empty()) cmd << " " << p.extraFlags;
  cmd << " -o " << shellQuote(exe.string()) << " " << shellQuote(src.string());

  // The watchdog + rlimits containing ONE compiler invocation. The CPU
  // limit shadows the wall-clock one (a compiler spinning on one core hits
  // both); AS is deliberately left unlimited — modern compilers and
  // sanitizer builds legitimately reserve huge address ranges.
  SpawnLimits limits;
  limits.timeoutSec = p.timeoutSec;
  limits.cpuSeconds = p.timeoutSec > 0.0 ? p.timeoutSec * 2.0 : 0.0;
  limits.fileSizeBytes = 4ull << 30;

  const FaultPlan& faults = p.faults;
  constexpr int kMaxAttempts = 3;
  out.invocation = g_invocations.fetch_add(1) + 1;
  auto t0 = std::chrono::steady_clock::now();
  SpawnResult r;
  int attempt = 0;
  for (;;) {
    std::string shellCmd = cmd.str();
    // Deterministic fault injection (ACCMOS_FAULT): stage a compiler
    // death or a slow compile instead of / before the real invocation.
    if (consumeCompileFault(faults)) {
      if (faults.compileFailExit > 0) {
        shellCmd = "echo 'accmos: injected compiler failure' >&2; exit " +
                   std::to_string(faults.compileFailExit);
      } else {
        shellCmd = "kill -" + std::to_string(faults.compileFailSignal) + " $$";
      }
    } else if (faults.slowCompileMs > 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "sleep %.3f; ",
                    faults.slowCompileMs / 1000.0);
      shellCmd = buf + shellCmd;
    }
    r = spawnAndCapture({"/bin/sh", "-c", shellCmd}, limits);
    if (r.exitedOk()) break;

    // Transient failures — the OOM killer's SIGKILL or a fork-time EAGAIN
    // — are retried with bounded exponential backoff. A watchdog kill is
    // NOT transient: what timed out once will time out again.
    bool transient = !r.timedOut && ((r.launchFailed &&
                                      r.launchErrno == EAGAIN) ||
                                     statusKilledBy(r.status, SIGKILL));
    if (!transient || attempt + 1 >= kMaxAttempts) {
      std::string failure;
      if (r.timedOut) {
        failure = "timed out after " + std::to_string(p.timeoutSec) +
                  "s (watchdog killed the compiler process group)";
      } else if (r.launchFailed) {
        failure = std::string("could not be launched (") +
                  std::strerror(r.launchErrno) + ")";
      } else {
        failure = describeWaitStatus(r.status);
      }
      if (attempt > 0) {
        failure += " after " + std::to_string(attempt) + " retr" +
                   (attempt == 1 ? "y" : "ies");
      }
      throw CompileError("compilation of generated simulation code failed: " +
                         p.compiler + " " + failure +
                         "\ncompiler output:\n" + r.output);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25 << attempt));
    ++attempt;
  }
  auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.retries = attempt;
  {
    // Keep the on-disk log for debugging sessions with keepGeneratedCode.
    std::ofstream f(log);
    f << r.output;
  }
  out.exePath = exe.string();
  if (p.publish && storeEntry(entry, exe)) {
    out.exePath = entry.bin.string();
    std::lock_guard<std::mutex> lock(g_cacheMutex);
    g_cacheIndex[p.key] = entry.bin.string();
  }
  return out;
}

// One in-flight compilation, shared by every in-process requester of the
// same cache key. The requester that registers it compiles; the rest wait
// on the shared future and receive its value or its exception.
struct CompileJob {
  std::promise<CompileOutput> promise;
  std::shared_future<CompileOutput> future = promise.get_future().share();
};

// Single-flight map: cache key -> the job currently compiling it. Entries
// are removed the moment the job completes, so a later request re-probes
// the (now warm) cache instead of holding completed jobs alive.
std::mutex g_flightMutex;
std::unordered_map<uint64_t, std::shared_ptr<CompileJob>> g_inFlight;

}  // namespace

CompilerDriver::CompilerDriver(std::string workDir) {
  if (workDir.empty()) {
    fs::path base = fs::temp_directory_path() /
                    ("accmos_" + std::to_string(::getpid()) + "_" +
                     std::to_string(g_dirCounter.fetch_add(1)));
    fs::create_directories(base);
    dir_ = base.string();
    owned_ = true;
  } else {
    fs::create_directories(workDir);
    dir_ = workDir;
  }
}

CompilerDriver::~CompilerDriver() {
  if (owned_ && !keep_) {
    std::error_code ec;
    fs::remove_all(dir_, ec);  // best effort
  }
}

std::string CompilerDriver::compilerPath() {
  const char* cxx = std::getenv("CXX");
  if (cxx != nullptr && cxx[0] != '\0') return cxx;
  return "c++";
}

std::string CompilerDriver::cacheDir() {
  const char* env = std::getenv("ACCMOS_CACHE_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return (fs::temp_directory_path() / "accmos-cache").string();
}

double CompilerDriver::defaultCompileTimeout() {
  if (const char* env = std::getenv("ACCMOS_COMPILE_TIMEOUT");
      env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    double v = std::strtod(env, &end);
    if (end != env && v >= 0.0) return v;
  }
  return 300.0;
}

uint64_t CompilerDriver::cacheKey(const std::string& source,
                                  const std::string& optFlag,
                                  const std::string& extraFlags) {
  uint64_t h = fnv1a64(compilerPath());
  h = fnv1a64(std::string(" -std=c++17 "), h);
  h = fnv1a64(optFlag, h);
  h = fnv1a64(std::string(kSharedLibFlags), h);
  if (!extraFlags.empty()) {
    h = fnv1a64(std::string("\x1f"), h);  // separator: flag fields
    h = fnv1a64(extraFlags, h);
  }
  h = fnv1a64(std::string("\x1f"), h);  // separator: flags vs source
  return fnv1a64(source, h);
}

uint64_t CompilerDriver::compilerInvocations() { return g_invocations.load(); }

CompileOutput CompilerDriver::compile(const std::string& source,
                                      const std::string& name,
                                      const std::string& optFlag,
                                      ArtifactKind /*kind: SharedLib*/,
                                      const std::string& extraFlags) {
  CompileParams p;
  p.name = name;
  p.optFlag = optFlag;
  p.extraFlags = extraFlags;
  p.compiler = compilerPath();
  p.cacheDir = cacheDir();
  p.faults = faultPlanFromEnv();
  p.timeoutSec = compileTimeoutSec_;
  p.publish = cacheEnabled_ && !cacheDisabledByEnv();

  // The source always lands in this driver's directory (the
  // keepGeneratedCode contract), whoever ends up compiling it.
  const fs::path src = fs::path(dir_) / (name + ".cpp");
  {
    std::ofstream f(src);
    if (!f) throw CompileError("cannot write " + src.string());
    f << source;
  }

  // No cache, no sharing: compile privately in this driver's directory.
  if (!p.publish) return compileNow(p, src);

  p.key = cacheKey(source, optFlag, extraFlags);
  if (auto hit = tryCacheHit(p.cacheDir, p.key)) {
    hit->sourcePath = src.string();
    return *hit;
  }

  // Single-flight: join the in-flight compile for this key, or register
  // one and compile it inline.
  std::shared_ptr<CompileJob> job;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(g_flightMutex);
    std::shared_ptr<CompileJob>& slot = g_inFlight[p.key];
    if (!slot) {
      slot = std::make_shared<CompileJob>();
      owner = true;
    }
    job = slot;
  }
  if (owner) {
    try {
      job->promise.set_value(compileNow(p, src));
    } catch (...) {
      job->promise.set_exception(std::current_exception());
    }
    std::lock_guard<std::mutex> lock(g_flightMutex);
    g_inFlight.erase(p.key);
  }
  CompileOutput out;
  try {
    out = job->future.get();
  } catch (const CompileError& e) {
    // Every requester throws its own copy while the job still holds the
    // shared original, so no thread reads an exception another frees.
    throw CompileError(e.what());
  }
  out.sourcePath = src.string();

  // A joined result lives in the cache unless the producer could not
  // publish it; then it sits in the producer's directory, whose lifetime
  // this driver does not control, so rebuild locally instead.
  const bool local = out.exePath.rfind(dir_, 0) == 0;
  const bool cached = out.exePath.rfind(p.cacheDir.string(), 0) == 0;
  if (!local && !cached) out = compileNow(p, src);
  return out;
}

std::string CompilerDriver::run(const std::string& exePath,
                                const std::vector<std::string>& args,
                                double timeoutSec) const {
  std::vector<std::string> argv;
  argv.reserve(args.size() + 1);
  argv.push_back(exePath);
  for (const auto& a : args) argv.push_back(a);

  // The model normally retires itself cooperatively before its deadline;
  // the watchdog is the backstop for a genuine hang, so it fires a little
  // later than the cooperative deadline would.
  SpawnLimits limits;
  limits.timeoutSec = timeoutSec > 0.0 ? timeoutSec * 1.5 + 1.0 : 0.0;
  limits.cpuSeconds = timeoutSec > 0.0 ? timeoutSec * 2.0 + 5.0 : 0.0;
  limits.fileSizeBytes = 1ull << 30;

  SpawnResult r = spawnAndCapture(argv, limits, /*mergeStderr=*/false);
  std::string what = "simulation process";
  for (const auto& a : argv) what += " " + a;
  if (r.launchFailed) {
    throw CompileError("failed to launch " + what + ": " +
                       std::strerror(r.launchErrno));
  }
  if (r.timedOut) {
    throw SimTimeoutError(what + " exceeded the " +
                          std::to_string(limits.timeoutSec) +
                          "s watchdog deadline; its process group was killed");
  }
  if (WIFSIGNALED(r.status)) {
    throw SimCrashError(what + " " + describeWaitStatus(r.status) + "\n" +
                            r.errors,
                        WTERMSIG(r.status));
  }
  std::string failure = describeWaitStatus(r.status);
  if (!failure.empty()) {
    throw SimCrashError(what + " " + failure + "\n" + r.errors, 0,
                        WEXITSTATUS(r.status));
  }
  return r.output;
}

}  // namespace accmos
