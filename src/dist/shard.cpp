#include "dist/shard.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "codegen/compiler_driver.h"
#include "opt/pipeline.h"
#include "parser/model_io.h"
#include "serve/protocol.h"
#include "sim/interrupt.h"
#include "sim/simulator.h"

namespace accmos::dist {
namespace {

using serve::Json;
using serve::ProtocolError;

// Specs evaluated per partial frame on the worker side. Small enough that
// an interrupt flushes promptly and the coordinator sees steady progress,
// large enough that framing overhead stays negligible next to the runs.
constexpr size_t kBlockSpecs = 128;

void checkInstrumented(const SimOptions& opt) {
  if (opt.engine != Engine::SSE && opt.engine != Engine::AccMoS) {
    throw ModelError(
        "sharded campaigns need an instrumented engine (SSE or AccMoS)");
  }
  if (!opt.coverage) {
    throw ModelError("sharded campaigns accumulate coverage; enable it");
  }
}

std::string selfExePath() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    throw ProtocolError("cannot resolve /proc/self/exe for shard workers");
  }
  buf[n] = '\0';
  return buf;
}

// Contained stand-in for a spec whose worker process died before
// answering it — the cross-process analogue of a contained crash.
SimulationResult workerDeathResult(uint64_t seed, size_t shard,
                                   const std::string& detail) {
  SimulationResult r;
  r.failed = true;
  r.failure.kind = FailureKind::Crash;
  r.failure.seed = seed;
  r.failure.backend = "shard-worker";
  r.failure.message = "shard " + std::to_string(shard) +
                      " worker process died before answering this spec" +
                      (detail.empty() ? "" : " (" + detail + ")");
  return r;
}

struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;           // coordinator's socketpair end
  size_t begin = 0;      // global spec range [begin, end)
  size_t end = 0;
  std::vector<SimulationResult> results;  // shard-local, size end-begin
  size_t received = 0;   // contiguous shard-local prefix received
  bool gotDone = false;
  serve::ShardDone done;
  std::string error;     // transport/protocol trouble or in-band error
};

// Drains one worker's frame stream: contiguous partials, then done. Any
// deviation — out-of-order partial, garbage, transport loss, EOF before
// done — lands in w.error; the caller contains it per-shard.
void drainWorker(WorkerProc& w) {
  try {
    std::string text;
    while (serve::readFrame(w.fd, &text)) {
      Json j = serve::parseJson(text);
      const std::string& op = j.at("op", "$").asString("$.op");
      if (op == "partial") {
        serve::ShardPartial p = serve::shardPartialFromJson(j, "$");
        if (p.first != w.received ||
            w.received + p.results.size() > w.results.size()) {
          throw ProtocolError("shard worker sent a non-contiguous partial");
        }
        for (size_t i = 0; i < p.results.size(); ++i) {
          w.results[p.first + i] = std::move(p.results[i]);
        }
        w.received += p.results.size();
      } else if (op == "done") {
        w.done = serve::shardDoneFromJson(j, "$");
        // The done frame may only confirm what the partials delivered.
        if (w.done.completed > w.received) {
          throw ProtocolError(
              "shard worker claimed more completed specs than it sent");
        }
        w.gotDone = true;
      } else if (op == "error") {
        throw ProtocolError("shard worker reported: " +
                            j.at("error", "$").asString("$.error"));
      } else {
        throw ProtocolError("unexpected shard frame op \"" + op + "\"");
      }
    }
  } catch (const std::exception& e) {
    w.error = e.what();
    w.gotDone = false;
  }
}

std::string describeExit(int status) {
  if (WIFEXITED(status)) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return std::string("killed by signal ") + std::to_string(WTERMSIG(status));
  }
  return "unknown wait status";
}

}  // namespace

std::vector<std::pair<size_t, size_t>> shardRanges(size_t specCount,
                                                    size_t shards) {
  if (shards == 0) shards = 1;
  if (shards > specCount) shards = specCount == 0 ? 1 : specCount;
  std::vector<std::pair<size_t, size_t>> out;
  out.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    out.emplace_back(i * specCount / shards, (i + 1) * specCount / shards);
  }
  return out;
}

CampaignResult runShardedCampaign(const std::string& modelText,
                                  const SimOptions& opt,
                                  const std::vector<TestCaseSpec>& specs,
                                  const ShardOptions& sopt,
                                  ShardStats* stats) {
  checkInstrumented(opt);
  if (specs.empty()) {
    throw ModelError("sharded campaign needs at least one test case");
  }
  for (const auto& spec : specs) spec.validate();

  const auto wall0 = std::chrono::steady_clock::now();

  // The coordinator never runs a spec, but it needs the (identically
  // optimized) model for the merge: the coverage plan the bitmaps are
  // decoded against must be the one the workers recorded against, and
  // flatten + optimize are deterministic on the same text and options.
  LoadedModel loaded = loadModelFromString(modelText);
  Simulator sim(*loaded.model);
  OptStats optStats;
  const FlatModel model = optimizeModel(sim.flatModel(), opt, &optStats);

  const std::string workerPath =
      sopt.workerPath.empty() ? selfExePath() : sopt.workerPath;
  const std::string cacheDir =
      sopt.cacheDir.empty() ? CompilerDriver::cacheDir() : sopt.cacheDir;

  auto ranges = shardRanges(specs.size(), sopt.shards);
  std::vector<WorkerProc> workers(ranges.size());

  // Spawn first, then feed: each worker gets one end of a socketpair as
  // its fd 0 and speaks the frame protocol both ways on it (the framing
  // layer uses send/recv, which need a socket — a plain pipe won't do).
  for (size_t i = 0; i < ranges.size(); ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw ProtocolError(std::string("socketpair() failed: ") +
                          ::strerror(errno));
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw ProtocolError(std::string("fork() failed: ") + ::strerror(errno));
    }
    if (pid == 0) {
      // Child: the socketpair end becomes fd 0; stdout/stderr stay
      // inherited so a worker's diagnostics reach the operator. Every
      // shard points at the coordinator's store — the fleet shares one
      // cache and the cross-process single-flight claim applies.
      ::close(sv[0]);
      if (::dup2(sv[1], 0) < 0) ::_exit(127);
      if (sv[1] != 0) ::close(sv[1]);
      ::setenv("ACCMOS_CACHE_DIR", cacheDir.c_str(), 1);
      ::execl(workerPath.c_str(), workerPath.c_str(), "shard-worker",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(sv[1]);
    workers[i].pid = pid;
    workers[i].fd = sv[0];
    workers[i].begin = ranges[i].first;
    workers[i].end = ranges[i].second;
    workers[i].results.resize(ranges[i].second - ranges[i].first);
  }

  // One request frame per worker. Written before any reader starts: the
  // workers read their request at startup, so these writes cannot
  // deadlock against unread response frames.
  for (size_t i = 0; i < workers.size(); ++i) {
    serve::ShardRequest req;
    req.modelText = modelText;
    req.options = opt;
    req.specs.assign(specs.begin() + workers[i].begin,
                     specs.begin() + workers[i].end);
    req.shardIndex = i;
    req.shardCount = workers.size();
    try {
      serve::writeFrame(workers[i].fd, serve::toJson(req).write());
    } catch (const std::exception& e) {
      // A worker that died before reading its request is contained like
      // any other worker death — the drain below sees EOF immediately.
      workers[i].error = e.what();
    }
  }

  // Drain every worker concurrently while the main thread watches the
  // cooperative interrupt flag: on SIGINT/SIGTERM the signal is forwarded
  // once to every worker, which flush their contiguous prefixes and send
  // their done frames — graceful interruption composes across processes.
  std::atomic<size_t> draining{workers.size()};
  std::vector<std::thread> readers;
  readers.reserve(workers.size());
  for (auto& w : workers) {
    readers.emplace_back([&w, &draining] {
      drainWorker(w);
      draining.fetch_sub(1);
    });
  }
  bool forwarded = false;
  while (draining.load() > 0) {
    if (!forwarded && interruptRequested()) {
      for (const auto& w : workers) {
        if (w.pid > 0) ::kill(w.pid, SIGTERM);
      }
      forwarded = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& t : readers) t.join();

  size_t deadWorkers = 0;
  for (auto& w : workers) {
    ::close(w.fd);
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    if (!w.gotDone) {
      // Worker death containment: the specs it never answered become
      // contained per-shard RunFailures — perSeed[k] still describes
      // specs[k], other shards merge untouched, the coordinator never
      // aborts. Anything it DID stream stays bit-identical.
      ++deadWorkers;
      std::string detail = describeExit(status);
      if (!w.error.empty()) detail += "; " + w.error;
      for (size_t k = w.received; k < w.results.size(); ++k) {
        w.results[k] =
            workerDeathResult(specs[w.begin + k].seed,
                              static_cast<size_t>(&w - workers.data()),
                              detail);
      }
      w.received = w.results.size();
      w.done.completed = w.results.size();
      w.done.interrupted = false;
      w.gotDone = true;
    }
  }

  // Concatenate in shard order up to the first shard that stopped early
  // (cooperative interrupt): the global completed set must be a
  // contiguous prefix of the spec order for the partial merge to be
  // bit-identical to the same prefix of a full campaign.
  std::vector<SimulationResult> all(specs.size());
  size_t completed = 0;
  bool truncated = false;
  for (auto& w : workers) {
    const size_t local = std::min(w.done.completed, w.received);
    if (!truncated) {
      for (size_t k = 0; k < local; ++k) {
        all[w.begin + k] = std::move(w.results[k]);
      }
      completed = w.begin + local;
      if (local < w.results.size()) truncated = true;
    }
  }

  CampaignResult out = mergeSpecResults(model, specs, all, completed, optStats);

  // Fleet bookkeeping: one-off costs sum across shards; the cache flag
  // holds only if every shard that built engines was served by the store.
  out.workersUsed = workers.size();
  bool anyBuilt = false;
  bool allHits = true;
  for (const auto& w : workers) {
    out.generateSeconds += w.done.generateSeconds;
    out.compileSeconds += w.done.compileSeconds;
    out.loadSeconds += w.done.loadSeconds;
    if (w.done.generateSeconds > 0.0 || w.done.compileSeconds > 0.0 ||
        w.done.compileCacheHit) {
      anyBuilt = true;
      allHits = allHits && w.done.compileCacheHit;
    }
  }
  out.compileCacheHit = anyBuilt && allHits;
  out.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0)
                        .count();

  if (stats != nullptr) {
    stats->shards = workers.size();
    stats->deadWorkers = deadWorkers;
    stats->fleetCompilerInvocations = CompilerDriver::compilerInvocations();
    for (const auto& w : workers) {
      stats->fleetCompilerInvocations += w.done.compilerInvocations;
    }
  }
  return out;
}

int runShardWorker(int fd) {
  std::string text;
  try {
    if (!serve::readFrame(fd, &text)) return 1;
  } catch (const std::exception&) {
    return 1;
  }

  serve::ShardRequest req;
  try {
    Json j = serve::parseJson(text);
    const std::string& op = j.at("op", "$").asString("$.op");
    if (op != "shard") {
      throw ProtocolError("expected a shard frame, got op \"" + op + "\"");
    }
    req = serve::shardRequestFromJson(j, "$");
  } catch (const std::exception& e) {
    Json err = Json::object();
    err.set("op", Json::str("error"));
    err.set("error", Json::str(e.what()));
    try {
      serve::writeFrame(fd, err.write());
    } catch (const std::exception&) {
    }
    return 1;
  }

  // Test hook: die unceremoniously when told to, so the worker-death
  // containment path is exercisable without a real crash.
  if (const char* abortShard = std::getenv("ACCMOS_SHARD_ABORT");
      abortShard != nullptr &&
      std::string(abortShard) == std::to_string(req.shardIndex)) {
    ::_exit(134);
  }

  try {
    LoadedModel loaded = loadModelFromString(req.modelText);
    Simulator sim(*loaded.model);
    const FlatModel model = optimizeModel(sim.flatModel(), req.options);
    SpecEvaluator evaluator(model, req.options);

    // Evaluate in blocks so partial results stream out and a cooperative
    // interrupt (the coordinator forwards SIGINT/SIGTERM; the CLI
    // installed the handlers) flushes promptly. Per-spec results do not
    // depend on block boundaries, so blocking changes nothing observable.
    size_t completed = 0;
    bool interrupted = false;
    EngineBuildCosts built;
    for (size_t b0 = 0; b0 < req.specs.size() && !interrupted;
         b0 += kBlockSpecs) {
      if (interruptRequested()) break;
      const size_t b1 = std::min(req.specs.size(), b0 + kBlockSpecs);
      std::vector<TestCaseSpec> block(req.specs.begin() + b0,
                                      req.specs.begin() + b1);
      serve::ShardPartial p;
      p.first = b0;
      const size_t n = evaluator.evaluateInOrder(
          block, req.options.campaign.workers, /*interruptible=*/true, &built,
          [&](size_t, SimulationResult&& r) {
            p.results.push_back(std::move(r));
          });
      serve::writeFrame(fd, serve::toJson(p).write());
      completed = b0 + n;
      if (n < block.size()) interrupted = true;
    }

    serve::ShardDone d;
    d.completed = completed;
    d.interrupted = completed < req.specs.size();
    d.generateSeconds = built.generateSeconds;
    d.compileSeconds = built.compileSeconds;
    d.loadSeconds = built.loadSeconds;
    d.compileCacheHit = built.allCacheHits();
    d.compilerInvocations = CompilerDriver::compilerInvocations();
    serve::writeFrame(fd, serve::toJson(d).write());
    return 0;
  } catch (const std::exception& e) {
    Json err = Json::object();
    err.set("op", Json::str("error"));
    err.set("error", Json::str(e.what()));
    try {
      serve::writeFrame(fd, err.write());
    } catch (const std::exception&) {
    }
    return 1;
  }
}

}  // namespace accmos::dist
