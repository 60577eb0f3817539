#include "serve/daemon.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <utility>

#include "codegen/compiler_driver.h"
#include "codegen/run_abi.h"
#include "serve/protocol.h"
#include "serve/version.h"
#include "sim/failure.h"
#include "sim/interrupt.h"

namespace accmos::serve {

namespace {

Json errorResponse(const std::string& kind, const std::string& message) {
  Json j = Json::object();
  j.set("ok", Json::boolean(false));
  j.set("kind", Json::str(kind));
  j.set("error", Json::str(message));
  return j;
}

// The exception → wire-kind mapping; the client rehydrates these into the
// closest local exception so `accmos client` exits with the same
// documented code the local CLI would (docs/ROBUSTNESS.md). A run that
// crashes or times out is not an exception: it comes back as a failed
// result.
std::string classify(const std::exception& e) {
  if (dynamic_cast<const CompileError*>(&e) != nullptr) return "compile";
  if (dynamic_cast<const ModelLoadError*>(&e) != nullptr) return "model-load";
  if (dynamic_cast<const JsonError*>(&e) != nullptr) return "protocol";
  if (dynamic_cast<const ModelError*>(&e) != nullptr) return "model";
  return "internal";
}

Json helloResponse() {
  Json j = Json::object();
  j.set("ok", Json::boolean(true));
  j.set("op", Json::str("hello"));
  j.set("protocol", Json::u64(kProtocolVersion));
  j.set("abi", Json::u64(ACCMOS_ABI_VERSION));
  j.set("version", Json::str(kAccmosVersion));
  j.set("cacheSchema", Json::str(kCacheSchema));
  return j;
}

Json toJson(const PoolStats& s) {
  Json j = Json::object();
  j.set("entries", Json::u64(s.entries));
  j.set("residentBytes", Json::u64(s.residentBytes));
  j.set("byteBudget", Json::u64(s.byteBudget));
  j.set("hits", Json::u64(s.hits));
  j.set("misses", Json::u64(s.misses));
  j.set("evictions", Json::u64(s.evictions));
  return j;
}

}  // namespace

Daemon::Daemon(const ServeOptions& opt)
    : opt_(opt),
      pool_(opt.poolBudgetBytes),
      scheduler_(opt.requestWorkers) {
  if (opt_.socketPath.empty()) {
    throw ProtocolError("accmosd needs a socket path (--socket=PATH)");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socketPath.size() >= sizeof(addr.sun_path)) {
    throw ProtocolError("socket path too long: " + opt_.socketPath);
  }
  ::strncpy(addr.sun_path, opt_.socketPath.c_str(), sizeof(addr.sun_path) - 1);

  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) {
    throw ProtocolError(std::string("socket() failed: ") + ::strerror(errno));
  }
  // accmosd owns its socket path: a stale file from a previous instance
  // is replaced rather than failing startup.
  ::unlink(opt_.socketPath.c_str());
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listenFd_, 64) < 0) {
    const std::string err = ::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw ProtocolError("cannot listen on " + opt_.socketPath + ": " + err);
  }
}

Daemon::~Daemon() {
  shutdown();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(connMutex_);
    threads.swap(connThreads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  if (listenFd_ >= 0) ::close(listenFd_);
  ::unlink(opt_.socketPath.c_str());
}

void Daemon::shutdown() {
  if (stopping_.exchange(true)) return;
  // Cut idle connections loose: their blocked readFrame() sees EOF. A
  // connection mid-request finishes writing its response first — its fd
  // shutdown only stops further reads from mattering.
  std::lock_guard<std::mutex> lock(connMutex_);
  for (int fd : connFds_) ::shutdown(fd, SHUT_RD);
}

void Daemon::run() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    // A cooperative interrupt (SIGTERM/SIGINT handler) stops the service
    // exactly like `client shutdown`; in-flight campaigns observe the
    // same flag and return their partial prefix.
    if (interruptRequested()) {
      shutdown();
      break;
    }
    pollfd pfd{listenFd_, POLLIN, 0};
    int n = ::poll(&pfd, 1, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0 || (pfd.revents & POLLIN) == 0) continue;
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(connMutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    connFds_.push_back(fd);
    connThreads_.emplace_back([this, fd] { handleConnection(fd); });
  }
  shutdown();
  // Join connection threads: every in-flight request completes and flushes
  // its response before run() returns.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(connMutex_);
    threads.swap(connThreads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  // Close the listener before returning: a stopped daemon must refuse new
  // connections outright. Left open (until the destructor), a late connect
  // would park in the listen backlog and hang its handshake — nobody will
  // ever accept it.
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
}

void Daemon::handleConnection(int fd) {
  try {
    // Versioned hello handshake first: refuse a client speaking a
    // different protocol before either side mis-parses a frame.
    std::string text;
    if (!readFrame(fd, &text)) {
      ::close(fd);
      return;
    }
    bool helloOk = false;
    try {
      Json hello = parseJson(text);
      const std::string& op = hello.at("op", "$").asString("$.op");
      uint64_t protocol = hello.at("protocol", "$").asU64("$.protocol");
      if (op != "hello") {
        writeFrame(fd, errorResponse("protocol",
                                     "expected a hello frame, got op \"" +
                                         op + "\"")
                           .write());
      } else if (protocol != kProtocolVersion) {
        writeFrame(fd,
                   errorResponse(
                       "protocol",
                       "protocol version mismatch: daemon speaks v" +
                           std::to_string(kProtocolVersion) +
                           ", client sent v" + std::to_string(protocol))
                       .write());
      } else {
        writeFrame(fd, helloResponse().write());
        helloOk = true;
      }
    } catch (const JsonError& e) {
      writeFrame(fd, errorResponse("protocol", e.what()).write());
    }

    while (helloOk && readFrame(fd, &text)) {
      bool wantShutdown = false;
      writeFrame(fd, dispatch(text, &wantShutdown));
      if (wantShutdown) {
        shutdown();
        break;
      }
    }
  } catch (const ProtocolError&) {
    // Peer vanished or spoke garbage at the framing layer; nothing left
    // to tell it. The daemon itself is unaffected.
  }
  // Deregister BEFORE closing: once closed, the fd number can be reused
  // by a new connection and must no longer be on shutdown()'s cut list.
  {
    std::lock_guard<std::mutex> lock(connMutex_);
    for (auto it = connFds_.begin(); it != connFds_.end(); ++it) {
      if (*it == fd) {
        connFds_.erase(it);
        break;
      }
    }
  }
  ::close(fd);
}

// Parses one request frame and produces the response frame text. Run and
// campaign work executes on the shared scheduler (bounded concurrency);
// stats and shutdown answer inline so an overloaded daemon still responds
// to its operator.
std::string Daemon::dispatch(const std::string& requestText,
                             bool* wantShutdown) {
  std::string op = "?";
  try {
    Json req = parseJson(requestText);
    op = req.at("op", "$").asString("$.op");

    if (op == "stats") {
      Json j = Json::object();
      j.set("ok", Json::boolean(true));
      j.set("op", Json::str("stats"));
      j.set("version", Json::str(kAccmosVersion));
      j.set("pool", toJson(pool_.stats()));
      Json sched = Json::object();
      sched.set("workers", Json::u64(scheduler_.workers()));
      sched.set("executed", Json::u64(scheduler_.executed()));
      sched.set("peakInFlight", Json::u64(scheduler_.peakInFlight()));
      j.set("scheduler", std::move(sched));
      j.set("compilerInvocations",
            Json::u64(CompilerDriver::compilerInvocations()));
      return j.write();
    }

    if (op == "shutdown") {
      *wantShutdown = true;
      Json j = Json::object();
      j.set("ok", Json::boolean(true));
      j.set("op", Json::str("shutdown"));
      return j.write();
    }

    if (op != "run" && op != "campaign") {
      return errorResponse("protocol", "unknown op \"" + op + "\"").write();
    }

    const std::string& modelText = req.at("model", "$").asString("$.model");
    SimOptions simOpt =
        optionsFromJson(req.at("options", "$"), "$.options");
    std::vector<TestCaseSpec> specs;
    if (op == "run") {
      specs.push_back(specFromJson(req.at("spec", "$"), "$.spec"));
    } else {
      const auto& arr = req.at("specs", "$").asArray("$.specs");
      for (size_t i = 0; i < arr.size(); ++i) {
        specs.push_back(
            specFromJson(arr[i], "$.specs[" + std::to_string(i) + "]"));
      }
    }

    auto fut = scheduler_.submit([this, op, modelText, simOpt,
                                  specs = std::move(specs)]() -> std::string {
      PoolLease lease = pool_.acquire(modelText, simOpt);
      // One request at a time per entry (SpecEvaluator::evaluate must not
      // overlap on one evaluator); different models proceed in parallel.
      std::lock_guard<std::mutex> entryLock(lease->runMutex());
      lease->evaluator().setWorkers(simOpt.campaign.workers);

      Json resp = Json::object();
      resp.set("ok", Json::boolean(true));
      resp.set("op", Json::str(op));
      if (op == "run") {
        std::vector<SimulationResult> rs = lease->evaluator().evaluate(specs);
        rs[0].optStats = lease->optStats();
        resp.set("result", toJson(rs[0]));
      } else {
        CampaignResult cr =
            runCampaignSpecsOn(lease->optimizedModel(), lease->evaluator(),
                               simOpt, specs, lease->optStats());
        resp.set("result", toJson(cr));
      }
      Json service = Json::object();
      service.set("poolHit", Json::boolean(lease.poolHit()));
      service.set("pool", toJson(pool_.stats()));
      resp.set("service", std::move(service));
      return resp.write();
    });
    return fut.get();
  } catch (const std::exception& e) {
    return errorResponse(classify(e), e.what()).write();
  }
}

}  // namespace accmos::serve
