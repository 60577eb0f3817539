#include "serve/daemon.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
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
// fails to compile, crashes or times out is not an exception: it comes
// back as a failed result.
std::string classify(const std::exception& e) {
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

// Answers a connection's first frame, which must be a hello in this
// daemon's protocol version. Returns whether it was.
bool answerHello(int fd, const std::string& text) {
  try {
    Json hello = parseJson(text);
    const std::string& op = hello.at("op", "$").asString("$.op");
    uint64_t protocol = hello.at("protocol", "$").asU64("$.protocol");
    if (op != "hello") {
      writeFrame(fd, errorResponse("protocol",
                                   "expected a hello frame, got op \"" +
                                       op + "\"")
                         .write());
      return false;
    }
    if (protocol != kProtocolVersion) {
      writeFrame(fd,
                 errorResponse("protocol",
                               "protocol version mismatch: daemon speaks v" +
                                   std::to_string(kProtocolVersion) +
                                   ", client sent v" +
                                   std::to_string(protocol))
                     .write());
      return false;
    }
    writeFrame(fd, helloResponse().write());
    return true;
  } catch (const JsonError& e) {
    writeFrame(fd, errorResponse("protocol", e.what()).write());
    return false;
  }
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

// Holds one request slot for its lifetime. Slots are granted in ticket
// order, so waiting requests are admitted in the order they arrived.
class Daemon::RequestSlot {
 public:
  explicit RequestSlot(Daemon& d) : d_(d) {
    std::unique_lock<std::mutex> lock(d_.mutex_);
    const uint64_t ticket = d_.nextTicket_++;
    d_.slotFreed_.wait(lock, [&] {
      return ticket == d_.nextAdmit_ && d_.inFlight_ < d_.slots_;
    });
    ++d_.nextAdmit_;
    ++d_.inFlight_;
    d_.peakInFlight_ = std::max(d_.peakInFlight_, d_.inFlight_);
    // The next ticket may find a slot free too.
    d_.slotFreed_.notify_all();
  }
  ~RequestSlot() {
    std::lock_guard<std::mutex> lock(d_.mutex_);
    --d_.inFlight_;
    ++d_.executed_;
    d_.slotFreed_.notify_all();
  }

  RequestSlot(const RequestSlot&) = delete;
  RequestSlot& operator=(const RequestSlot&) = delete;

 private:
  Daemon& d_;
};

Daemon::Daemon(const ServeOptions& opt)
    : opt_(opt),
      slots_(opt.requestWorkers != 0
                 ? opt.requestWorkers
                 : std::max(1u, std::thread::hardware_concurrency())),
      pool_(opt.poolBudgetBytes) {
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
  if (listenFd_ >= 0) ::close(listenFd_);
  ::unlink(opt_.socketPath.c_str());
}

uint64_t Daemon::requestsExecuted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return executed_;
}

void Daemon::shutdown() {
  if (stopping_.exchange(true)) return;
  // Cut idle connections loose: their blocked readFrame() sees EOF. A
  // connection mid-request finishes writing its response first — its fd
  // shutdown only stops further reads from mattering.
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Connection& c : conns_) {
    if (c.fd >= 0) ::shutdown(c.fd, SHUT_RD);
  }
}

// Joins the threads of connections that have ended, so a daemon holds one
// thread per open connection rather than one per connection it ever had.
void Daemon::joinEndedConnections() {
  std::list<Connection> ended;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      auto next = std::next(it);
      if (it->fd < 0) ended.splice(ended.end(), conns_, it);
      it = next;
    }
  }
  for (Connection& c : ended) c.thread.join();
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
    joinEndedConnections();
    pollfd pfd{listenFd_, POLLIN, 0};
    int n = ::poll(&pfd, 1, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0 || (pfd.revents & POLLIN) == 0) continue;
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    // The connection is built apart from conns_ and spliced in, so a
    // failure leaves the list as it was: no memory or no thread for this
    // connection (say, no address space left for its stack) refuses it,
    // and the daemon keeps serving the others.
    try {
      std::list<Connection> fresh(1);
      Connection& conn = fresh.front();
      conn.fd = fd;
      conn.thread = std::thread([this, &conn] { handleConnection(conn); });
      conns_.splice(conns_.end(), fresh);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "accmosd: connection refused: %s\n", e.what());
      ::close(fd);
    }
  }
  shutdown();
  // Join every connection thread: each in-flight request completes and
  // flushes its response before run() returns.
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conns.swap(conns_);
  }
  for (Connection& c : conns) c.thread.join();
  // Close the listener before returning: a stopped daemon must refuse new
  // connections outright. Left open (until the destructor), a late connect
  // would park in the listen backlog and hang its handshake — nobody will
  // ever accept it.
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
}

void Daemon::handleConnection(Connection& conn) {
  const int fd = conn.fd;
  try {
    // Versioned hello handshake first: refuse a client speaking a
    // different protocol before either side mis-parses a frame.
    std::string text;
    const bool helloOk = readFrame(fd, &text) && answerHello(fd, text);

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
  } catch (const std::exception& e) {
    // Anything else this connection cannot answer (say, no memory for a
    // frame) ends this connection only; the daemon keeps serving.
    std::fprintf(stderr, "accmosd: connection dropped: %s\n", e.what());
  }
  // Mark the connection ended BEFORE closing: once closed, the fd number
  // can be reused by a new connection and must no longer be on
  // shutdown()'s cut list.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conn.fd = -1;
  }
  ::close(fd);
}

// Parses one request frame and produces the response frame text. Run and
// campaign work executes here, on the connection's thread, once it holds a
// request slot; stats and shutdown need no slot, so an overloaded daemon
// still responds to its operator.
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
      // The request slots keep the key name "scheduler" on the wire.
      Json sched = Json::object();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        sched.set("workers", Json::u64(slots_));
        sched.set("executed", Json::u64(executed_));
        sched.set("peakInFlight", Json::u64(peakInFlight_));
      }
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

    RequestSlot slot(*this);
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
  } catch (const std::exception& e) {
    return errorResponse(classify(e), e.what()).write();
  }
}

}  // namespace accmos::serve
