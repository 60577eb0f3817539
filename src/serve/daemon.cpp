#include "serve/daemon.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "codegen/compiler_driver.h"
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

// Answers a connection's first frame, which must be a hello in this
// daemon's protocol version. Returns whether it was. Only "op" and
// "protocol" are read: they are what a client of any version sends.
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
    writeFrame(fd, helloAnswer(Hello{}).write());
    return true;
  } catch (const JsonError& e) {
    writeFrame(fd, errorResponse("protocol", e.what()).write());
    return false;
  }
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

// The model texts one connection registered: index k names texts_[k].
// Only the connection's own thread touches it.
class Daemon::ModelRegistry {
 public:
  // The text registered as `index`, or nullptr if this connection never
  // handed that index out.
  const std::string* find(uint64_t index) const {
    return index < texts_.size() ? &texts_[index] : nullptr;
  }

  // The index of the registered text equal to `text`, byte for byte; else
  // the index keep() gives `text`, while both caps admit it; else nullopt.
  std::optional<uint64_t> indexFor(const std::string& text) const {
    for (size_t k = 0; k < texts_.size(); ++k) {
      if (texts_[k] == text) return k;
    }
    if (texts_.size() < kMaxRegisteredModels &&
        text.size() <= kMaxRegisteredBytes - bytes_) {
      return texts_.size();
    }
    return std::nullopt;
  }

  // Registers `text` as `index`, which indexFor(text) returned, unless an
  // equal text holds that index already.
  void keep(uint64_t index, std::string text) {
    if (index != texts_.size()) return;
    bytes_ += text.size();
    texts_.push_back(std::move(text));
  }

 private:
  std::vector<std::string> texts_;
  size_t bytes_ = 0;  // of every text in texts_
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
      ::listen(listenFd_, 64) < 0 ||
      ::pipe2(wakeFds_, O_CLOEXEC | O_NONBLOCK) != 0) {
    const std::string err = ::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw ProtocolError("cannot listen on " + opt_.socketPath + ": " + err);
  }
}

Daemon::~Daemon() {
  shutdown();
  if (listenFd_ >= 0) ::close(listenFd_);
  ::close(wakeFds_[0]);
  ::close(wakeFds_[1]);
  ::unlink(opt_.socketPath.c_str());
}

void Daemon::wake() {
  // A full pipe already holds a wake-up: EAGAIN is fine.
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wakeFds_[1], &byte, 1);
}

uint64_t Daemon::requestsExecuted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return executed_;
}

// Raises the flag and wakes the accept loop, which leaves its loop and
// cuts the open connections loose in run()'s drain.
void Daemon::shutdown() {
  stopping_.store(true);
  wake();
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
    // same flag and return their partial prefix. The handler only raises
    // a flag, so the poll below ticks to look at it.
    if (interruptRequested()) {
      shutdown();
      break;
    }
    joinEndedConnections();
    pollfd pfds[2] = {{listenFd_, POLLIN, 0}, {wakeFds_[0], POLLIN, 0}};
    int n = ::poll(pfds, 2, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((pfds[1].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wakeFds_[0], drain, sizeof drain) > 0) {
      }
    }
    if ((pfds[0].revents & POLLIN) == 0) continue;
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
  // Cut idle connections loose, under the lock that takes them off the
  // list, so none escapes the cut: their blocked reads see EOF. A
  // connection mid-request finishes writing its response first, since its
  // fd shutdown only stops further reads from mattering. Then join every
  // connection thread: each in-flight request completes and flushes its
  // response before run() returns.
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Connection& c : conns_) {
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RD);
    }
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
    // different protocol before either side mis-parses a frame. The hello
    // must begin within the frame deadline, or a peer that connects and
    // says nothing holds this thread (and its stack) as long as it likes.
    // Once it has said hello it may idle between frames.
    if (!waitReadable(fd, kFrameDeadline)) {
      throw FrameDeadlineError("no hello arrived");
    }
    std::string text;
    const bool helloOk =
        readFrame(fd, &text, kFrameDeadline) && answerHello(fd, text);

    ModelRegistry models;
    while (helloOk && readFrame(fd, &text, kFrameDeadline)) {
      bool wantShutdown = false;
      writeFrame(fd, dispatch(std::move(text), models, &wantShutdown));
      if (wantShutdown) {
        shutdown();
        break;
      }
    }
  } catch (const FrameDeadlineError& e) {
    // The peer kept this thread waiting on a hello or a half-sent frame.
    std::fprintf(stderr, "accmosd: connection closed: %s within %llds\n",
                 e.what(), static_cast<long long>(kFrameDeadline.count()));
  } catch (const ProtocolError&) {
    // Peer vanished or spoke garbage at the framing layer; nothing left
    // to tell it. The daemon itself is unaffected.
  } catch (const std::exception& e) {
    // Anything else this connection cannot answer (say, no memory for a
    // frame) ends this connection only; the daemon keeps serving.
    std::fprintf(stderr, "accmosd: connection dropped: %s\n", e.what());
  }
  // Mark the connection ended BEFORE closing: once closed, the fd number
  // can be reused by a new connection and must no longer be on run()'s
  // cut list.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conn.fd = -1;
  }
  ::close(fd);
  wake();  // the accept loop joins this thread now, not on its next tick
}

// Parses one request frame and produces the response frame text. Run and
// campaign work executes here, on the connection's thread, once it holds a
// request slot; stats and shutdown need no slot, so an overloaded daemon
// still responds to its operator.
std::string Daemon::dispatch(std::string requestText, ModelRegistry& models,
                             bool* wantShutdown) {
  try {
    Request req = requestFromText(requestText);
    // A campaign's text holds every spec once more, and its response's
    // text is yet to grow: free the request's now.
    std::string().swap(requestText);
    const std::string& op = req.op;

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
    const bool isRun = op == "run";
    ModelName& model = isRun ? req.run.model : req.campaign.model;
    const SimOptions& simOpt = isRun ? req.run.options : req.campaign.options;
    const std::string* modelText =
        model.index ? models.find(*model.index) : &model.text;
    if (modelText == nullptr) {
      return errorResponse("protocol",
                           "model " + std::to_string(*model.index) +
                               " was never registered on this connection")
          .write();
    }

    RequestSlot slot(*this);
    // Requests for one model share its entry's evaluator and run in
    // parallel: evaluate() is re-entrant and takes this request's workers.
    PoolLease lease = pool_.acquire(*modelText, simOpt);

    Json resp = Json::object();
    resp.set("ok", Json::boolean(true));
    resp.set("op", Json::str(op));
    // resp.write() renders a campaign's rows straight from `cr`, so `cr`
    // stays in scope until the text is written.
    CampaignResult cr;
    if (isRun) {
      std::vector<SimulationResult> rs = lease->evaluator().evaluate(
          std::vector<TestCaseSpec>{std::move(req.run.spec)},
          simOpt.campaign.workers, nullptr);
      rs[0].optStats = lease->optStats();
      resp.set("result", toJson(rs[0]));
    } else {
      cr = runCampaignSpecsOn(lease->optimizedModel(), lease->evaluator(),
                              simOpt, req.campaign.specs, lease->optStats());
      // The specs are spent: free them before the response's text grows.
      std::vector<TestCaseSpec>().swap(req.campaign.specs);
      resp.set("result", toJson(cr));
    }
    resp.set("service", toJson(ServiceMeta{lease.poolHit(), pool_.stats()}));
    // A text the request carried is registered once its ok answer is
    // written, and the answer names the text's index. An answer that
    // fails before then registers nothing.
    if (!model.index) {
      if (const std::optional<uint64_t> index = models.indexFor(model.text)) {
        resp.set("model", Json::u64(*index));
        std::string answer = resp.write();
        models.keep(*index, std::move(model.text));
        return answer;
      }
    }
    return resp.write();
  } catch (const std::exception& e) {
    return errorResponse(classify(e), e.what()).write();
  }
}

}  // namespace accmos::serve
