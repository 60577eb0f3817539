// accmosd: the resident simulation service (docs/SERVICE.md).
//
// A Daemon owns a unix-domain listening socket and a model-library pool
// (lib_pool.h). Each accepted connection gets its own thread, which reads
// the connection's frames and runs its requests itself; the thread ends
// with the connection and wakes the accept loop, which joins it. A
// connection must begin its hello within kFrameDeadline, and a frame must
// arrive whole within kFrameDeadline of its first byte. Each connection
// keeps a registry of the model texts it sent, so a later request names a
// text by its index (docs/SERVICE.md, "Model registration"). At most
// `requestWorkers` run/campaign requests execute at once, admitted in
// arrival order, and requests for one model run in parallel like any
// others; stats and shutdown answer without waiting for a slot.
// Results are computed by the same campaign/evaluator machinery the CLI
// uses locally — bit-identical by construction, with fault containment
// (quarantine, deadlines, degradation ladder) keeping a hostile model from
// taking the daemon or other clients' requests down.
//
// Shutdown is graceful from three directions — `client shutdown`, SIGTERM/
// SIGINT (the CLI installs handlers that raise the cooperative interrupt
// flag), or shutdown() from another thread: the listener closes, in-flight
// requests finish (an interrupted campaign returns its partial prefix with
// `interrupted` set), idle connections are dropped, and run() returns.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "serve/lib_pool.h"

namespace accmos::serve {

// How long a new connection may take to begin its hello, and any
// connection to deliver the rest of a frame once its first byte has
// arrived; a connection that misses either is closed. Idle time between
// frames after the hello is not limited.
inline constexpr std::chrono::seconds kFrameDeadline{5};

// What one connection may register: at most kMaxRegisteredModels model
// texts, of at most kMaxRegisteredBytes in all. Past either cap a request's
// text is answered without an index and keeps travelling inline.
inline constexpr size_t kMaxRegisteredModels = 16;
inline constexpr size_t kMaxRegisteredBytes = size_t{16} << 20;

struct ServeOptions {
  std::string socketPath;
  // Concurrent request slots (0 = one per hardware thread). Campaign-
  // internal worker pools are the request's own `workers` option; this
  // bounds how many requests run at once.
  size_t requestWorkers = 0;
  // Model-library pool byte budget (0 = unbounded). The default keeps a
  // healthy working set while guaranteeing the pool cannot grow without
  // bound under model-diverse traffic.
  uint64_t poolBudgetBytes = 512ull << 20;
};

class Daemon {
 public:
  // Binds and listens on opt.socketPath (an existing socket file is
  // replaced — accmosd owns its path). Throws ProtocolError when the
  // socket cannot be created.
  explicit Daemon(const ServeOptions& opt);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Serves until shutdown() is called (by `client shutdown`, another
  // thread, or a SIGTERM/SIGINT raising the cooperative interrupt flag),
  // then joins every connection thread and returns.
  void run();

  // Thread-safe, idempotent: raise the stop flag and wake the accept
  // loop, which stops accepting and cuts idle connections loose.
  // In-flight requests still complete.
  void shutdown();

  const ServeOptions& options() const { return opt_; }
  PoolStats poolStats() const { return pool_.stats(); }
  // Request slots: the resolved `requestWorkers`.
  size_t requestSlots() const { return slots_; }
  // Requests that held a slot. Counted before the response is written, so
  // a client that has its response finds itself counted by `stats`.
  uint64_t requestsExecuted() const;

 private:
  // One accepted connection. `fd` is -1 once the connection has ended:
  // its thread is then finished or about to be, and the accept loop
  // joins it.
  struct Connection {
    int fd = -1;
    std::thread thread;
  };
  class RequestSlot;
  class ModelRegistry;

  void handleConnection(Connection& conn);
  // Takes the request frame's text, and frees it once it is decoded.
  // `models` holds the texts the connection registered.
  std::string dispatch(std::string requestText, ModelRegistry& models,
                       bool* wantShutdown);
  void joinEndedConnections();
  // Makes the accept loop's poll return now. Thread-safe.
  void wake();

  ServeOptions opt_;
  const size_t slots_;
  int listenFd_ = -1;
  // Self-pipe in the accept loop's poll set: shutdown() and every ending
  // connection write a byte to [1] so the loop acts at once.
  int wakeFds_[2] = {-1, -1};
  ModelLibPool pool_;
  std::atomic<bool> stopping_{false};

  // Guards the request-slot bookkeeping and the connection list.
  mutable std::mutex mutex_;
  std::condition_variable slotFreed_;
  uint64_t nextTicket_ = 0;  // handed to each request that needs a slot
  uint64_t nextAdmit_ = 0;   // the ticket admitted next (arrival order)
  uint64_t inFlight_ = 0;
  uint64_t peakInFlight_ = 0;
  uint64_t executed_ = 0;
  // Last: its threads use every member above. A list, because each
  // thread holds a reference to its own node.
  std::list<Connection> conns_;
};

}  // namespace accmos::serve
