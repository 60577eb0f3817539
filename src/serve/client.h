// Client side of the accmosd protocol: connect, handshake, and issue
// run/campaign/stats/shutdown requests (docs/SERVICE.md). Backs the
// `accmos client` subcommand and the serve test/bench suites.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.h"

namespace accmos::serve {

class ServeClient {
 public:
  // Connects to the daemon's unix socket and performs the versioned hello
  // handshake. Throws ProtocolError when the socket cannot be reached or
  // the daemon speaks a different protocol version.
  explicit ServeClient(const std::string& socketPath);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  // Daemon identity from the hello response.
  const std::string& daemonVersion() const { return daemonVersion_; }
  uint64_t daemonAbi() const { return daemonAbi_; }

  // A run or campaign request carries its model's text until the daemon
  // answers it with the text's index on this connection ("model": k), and
  // names the model by k from then on: the client records text -> k from
  // such answers only, and sends k for a text equal to a recorded one
  // byte for byte.

  // One simulation of `modelText` (model XML) under `spec`. The result is
  // bit-identical to local execution of the same model/options/spec.
  SimulationResult run(const std::string& modelText, const SimOptions& opt,
                       const TestCaseSpec& spec, ServiceMeta* meta = nullptr);

  // A spec campaign, merged daemon-side by the same deterministic
  // seed-order merge the local CLI uses. A seeded batch (one base spec
  // under many seeds) goes out as the same full specs an explicit batch
  // would, each rendered straight into the frame. The response's per-seed
  // rows are read one at a time.
  CampaignResult campaign(const std::string& modelText, const SimOptions& opt,
                          SpecBatch specs, ServiceMeta* meta = nullptr);

  // Raw stats document (pool, scheduler, compiler counters).
  Json stats();

  // Ask the daemon to shut down gracefully (in-flight requests finish).
  void shutdown();

 private:
  // Sends one request frame and returns the response frame's text.
  std::string exchange(const std::string& requestText);
  // exchange(), then the response as a DOM, or the daemon's error thrown.
  Json request(const std::string& requestText);
  // The index the daemon registered `modelText` under, if it told us one.
  std::optional<uint64_t> registered(const std::string& modelText) const;
  // Records the index an ok answer to a request that carried `modelText`
  // names, if it names one.
  void record(const std::string& modelText, const Json& resp);

  int fd_ = -1;
  std::string daemonVersion_;
  uint64_t daemonAbi_ = 0;
  // The texts the daemon registered on this connection, with their
  // indices, in the order it answered them.
  std::vector<std::pair<std::string, uint64_t>> models_;
};

}  // namespace accmos::serve
