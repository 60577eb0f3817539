#include "serve/client.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/failure.h"

namespace accmos::serve {

namespace {

// Rehydrate a daemon-side failure into the closest local exception, so
// `accmos client` surfaces the same typed errors — and hence the same
// documented exit codes — as local execution (docs/ROBUSTNESS.md).
[[noreturn]] void throwDaemonError(const Json& resp) {
  std::string kind = "internal";
  std::string message = "daemon reported an error";
  if (const Json* k = resp.find("kind")) kind = k->asString("$.kind");
  if (const Json* e = resp.find("error")) message = e->asString("$.error");
  if (kind == "model-load") throw ModelLoadError(message);
  if (kind == "protocol") throw ProtocolError(message);
  throw ModelError(message);
}

// The response's "service" member, when the daemon sent one.
ServiceMeta serviceOf(const Json& resp) {
  const Json* service = resp.find("service");
  return service != nullptr ? serviceMetaFromJson(*service, "$.service")
                            : ServiceMeta{};
}

}  // namespace

ServeClient::ServeClient(const std::string& socketPath) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath.empty() || socketPath.size() >= sizeof(addr.sun_path)) {
    throw ProtocolError("bad daemon socket path: \"" + socketPath + "\"");
  }
  ::strncpy(addr.sun_path, socketPath.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw ProtocolError(std::string("socket() failed: ") + ::strerror(errno));
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string err = ::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw ProtocolError("cannot reach accmosd at " + socketPath + ": " + err +
                        " (is the daemon running? start one with " +
                        "`accmos serve --socket=" + socketPath + "`)");
  }

  try {
    const Hello daemon = helloFromJson(request(toJson(Hello{})), "$");
    daemonVersion_ = daemon.version;
    daemonAbi_ = daemon.abi;
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

Json ServeClient::request(const Json& req) {
  writeFrame(fd_, req.write());
  std::string text;
  if (!readFrame(fd_, &text)) {
    throw ProtocolError("daemon closed the connection mid-request");
  }
  Json resp = parseJson(text);
  if (!resp.at("ok", "$").asBool("$.ok")) throwDaemonError(resp);
  return resp;
}

SimulationResult ServeClient::run(const std::string& modelText,
                                  const SimOptions& opt,
                                  const TestCaseSpec& spec,
                                  ServiceMeta* meta) {
  Json req = Json::object();
  req.set("op", Json::str("run"));
  req.set("model", Json::str(modelText));
  req.set("options", toJson(opt));
  req.set("spec", toJson(spec));
  Json resp = request(req);
  if (meta != nullptr) *meta = serviceOf(resp);
  return simResultFromJson(resp.at("result", "$"), "$.result");
}

CampaignResult ServeClient::campaign(const std::string& modelText,
                                     const SimOptions& opt,
                                     const std::vector<TestCaseSpec>& specs,
                                     ServiceMeta* meta) {
  Json req = Json::object();
  req.set("op", Json::str("campaign"));
  req.set("model", Json::str(modelText));
  req.set("options", toJson(opt));
  req.set("specs", renderedArray(specs, [](const TestCaseSpec& s) {
            return toJson(s);
          }));
  Json resp = request(req);
  if (meta != nullptr) *meta = serviceOf(resp);
  return campaignResultFromJson(resp.at("result", "$"), "$.result");
}

Json ServeClient::stats() {
  Json req = Json::object();
  req.set("op", Json::str("stats"));
  return request(req);
}

void ServeClient::shutdown() {
  Json req = Json::object();
  req.set("op", Json::str("shutdown"));
  request(req);
}

}  // namespace accmos::serve
