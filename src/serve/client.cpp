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

// Throws the daemon's error unless the response says ok.
void checkOk(const Json& resp) {
  if (!resp.at("ok", "$").asBool("$.ok")) throwDaemonError(resp);
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
    const Hello daemon =
        helloFromJson(request(toJson(Hello{}).write()), "$");
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

std::string ServeClient::exchange(const std::string& requestText) {
  writeFrame(fd_, requestText);
  std::string text;
  if (!readFrame(fd_, &text)) {
    throw ProtocolError("daemon closed the connection mid-request");
  }
  return text;
}

Json ServeClient::request(const std::string& requestText) {
  Json resp = parseJson(exchange(requestText));
  checkOk(resp);
  return resp;
}

std::optional<uint64_t> ServeClient::registered(
    const std::string& modelText) const {
  for (const auto& [text, index] : models_) {
    if (text == modelText) return index;  // sizes first, then the bytes
  }
  return std::nullopt;
}

void ServeClient::record(const std::string& modelText, const Json& resp) {
  if (const Json* index = resp.find("model")) {
    models_.emplace_back(modelText, index->asU64("$.model"));
  }
}

SimulationResult ServeClient::run(const std::string& modelText,
                                  const SimOptions& opt,
                                  const TestCaseSpec& spec,
                                  ServiceMeta* meta) {
  const std::optional<uint64_t> index = registered(modelText);
  Json resp = request(index ? runRequestText(*index, opt, spec)
                            : runRequestText(modelText, opt, spec));
  if (!index) record(modelText, resp);
  if (meta != nullptr) *meta = serviceOf(resp);
  return simResultFromJson(resp.at("result", "$"), "$.result");
}

CampaignResult ServeClient::campaign(const std::string& modelText,
                                     const SimOptions& opt, SpecBatch specs,
                                     ServiceMeta* meta) {
  const std::optional<uint64_t> index = registered(modelText);
  const std::string text =
      exchange(index ? campaignRequestText(*index, opt, specs)
                     : campaignRequestText(modelText, opt, specs));
  JsonReader r(text);
  CampaignResult result;
  const Json resp = r.object([&](const std::string& key) {
    if (key != "result") return false;
    result = campaignResultFromReader(r, "$.result");
    return true;
  });
  r.finish();
  checkOk(resp);
  if (!index) record(modelText, resp);
  resp.at("result", "$");  // a response without one is a JsonError
  if (meta != nullptr) *meta = serviceOf(resp);
  return result;
}

Json ServeClient::stats() {
  Json req = Json::object();
  req.set("op", Json::str("stats"));
  return request(req.write());
}

void ServeClient::shutdown() {
  Json req = Json::object();
  req.set("op", Json::str("shutdown"));
  request(req.write());
}

}  // namespace accmos::serve
