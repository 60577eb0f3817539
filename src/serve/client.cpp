#include "serve/client.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "codegen/run_abi.h"
#include "serve/protocol.h"
#include "serve/version.h"
#include "sim/failure.h"

namespace accmos::serve {

namespace {

Json helloRequest() {
  Json j = Json::object();
  j.set("op", Json::str("hello"));
  j.set("protocol", Json::u64(kProtocolVersion));
  j.set("abi", Json::u64(ACCMOS_ABI_VERSION));
  j.set("version", Json::str(kAccmosVersion));
  j.set("cacheSchema", Json::str(kCacheSchema));
  return j;
}

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

ServiceMeta serviceMetaFromJson(const Json& resp) {
  ServiceMeta meta;
  const Json* service = resp.find("service");
  if (service == nullptr) return meta;
  meta.poolHit = service->at("poolHit", "$.service").asBool("$.service.poolHit");
  const Json& pool = service->at("pool", "$.service");
  const std::string w = "$.service.pool";
  meta.pool.entries = pool.at("entries", w).asU64(w + ".entries");
  meta.pool.residentBytes = pool.at("residentBytes", w).asU64(w + ".residentBytes");
  meta.pool.byteBudget = pool.at("byteBudget", w).asU64(w + ".byteBudget");
  meta.pool.hits = pool.at("hits", w).asU64(w + ".hits");
  meta.pool.misses = pool.at("misses", w).asU64(w + ".misses");
  meta.pool.evictions = pool.at("evictions", w).asU64(w + ".evictions");
  return meta;
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
    Json resp = request(helloRequest());
    daemonVersion_ = resp.at("version", "$").asString("$.version");
    daemonAbi_ = resp.at("abi", "$").asU64("$.abi");
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
  if (meta != nullptr) *meta = serviceMetaFromJson(resp);
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
  Json arr = Json::array();
  for (const auto& s : specs) arr.push(toJson(s));
  req.set("specs", std::move(arr));
  Json resp = request(req);
  if (meta != nullptr) *meta = serviceMetaFromJson(resp);
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
