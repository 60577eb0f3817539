#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "actors/spec.h"
#include "bench_models/suite.h"
#include "graph/flatten.h"
#include "opt/pipeline.h"
#include "parser/model_io.h"
#include "serve/json.h"
#include "serve/protocol.h"

extern char** environ;

namespace accbench {

using accmos::serve::Json;

size_t loadThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ---- Report ------------------------------------------------------------------

Report::Metric& Report::metric(const std::string& name, const char* unit,
                               const char* reduce) {
  Metric& m = metrics_[name];
  m.unit = unit;
  m.reduce = reduce;
  return m;
}

void Report::sample(const std::string& name, const char* unit, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  metric(name, unit, "median").samples.push_back(v);
}

void Report::groupSample(const std::string& name, const char* unit,
                         const std::string& group, double v,
                         const char* reduce) {
  std::lock_guard<std::mutex> lock(mutex_);
  metric(name, unit, reduce).groups[group].push_back(v);
}

void Report::tail(const std::string& name, const char* unit, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  metric(name, unit, "tail").samples.push_back(v);
}

void Report::value(const std::string& name, const char* unit, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  Metric& m = metric(name, unit, "value");
  m.samples.assign(1, v);
}

void Report::info(const std::string& key, const std::string& v) {
  std::lock_guard<std::mutex> lock(mutex_);
  info_[key] = v;
}

void Report::op(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "accbench: FAILED: %s\n", what.c_str());
  }
}

std::string Report::json() const {
  Json doc = Json::object();
  doc.set("correct", Json::boolean(failed_ == 0));
  doc.set("attempted", Json::u64(attempted_));
  doc.set("failed", Json::u64(failed_));
  Json ms = Json::object();
  for (const auto& [name, m] : metrics_) {
    Json j = Json::object();
    j.set("unit", Json::str(m.unit));
    j.set("reduce", Json::str(m.reduce));
    Json samples = Json::array();
    for (double v : m.samples) samples.push(Json::number(v));
    j.set("samples", std::move(samples));
    Json groups = Json::object();
    for (const auto& [g, vs] : m.groups) {
      Json arr = Json::array();
      for (double v : vs) arr.push(Json::number(v));
      groups.set(g, std::move(arr));
    }
    j.set("groups", std::move(groups));
    ms.set(name, std::move(j));
  }
  doc.set("metrics", std::move(ms));
  Json info = Json::object();
  for (const auto& [k, v] : info_) info.set(k, Json::str(v));
  doc.set("info", std::move(info));
  return doc.write();
}

// ---- Trace -------------------------------------------------------------------

namespace {
thread_local int tlsParent = -1;

int threadTag() {
  static std::atomic<int> next{0};
  thread_local int tag = next.fetch_add(1);
  return tag;
}
}  // namespace

Trace::Trace(bool on)
    : on_(on), origin_(Clock::now()), mainTid_(threadTag()) {}

Trace::Scope::Scope(Trace& t, const char* name)
    : t_(t), savedParent_(tlsParent) {
  const double t0 = since(t.origin_);
  std::lock_guard<std::mutex> lock(t.mutex_);
  index_ = static_cast<int>(t.spans_.size());
  t.spans_.push_back({name, savedParent_, threadTag(), t0, t0});
  tlsParent = index_;
}

Trace::Scope::~Scope() {
  const double t1 = since(t_.origin_);
  std::lock_guard<std::mutex> lock(t_.mutex_);
  t_.spans_[static_cast<size_t>(index_)].t1 = t1;
  tlsParent = savedParent_;
}

double Trace::seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double s = 0.0;
  for (const auto& r : spans_) {
    if (r.name == name) s += r.t1 - r.t0;
  }
  return s;
}

double Trace::topLevelSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double s = 0.0;
  for (const auto& r : spans_) {
    if (r.parent < 0 && r.tid == mainTid_) s += r.t1 - r.t0;
  }
  return s;
}

void Trace::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json events = Json::array();
  for (size_t k = 0; k < spans_.size(); ++k) {
    const auto& r = spans_[k];
    Json e = Json::object();
    e.set("name", Json::str(r.name));
    e.set("cat", Json::str(r.name.substr(0, r.name.find('.'))));
    e.set("ph", Json::str("X"));
    e.set("pid", Json::u64(1));
    e.set("tid", Json::u64(static_cast<uint64_t>(r.tid)));
    e.set("ts", Json::number(r.t0 * 1e6));
    e.set("dur", Json::number((r.t1 - r.t0) * 1e6));
    Json args = Json::object();
    args.set("id", Json::u64(k));
    args.set("parent", Json::i64(r.parent));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.write() << "\n";
}

// ---- processes ---------------------------------------------------------------

namespace {
std::mutex g_childMutex;
std::set<pid_t> g_children;  // started and not yet reaped
}  // namespace

pid_t spawn(const std::vector<std::string>& argv,
            const std::vector<std::string>& env, const std::string& logPath) {
  std::vector<std::string> envStore;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string kv(*e);
    bool overridden = false;
    for (const auto& o : env) {
      if (kv.compare(0, o.find('=') + 1, o, 0, o.find('=') + 1) == 0) {
        overridden = true;
      }
    }
    if (!overridden) envStore.push_back(kv);
  }
  envStore.insert(envStore.end(), env.begin(), env.end());
  std::vector<char*> cargv;
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  std::vector<char*> cenv;
  for (auto& e : envStore) cenv.push_back(e.data());
  cenv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, logPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(), cenv.data());
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  std::lock_guard<std::mutex> lock(g_childMutex);
  g_children.insert(pid);
  return pid;
}

int waitChild(pid_t pid, double timeoutSec) {
  const auto t0 = Clock::now();
  int rc = -1;
  for (;;) {
    int status = 0;
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      break;
    }
    if (r < 0) break;
    if (since(t0) > timeoutSec) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::lock_guard<std::mutex> lock(g_childMutex);
  g_children.erase(pid);
  return rc;
}

bool exited(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, WNOHANG) != pid) return false;
  std::lock_guard<std::mutex> lock(g_childMutex);
  g_children.erase(pid);
  return true;
}

size_t killChildren() {
  std::set<pid_t> left;
  {
    std::lock_guard<std::mutex> lock(g_childMutex);
    left.swap(g_children);
  }
  for (pid_t pid : left) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  return left.size();
}

namespace {
double statusFieldMb(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::strtod(line.c_str() + n, nullptr) / 1024.0;
    }
  }
  return 0.0;
}
}  // namespace

double peakRssMb(pid_t pid) { return statusFieldMb(pid, "VmHWM:"); }
double rssMb(pid_t pid) { return statusFieldMb(pid, "VmRSS:"); }

// ---- models ------------------------------------------------------------------

std::string benchModelXml(const std::string& name) {
  auto model = accmos::buildBenchmarkModel(name);
  accmos::TestCaseSpec stim = accmos::benchStimulus(name);
  return accmos::writeModelToString(*model, &stim);
}

std::unique_ptr<Prepared> prepare(const std::string& xml,
                                  const accmos::SimOptions& opt, Trace& tr) {
  auto p = std::make_unique<Prepared>();
  accmos::LoadedModel loaded = tr.span(
      "parser.read", [&] { return accmos::loadModelFromString(xml); });
  p->model = std::move(loaded.model);
  p->stimulus = loaded.stimulus.value_or(accmos::TestCaseSpec{});
  p->flat = tr.span("graph.flatten", [&] {
    accmos::FlatModel fm =
        accmos::flatten(*p->model, accmos::Registry::instance());
    accmos::validateFlatModel(fm);
    return fm;
  });
  p->optimized = tr.span("opt.optimize", [&] {
    return accmos::optimizeModel(p->flat, opt, &p->optStats);
  });
  return p;
}

accmos::SimOptions accmosOptions(uint64_t steps) {
  accmos::SimOptions opt;
  opt.engine = accmos::Engine::AccMoS;
  opt.maxSteps = steps;
  return opt;
}

std::string observations(const accmos::SimulationResult& r) {
  using accmos::serve::toJson;
  Json j = Json::object();
  j.set("steps", Json::u64(r.stepsExecuted));
  j.set("stoppedEarly", Json::boolean(r.stoppedEarly));
  j.set("timedOut", Json::boolean(r.timedOut));
  j.set("failed", Json::boolean(r.failed));
  Json outs = Json::array();
  for (const auto& v : r.finalOutputs) outs.push(toJson(v));
  j.set("outputs", std::move(outs));
  j.set("coverage", toJson(r.coverage));
  j.set("bitmaps", toJson(r.bitmaps));
  Json diags = Json::array();
  for (const auto& d : r.diagnostics) diags.push(toJson(d));
  j.set("diagnostics", std::move(diags));
  Json mons = Json::array();
  for (const auto& c : r.collected) mons.push(toJson(c));
  j.set("monitors", std::move(mons));
  return j.write();
}

std::string observations(const accmos::CampaignResult& r) {
  return accmos::serve::campaignObservations(r).write();
}

uint64_t Rng::next() {
  uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void makeDirs(const std::string& path) {
  std::filesystem::create_directories(path);
}

}  // namespace accbench
