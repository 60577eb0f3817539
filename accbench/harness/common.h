// Shared pieces of the benchmark harness: options, the raw-sample report
// run.py reduces, the span recorder of the traced mode, child processes,
// and the model/observation helpers every workload uses.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/flat_model.h"
#include "ir/model.h"
#include "opt/stats.h"
#include "sim/campaign.h"
#include "sim/options.h"
#include "sim/result.h"
#include "sim/testcase.h"

namespace accbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir;  // private, empty scratch directory of this run
  std::string cli;      // the `accmos` binary
  std::string traceOut;  // where the traced mode writes its spans
};

// Threads and connections the load may use: one per core.
size_t loadThreads();

// Raw measurements of one run. run.py turns them into metrics: a "median"
// metric is the median of its samples; a "geomean" metric the geometric
// mean over groups of each group's median, or of each group's largest
// ("geomean_max") or smallest ("geomean_min") sample; a "tail" metric the
// highest percentile with at least ten samples beyond it; a "value"
// metric its single sample.
class Report {
 public:
  void sample(const std::string& metric, const char* unit, double v);
  void groupSample(const std::string& metric, const char* unit,
                   const std::string& group, double v,
                   const char* reduce = "geomean");
  void tail(const std::string& metric, const char* unit, double v);
  void value(const std::string& metric, const char* unit, double v);
  void info(const std::string& key, const std::string& v);

  // Counts one operation; a failed one also marks the run incorrect and
  // prints `what` to stderr.
  void op(bool ok, const std::string& what);

  std::string json() const;

 private:
  struct Metric {
    std::string unit;
    std::string reduce;
    std::vector<double> samples;
    std::map<std::string, std::vector<double>> groups;
  };
  Metric& metric(const std::string& name, const char* unit,
                 const char* reduce);

  std::mutex mutex_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Spans around the calls the harness makes into each layer. Off, span()
// just calls the function; on, it records name, parent and both clock
// readings. Spans are kept in memory and written once, as Chrome
// trace-event JSON, when the run ends.
class Trace {
 public:
  explicit Trace(bool on);

  bool on() const { return on_; }

  template <typename F>
  auto span(const char* name, F&& fn) -> decltype(fn()) {
    if (!on_) return fn();
    Scope s(*this, name);
    return fn();
  }

  // Summed duration of every span called `name`.
  double seconds(const std::string& name) const;
  // Summed duration of the main thread's spans that have no parent.
  double topLevelSeconds() const;

  void write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    int parent;
    int tid;
    double t0;
    double t1;
  };
  class Scope {
   public:
    Scope(Trace& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& t_;
    int index_;
    int savedParent_;
  };

  bool on_;
  Clock::time_point origin_;
  int mainTid_;
  mutable std::mutex mutex_;
  std::vector<Record> spans_;
};

// ---- processes -------------------------------------------------------------

// Starts `argv` with the harness environment plus `env` overrides
// ("KEY=VALUE"), stdout and stderr appended to `logPath`.
pid_t spawn(const std::vector<std::string>& argv,
            const std::vector<std::string>& env, const std::string& logPath);
// Waits for `pid`; past `timeoutSec` the child is killed and reaped.
// Returns the exit code, or -1 for a signal death or a timeout.
int waitChild(pid_t pid, double timeoutSec);
// True (and reaped) when `pid` has already ended.
bool exited(pid_t pid);
// Kills and reaps every child still running; returns how many there were.
size_t killChildren();

// VmHWM / VmRSS of a process in MB (0 when unreadable).
double peakRssMb(pid_t pid);
double rssMb(pid_t pid);

// ---- models ----------------------------------------------------------------

// A Table 1 model as model-file text with its bench stimulus embedded.
std::string benchModelXml(const std::string& name);

// The front half of the pipeline on model text: parse, flatten, optimize.
// Each step runs inside its layer's span.
struct Prepared {
  std::unique_ptr<accmos::Model> model;
  accmos::TestCaseSpec stimulus;
  accmos::FlatModel flat;
  accmos::FlatModel optimized;
  accmos::OptStats optStats;
};
std::unique_ptr<Prepared> prepare(const std::string& xml,
                                  const accmos::SimOptions& opt, Trace& tr);

accmos::SimOptions accmosOptions(uint64_t steps);

// The observation-only text of a result: outputs, bitmaps, coverage,
// diagnostics and monitors, no timing. Engines must agree on it bit for bit.
std::string observations(const accmos::SimulationResult& r);
std::string observations(const accmos::CampaignResult& r);

// SplitMix64 over the workload seed: every input a run draws comes from it.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next();

 private:
  uint64_t s_;
};

void makeDirs(const std::string& path);

}  // namespace accbench
