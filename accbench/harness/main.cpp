// accbench: one run of one workload. Usually started by run.py, which
// builds it, clears the environment and reduces the raw samples printed on
// the last line of stdout into the benchmark's metrics.
//
//   accbench --workload=NAME --seed=N --seconds=S --trace=0|1
//            --work-dir=DIR --cli=PATH/accmos [--trace-out=FILE]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <string>

#include "workloads.h"

namespace {

// Knobs that change what the program does by default. The benchmark
// measures defaults, so it refuses to run with any of them inherited.
constexpr const char* kForeignKnobs[] = {
    "ACCMOS_BATCH",     "ACCMOS_TIER",  "ACCMOS_EXEC_MODE",
    "ACCMOS_NO_OPT",    "ACCMOS_FAULT", "ACCMOS_COMPILE_POOL",
    "ACCMOS_CACHE_DIR", "ACCMOS_CACHE_DISABLE",
};

bool flag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace accbench;
  Options o;
  std::string v;
  for (int k = 1; k < argc; ++k) {
    if (flag(argv[k], "--workload", &o.workload)) continue;
    if (flag(argv[k], "--work-dir", &o.workDir)) continue;
    if (flag(argv[k], "--cli", &o.cli)) continue;
    if (flag(argv[k], "--trace-out", &o.traceOut)) continue;
    if (flag(argv[k], "--seed", &v)) {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag(argv[k], "--seconds", &v)) {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag(argv[k], "--trace", &v)) {
      o.trace = v == "1";
    } else {
      std::fprintf(stderr, "accbench: unknown argument %s\n", argv[k]);
      return 2;
    }
  }
  const std::map<std::string, std::function<void(const Options&, Report&,
                                                 Trace&)>>
      workloads = {{"table1_cold_run", runTable1ColdRun},
                   {"csev_campaign", runCsevCampaign},
                   {"serve_mix", runServeMix}};
  auto it = workloads.find(o.workload);
  if (it == workloads.end() || o.workDir.empty() || o.cli.empty() ||
      o.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: accbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --work-dir=DIR --cli=ACCMOS\n");
    return 2;
  }
  for (const char* knob : kForeignKnobs) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "accbench: refusing to run with %s set\n", knob);
      return 2;
    }
  }

  // Everything the run writes lives in its private work directory; the
  // compile cache there starts empty. Relative daemon socket paths resolve
  // against it too, which keeps them short.
  o.workDir = std::filesystem::absolute(o.workDir).string();
  o.cli = std::filesystem::absolute(o.cli).string();
  makeDirs(o.workDir + "/cache");
  if (::chdir(o.workDir.c_str()) != 0) {
    std::fprintf(stderr, "accbench: cannot enter %s\n", o.workDir.c_str());
    return 2;
  }
  ::setenv("ACCMOS_CACHE_DIR", (o.workDir + "/cache").c_str(), 1);

  Report rep;
  Trace tr(o.trace);
  try {
    it->second(o, rep, tr);
  } catch (const std::exception& e) {
    killChildren();
    std::fprintf(stderr, "accbench: %s aborted: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  // A workload stops what it starts; a leftover child is a harness bug.
  rep.op(killChildren() == 0, "a child process was still running");
  if (o.trace && !o.traceOut.empty()) tr.write(o.traceOut);
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
