// Fault containment end to end: the ACCMOS_FAULT injection facility
// drives every degradation path byte-for-byte — a campaign survives a
// seed that hangs and a seed that crashes (reporting exactly those as
// structured RunFailures while every surviving seed stays bit-identical
// to a fault-free campaign, for any worker count),
// a deadline-armed dlopen run retires promptly instead of wedging the
// host, two in-process strikes quarantine an engine onto the subprocess
// backend, CompilerDriver absorbs transient compiler deaths and decodes
// the non-transient ones, and the compile cache shrugs off a writer
// killed mid-publish.
#include <gtest/gtest.h>

#include <dlfcn.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "codegen/fault.h"
#include "gen/generator.h"
#include "sim/campaign.h"
#include "sim/failure.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

namespace fs = std::filesystem;
using test::Tiny;

// Scoped environment override; restores the previous value on exit so
// these tests compose with an ambient ACCMOS_EXEC_MODE / ACCMOS_FAULT.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

// Every test runs against a private, empty compile cache (fault-armed
// builds re-key the cache by design, but driver-level fault tests compile
// fault-free sources that must not be served from a shared cache), with
// any ambient fault/exec-mode overrides cleared.
class FaultTest : public ::testing::Test {
 protected:
  FaultTest()
      : cacheDir_(fs::temp_directory_path() /
                  ("accmos_fault_test_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter_++))),
        cacheEnv_("ACCMOS_CACHE_DIR", cacheDir_.string().c_str()),
        faultEnv_("ACCMOS_FAULT", nullptr),
        execEnv_("ACCMOS_EXEC_MODE", nullptr) {}
  ~FaultTest() override {
    std::error_code ec;
    fs::remove_all(cacheDir_, ec);
  }

  fs::path cacheDir_;

 private:
  EnvGuard cacheEnv_;
  EnvGuard faultEnv_;
  EnvGuard execEnv_;
  static int counter_;
};

int FaultTest::counter_ = 0;

// I8 gain that wraps on overflow under full-range stimulus: outputs,
// coverage AND diagnostics all depend on the seed, so "bit-identical
// survivors" is a strong claim, not a vacuous one.
FlatModel wrapGainModel(Tiny& t) {
  t.inport("In1", 1, DataType::I8);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 5.0);
  g.setDtype(DataType::I8);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  return t.flatten();
}

TestCaseSpec fullRangeStimulus() {
  TestCaseSpec base;
  base.defaultPort.min = 0.0;
  base.defaultPort.max = 127.0;
  return base;
}

SimOptions faultOptions() {
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 300;
  opt.optFlag = "-O0";  // fault builds are one-off; cheap compiles
  opt.runTimeoutSec = 0.5;
  return opt;
}

void expectSameCampaignRow(const CampaignSeedResult& a,
                           const CampaignSeedResult& b,
                           const std::string& label) {
  EXPECT_EQ(a.seed, b.seed) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.coverage.toString(), b.coverage.toString()) << label;
  EXPECT_EQ(a.cumulative.toString(), b.cumulative.toString()) << label;
  EXPECT_EQ(a.diagnosticKinds, b.diagnosticKinds) << label;
}

// The acceptance scenario: one seed hangs, another crashes, and the
// campaign completes reporting exactly those two as RunFailure{Timeout} /
// RunFailure{Crash} — with every surviving seed's contribution (per-seed
// rows, merged bitmaps, deduplicated diagnostics) bit-identical to a
// fault-free campaign over only the survivors, across worker counts.
TEST_F(FaultTest, CampaignContainsHangAndCrashSeeds) {
  Tiny t;
  FlatModel fm = wrapGainModel(t);
  TestCaseSpec base = fullRangeStimulus();
  SimOptions opt = faultOptions();

  const std::vector<uint64_t> seeds = {1, 2, 3, 4, 5, 6};
  const std::vector<uint64_t> survivors = {1, 2, 4, 6};

  // Fault-free baseline over the survivors only.
  CampaignResult want = runCampaign(fm, opt, base, survivors);

  EnvGuard fault("ACCMOS_FAULT", "hang@10:seed=3;crash@10:seed=5");
  for (size_t workers : {1u, 2u, 4u}) {
    SimOptions o = opt;
    o.campaign.workers = workers;
    std::string label = "workers=" + std::to_string(workers);
    CampaignResult got = runCampaign(fm, o, base, seeds);

    ASSERT_EQ(got.failures.size(), 2u) << label;
    EXPECT_EQ(got.failures[0].kind, FailureKind::Timeout) << label;
    EXPECT_EQ(got.failures[0].seed, 3u) << label;
    EXPECT_EQ(got.failures[0].index, 2u) << label;
    EXPECT_EQ(got.failures[1].kind, FailureKind::Crash) << label;
    EXPECT_EQ(got.failures[1].seed, 5u) << label;
    EXPECT_EQ(got.failures[1].index, 4u) << label;
    EXPECT_EQ(got.failures[1].signal, SIGSEGV) << label;

    ASSERT_EQ(got.perSeed.size(), seeds.size()) << label;
    EXPECT_TRUE(got.perSeed[2].failed) << label;
    EXPECT_TRUE(got.perSeed[4].failed) << label;

    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(got.mergedBitmaps.bits(m), want.mergedBitmaps.bits(m))
          << label << " bitmap " << covMetricName(m);
    }
    EXPECT_EQ(got.cumulative.toString(), want.cumulative.toString())
        << label;

    size_t wk = 0;
    for (size_t k = 0; k < seeds.size(); ++k) {
      if (got.perSeed[k].failed) continue;
      ASSERT_LT(wk, want.perSeed.size()) << label;
      expectSameCampaignRow(got.perSeed[k], want.perSeed[wk],
                            label + " seed " + std::to_string(seeds[k]));
      ++wk;
    }
    EXPECT_EQ(wk, want.perSeed.size()) << label;

    ASSERT_EQ(got.diagnostics.size(), want.diagnostics.size()) << label;
    for (size_t k = 0; k < got.diagnostics.size(); ++k) {
      EXPECT_EQ(got.diagnostics[k].actorPath, want.diagnostics[k].actorPath)
          << label;
      EXPECT_EQ(got.diagnostics[k].kind, want.diagnostics[k].kind) << label;
      EXPECT_EQ(got.diagnostics[k].message, want.diagnostics[k].message)
          << label;
      EXPECT_EQ(got.diagnostics[k].firstStep, want.diagnostics[k].firstStep)
          << label;
      EXPECT_EQ(got.diagnostics[k].count, want.diagnostics[k].count)
          << label;
    }
  }
}

// A deadline-armed dlopen run whose generated code wedges must retire
// itself cooperatively — the host process is never blocked past the
// deadline (plus scheduling slack), and the partial result says so.
TEST_F(FaultTest, DeadlineExceededDlopenRunNeverBlocks) {
  EnvGuard fault("ACCMOS_FAULT", "hang@10");
  Tiny t;
  FlatModel fm = wrapGainModel(t);
  SimOptions opt = faultOptions();
  opt.runTimeoutSec = 0.3;
  opt.execMode = ExecMode::Dlopen;

  AccMoSEngine engine(fm, opt, fullRangeStimulus());
  auto t0 = std::chrono::steady_clock::now();
  SimulationResult res = engine.run();
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(res.timedOut);
  EXPECT_LT(res.stepsExecuted, opt.maxSteps);
  EXPECT_LT(elapsed, 5.0);  // deadline 0.3s; generous slack for slow CI
}

// A step budget retires the run deterministically (same flag as the
// wall-clock deadline) — this is what the CLI's --step-budget maps to.
TEST_F(FaultTest, StepBudgetRetiresRunDeterministically) {
  Tiny t;
  FlatModel fm = wrapGainModel(t);
  SimOptions opt = faultOptions();
  opt.runTimeoutSec = 0.0;
  opt.stepBudget = 17;

  AccMoSEngine engine(fm, opt, fullRangeStimulus());
  SimulationResult res = engine.run();
  EXPECT_TRUE(res.timedOut);
  EXPECT_EQ(res.stepsExecuted, 17u);
}

// Two in-process faults quarantine the engine: every later run goes
// straight to the subprocess backend for the engine's lifetime. The
// contained failures themselves carry the crash signal and the backend
// that made the final call.
TEST_F(FaultTest, TwoStrikesQuarantineEngineOntoSubprocess) {
  EnvGuard fault("ACCMOS_FAULT", "crash@10");
  Tiny t;
  FlatModel fm = wrapGainModel(t);
  SimOptions opt = faultOptions();
  opt.execMode = ExecMode::Dlopen;

  AccMoSEngine engine(fm, opt, fullRangeStimulus());
  ASSERT_FALSE(engine.quarantined());

  SimulationResult r1 = engine.runContained();
  ASSERT_TRUE(r1.failed);
  EXPECT_EQ(r1.failure.kind, FailureKind::Crash);
  EXPECT_EQ(r1.failure.signal, SIGSEGV);
  EXPECT_EQ(r1.failure.backend, "process");
  EXPECT_EQ(r1.failure.retries, 1);  // in-process attempt, then subprocess

  SimulationResult r2 = engine.runContained();
  ASSERT_TRUE(r2.failed);
  EXPECT_TRUE(engine.quarantined()) << "two in-process crashes must "
                                       "quarantine the library";

  // Quarantined: no in-process attempt happens at all.
  SimulationResult r3 = engine.runContained();
  ASSERT_TRUE(r3.failed);
  EXPECT_EQ(r3.failure.retries, 0);
  EXPECT_EQ(r3.failure.backend, "process");
}

// The generator keeps searching when every candidate faults: failures are
// bookkept per candidate, nothing is accepted, and the loop still
// terminates on its budget instead of aborting.
TEST_F(FaultTest, GeneratorRecordsFailuresAndContinues) {
  EnvGuard fault("ACCMOS_FAULT", "crash@2");
  Tiny t;
  FlatModel fm = wrapGainModel(t);
  SimOptions opt = faultOptions();
  opt.maxSteps = 50;

  gen::GenOptions gopt;
  gopt.budget = 4;
  gopt.batch = 2;
  gopt.bootstrap = 2;
  gopt.base = fullRangeStimulus();

  gen::GenResult gr = gen::runGeneration(fm, opt, gopt);
  EXPECT_EQ(gr.evaluations, 4u);
  EXPECT_EQ(gr.failures.size(), 4u);
  EXPECT_EQ(gr.corpus.size(), 0u);
  for (const auto& f : gr.failures) {
    EXPECT_EQ(f.kind, FailureKind::Crash);
  }
  size_t failedTotal = 0;
  for (const auto& it : gr.trajectory) failedTotal += it.failed;
  EXPECT_EQ(failedTotal, 4u);
}

// Malformed fault specs must fail loudly — a typo silently injecting
// nothing would make a fault-matrix CI job vacuously green.
TEST_F(FaultTest, MalformedFaultSpecThrows) {
  {
    EnvGuard fault("ACCMOS_FAULT", "wedge@10");
    EXPECT_THROW(faultPlanFromEnv(), ModelError);
  }
  {
    EnvGuard fault("ACCMOS_FAULT", "hang@ten");
    EXPECT_THROW(faultPlanFromEnv(), ModelError);
  }
  {
    EnvGuard fault("ACCMOS_FAULT", "compile-fail:sig=0");
    EXPECT_THROW(faultPlanFromEnv(), ModelError);
  }
}

// ---------------------------------------------------------------------
// CompilerDriver: transient-retry, non-transient decode, watchdogs.
// Each test compiles a UNIQUE trivial source (the fault hooks stage the
// failure around the real compiler invocation, so a cache hit would skip
// the code under test).

std::string uniqueSource(const std::string& tag, const std::string& body) {
  return "// " + tag + " " + std::to_string(::getpid()) + "\n" + body;
}

constexpr const char* kHelloBody =
    "extern \"C\" int accmos_hello() { return 42; }\n";

// The compiled shared library loads and its hello symbol answers.
void expectHelloLoads(const std::string& path) {
  void* h = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  ASSERT_NE(h, nullptr) << ::dlerror();
  auto* hello = reinterpret_cast<int (*)()>(::dlsym(h, "accmos_hello"));
  ASSERT_NE(hello, nullptr) << path;
  EXPECT_EQ(hello(), 42);
  ::dlclose(h);
}

TEST_F(FaultTest, CompileFailOnceIsRetriedTransparently) {
  EnvGuard fault("ACCMOS_FAULT", "compile-fail:once");
  CompilerDriver driver;
  CompileOutput out = driver.compile(uniqueSource("retry-once", kHelloBody),
                                     "retry_once", "-O0");
  EXPECT_GE(out.retries, 1);
  expectHelloLoads(out.exePath);
}

TEST_F(FaultTest, CompileFailExitIsNotRetried) {
  EnvGuard fault("ACCMOS_FAULT", "compile-fail:exit=3");
  CompilerDriver driver;
  try {
    driver.compile(uniqueSource("exit-fail", kHelloBody), "exit_fail", "-O0");
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("injected compiler failure"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(FaultTest, CompileKilledByFatalSignalIsDecoded) {
  // SIGSEGV is not the OOM killer: no retry, and the decoded signal name
  // reaches the error message.
  EnvGuard fault("ACCMOS_FAULT", "compile-fail:sig=11");
  CompilerDriver driver;
  try {
    driver.compile(uniqueSource("sig11", kHelloBody), "sig11", "-O0");
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("SIGSEGV"), std::string::npos)
        << e.what();
  }
}

TEST_F(FaultTest, SlowCompileTripsTheWatchdog) {
  EnvGuard fault("ACCMOS_FAULT", "slow-compile:30000");
  CompilerDriver driver;
  driver.setCompileTimeout(0.3);
  try {
    driver.compile(uniqueSource("slow", kHelloBody), "slow_compile", "-O0");
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
}

TEST_F(FaultTest, RunDecodesSignalDeath) {
  CompilerDriver driver;
  try {
    driver.run("/bin/sh", {"-c", "kill -SEGV $$"});
    FAIL() << "expected SimCrashError";
  } catch (const SimCrashError& e) {
    EXPECT_EQ(e.terminatingSignal(), SIGSEGV);
    EXPECT_NE(std::string(e.what()).find("SIGSEGV"), std::string::npos)
        << e.what();
  }
}

TEST_F(FaultTest, RunDecodesNonzeroExit) {
  CompilerDriver driver;
  try {
    driver.run("/bin/sh", {"-c", "exit 9"});
    FAIL() << "expected SimCrashError";
  } catch (const SimCrashError& e) {
    EXPECT_EQ(e.terminatingSignal(), 0);  // exited, not signalled
    EXPECT_EQ(e.exitStatus(), 9);
    EXPECT_NE(std::string(e.what()).find("exit"), std::string::npos)
        << e.what();
  }
}

TEST_F(FaultTest, RunWatchdogKillsHungBinary) {
  CompilerDriver driver;
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(driver.run("sleep", {"60"}, 0.3), SimTimeoutError);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 30.0);  // watchdog fires at ~1.45s; CI slack
}

// Crash-safe cache publication: a writer killed mid-copy leaves a
// truncated *.tmp behind. It must never be served as a cache entry, and
// the next compile of the same source must succeed and publish a valid,
// loadable library alongside the debris.
TEST_F(FaultTest, TruncatedCacheTempIsNeverServed) {
  fs::create_directories(cacheDir_);
  std::string src = uniqueSource("cache-tmp", kHelloBody);
  uint64_t key = CompilerDriver::cacheKey(src, "-O0");
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(key));
  // Simulated torn write under the exact name a real writer would use.
  fs::path tmp = cacheDir_ / (std::string(hex) + ".bin.12345.0.tmp");
  {
    std::ofstream f(tmp, std::ios::binary);
    f << "\x7f" "ELFtrunc";
  }

  CompilerDriver driver;
  CompileOutput out = driver.compile(src, "cache_tmp", "-O0");
  EXPECT_FALSE(out.cacheHit);
  expectHelloLoads(out.exePath);
  EXPECT_TRUE(fs::exists(cacheDir_ / (std::string(hex) + ".bin")));

  // And the published entry is served (and verified) on the next compile.
  CompilerDriver driver2;
  CompileOutput again = driver2.compile(src, "cache_tmp2", "-O0");
  EXPECT_TRUE(again.cacheHit);
  expectHelloLoads(again.exePath);
}

}  // namespace
}  // namespace accmos
