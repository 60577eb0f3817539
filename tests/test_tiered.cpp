// Tiered execution (docs/EXECUTION.md "Tiered execution"): the async
// CompilerDriver primitives (single-flight de-duplication, cooperative
// cancellation on the background pool) and the TieredEngine built on them.
// The soundness contract under test: campaign results are bit-identical
// across --tier=native/auto/interp for every worker count, regardless of
// where (or whether) the hot-swap lands — plus the forced-native
// hardening rules and all-interp graceful degradation when the compile
// never finishes or the compiler is gone.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_models/sample_overflow.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "sim/tiered_engine.h"
#include "test_util.h"

namespace accmos {
namespace {

namespace fs = std::filesystem;
using test::Tiny;

// Scope-local environment override; the previous value is restored on
// exit, so these tests behave the same under ambient ACCMOS_TIER /
// ACCMOS_EXEC_MODE CI sweeps.
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

// Private compile cache per test: cold starts are deterministic and the
// async artifact hand-over cannot be served by another test's entries.
class TieredTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("accmos_tiered_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(dir_);
    ::setenv("ACCMOS_CACHE_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("ACCMOS_CACHE_DIR");
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // Re-cool the cache mid-test (for a second cold start).
  void clearCache() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
  }

  fs::path dir_;
};

std::unique_ptr<Tiny> gainModel(double gain) {
  auto t = std::make_unique<Tiny>();
  t->inport("In1", 1);
  Actor& g = t->actor("G", "Gain");
  g.params().setDouble("gain", gain);
  t->outport("Out1", 1);
  t->wire("In1", "G");
  t->wire("G", "Out1");
  return t;
}

SimOptions tierOptions(Tier tier, uint64_t steps = 300) {
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = steps;
  opt.optFlag = "-O1";  // cheap compiles; tiering behaves the same
  opt.tier = tier;
  // Pinned: the tier sweep asserts native execMode strings, and CI reruns
  // the suite under ACCMOS_EXEC_MODE=process.
  opt.execMode = ExecMode::Dlopen;
  return opt;
}

// Campaign observations only — everything the seed-order merge carries
// except timing and tier bookkeeping.
void expectSameCampaign(const CampaignResult& a, const CampaignResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.cumulative.toString(), b.cumulative.toString()) << label;
  ASSERT_EQ(a.perSeed.size(), b.perSeed.size()) << label;
  for (size_t k = 0; k < a.perSeed.size(); ++k) {
    EXPECT_EQ(a.perSeed[k].seed, b.perSeed[k].seed) << label;
    EXPECT_EQ(a.perSeed[k].failed, b.perSeed[k].failed) << label;
    EXPECT_EQ(a.perSeed[k].steps, b.perSeed[k].steps)
        << label << " seed " << a.perSeed[k].seed;
    EXPECT_EQ(a.perSeed[k].coverage.toString(),
              b.perSeed[k].coverage.toString())
        << label << " seed " << a.perSeed[k].seed;
    EXPECT_EQ(a.perSeed[k].cumulative.toString(),
              b.perSeed[k].cumulative.toString())
        << label << " seed " << a.perSeed[k].seed;
    EXPECT_EQ(a.perSeed[k].diagnosticKinds, b.perSeed[k].diagnosticKinds)
        << label << " seed " << a.perSeed[k].seed;
  }
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size()) << label;
  for (size_t k = 0; k < a.diagnostics.size(); ++k) {
    EXPECT_EQ(a.diagnostics[k].actorPath, b.diagnostics[k].actorPath)
        << label;
    EXPECT_EQ(a.diagnostics[k].kind, b.diagnostics[k].kind) << label;
    EXPECT_EQ(a.diagnostics[k].firstStep, b.diagnostics[k].firstStep)
        << label;
    EXPECT_EQ(a.diagnostics[k].count, b.diagnostics[k].count) << label;
  }
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(a.mergedBitmaps.bits(m), b.mergedBitmaps.bits(m))
        << label << " merged bitmap " << covMetricName(m);
  }
}

// ---------------------------------------------------------------------------
// Single-flight compilation (the async CompilerDriver primitive).

// Two drivers racing compileAsync on one cold source must trigger exactly
// one real compiler invocation: the second request joins the in-flight job
// and resolves to the producer's output. slow-compile holds the producer
// long enough that the join (not a cache hit) is what de-duplicates.
TEST_F(TieredTest, SingleFlightJoinsConcurrentAsyncCompiles) {
  EnvGuard fault("ACCMOS_FAULT", "slow-compile:400");
  const std::string src =
      "#include <cstdio>\nint main(){ std::puts(\"sf\"); return 0; }\n";
  const uint64_t before = CompilerDriver::compilerInvocations();

  CompilerDriver d1;
  CompilerDriver d2;
  CompileHandle h1 = d1.compileAsync(src, "singleflight", "-O0");
  CompileHandle h2 = d2.compileAsync(src, "singleflight", "-O0");
  CompileOutput a = h1.get();
  CompileOutput b = h2.get();

  EXPECT_EQ(CompilerDriver::compilerInvocations() - before, 1u);
  // Either the second request joined the flight (same ordinal) or the
  // producer already published and it was served from the cache.
  EXPECT_TRUE(b.invocation == a.invocation || b.cacheHit)
      << "a.invocation=" << a.invocation << " b.invocation=" << b.invocation;
  EXPECT_FALSE(a.exePath.empty());
  EXPECT_FALSE(b.exePath.empty());
}

// The same de-duplication holds for the synchronous path: N workers
// constructing engines for one cold model (the campaign cold-start race)
// compile it once.
TEST_F(TieredTest, SingleFlightDeduplicatesConcurrentEngineBuilds) {
  EnvGuard fault("ACCMOS_FAULT", "slow-compile:300");
  auto t = gainModel(3.0);
  Simulator sim(t->model());
  SimOptions opt = tierOptions(Tier::Native, 50);
  TestCaseSpec tests;

  const uint64_t before = CompilerDriver::compilerInvocations();
  std::unique_ptr<AccMoSEngine> e1, e2;
  std::thread w1([&] { e1 = std::make_unique<AccMoSEngine>(
                           sim.flatModel(), opt, tests); });
  std::thread w2([&] { e2 = std::make_unique<AccMoSEngine>(
                           sim.flatModel(), opt, tests); });
  w1.join();
  w2.join();
  EXPECT_EQ(CompilerDriver::compilerInvocations() - before, 1u)
      << "two racing engine builds must share one compiler run";

  SimulationResult r1 = e1->run();
  SimulationResult r2 = e2->run();
  test::expectSameOutputs(r1, r2, "single-flight engines");
}

// A queued job whose every interested handle cancelled before a pool
// worker picked it up is never compiled: the worker completes it with
// CompileCancelled and the invocation counter does not move for it.
TEST_F(TieredTest, CancellationSkipsQueuedJobs) {
  EnvGuard fault("ACCMOS_FAULT", "slow-compile:500");
  CompilerDriver driver;
  const int pool = CompilerDriver::compilePoolSize();
  const uint64_t before = CompilerDriver::compilerInvocations();

  // Fill every pool worker with a slow blocker...
  std::vector<CompileHandle> blockers;
  for (int k = 0; k < pool; ++k) {
    blockers.push_back(driver.compileAsync(
        "int main(){ return " + std::to_string(k) + "; }\n",
        "blocker" + std::to_string(k), "-O0"));
  }
  // ...then enqueue one more and immediately withdraw the only interest.
  CompileHandle victim =
      driver.compileAsync("int main(){ return 42; }\n", "victim", "-O0");
  victim.cancel();

  for (auto& h : blockers) h.get();  // drain the pool
  EXPECT_THROW(victim.get(), CompileCancelled);
  EXPECT_EQ(CompilerDriver::compilerInvocations() - before,
            static_cast<uint64_t>(pool))
      << "the cancelled job must never reach the compiler";
}

// ---------------------------------------------------------------------------
// TieredEngine policy hardening.

TEST_F(TieredTest, CapabilitiesForceTheNativeTier) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  TestCaseSpec tests;

  {  // Cooperative deadlines are generated-code features.
    SimOptions opt = tierOptions(Tier::Auto, 50);
    opt.runTimeoutSec = 5.0;
    TieredEngine te(sim.flatModel(), opt, tests);
    EXPECT_EQ(te.policy(), Tier::Native);
    EXPECT_TRUE(te.nativeReady());
  }
  {  // Step budgets too, even under the explicit interp tier.
    SimOptions opt = tierOptions(Tier::Interp, 50);
    opt.stepBudget = 10;
    TieredEngine te(sim.flatModel(), opt, tests);
    EXPECT_EQ(te.policy(), Tier::Native);
  }
  {  // Expression customs pair a callback with a C++ snippet; the tiers
     // cannot be proven to agree, so the generated code decides.
    SimOptions opt = tierOptions(Tier::Auto, 50);
    CustomDiagnostic cd;
    cd.actorPath = "T_G";
    cd.name = "expr";
    cd.kind = CustomDiagnostic::Kind::Expression;
    cd.callback = [](double cur, double, uint64_t) { return cur > 1e9; };
    cd.cppCondition = "cur > 1e9";
    opt.customDiagnostics.push_back(cd);
    TieredEngine te(sim.flatModel(), opt, tests);
    EXPECT_EQ(te.policy(), Tier::Native);
  }
  {  // Data-driven customs run on every tier — no hardening.
    SimOptions opt = tierOptions(Tier::Interp, 50);
    opt.customDiagnostics.push_back(
        rangeDiagnostic("T_G", "range", -10.0, 10.0));
    TieredEngine te(sim.flatModel(), opt, tests);
    EXPECT_EQ(te.policy(), Tier::Interp);
    SimulationResult r = te.runContained();
    EXPECT_EQ(r.execMode, kExecModeInterp);
  }
  {  // Auto rides on the compile cache for the artifact hand-over.
    SimOptions opt = tierOptions(Tier::Auto, 50);
    opt.compileCache = false;
    TieredEngine te(sim.flatModel(), opt, tests);
    EXPECT_EQ(te.policy(), Tier::Native);
  }
  {  // Interp never compiles, so a disabled cache is no reason to harden.
    SimOptions opt = tierOptions(Tier::Interp, 50);
    opt.compileCache = false;
    TieredEngine te(sim.flatModel(), opt, tests);
    EXPECT_EQ(te.policy(), Tier::Interp);
    EXPECT_FALSE(te.nativeReady());
  }
}

// An injected compiler fault must not be dodged by the interpreter tier:
// ACCMOS_FAULT=compile-fail hardens to Native, where the injection fires
// as the CompileError the caller asked to see (CLI exit code 5).
TEST_F(TieredTest, InjectedCompileFaultIsNotDodgedByTiering) {
  EnvGuard fault("ACCMOS_FAULT", "compile-fail:exit=1");
  auto t = gainModel(4.0);
  Simulator sim(t->model());
  SimOptions opt = tierOptions(Tier::Interp, 50);
  EXPECT_THROW(TieredEngine(sim.flatModel(), opt, TestCaseSpec{}),
               CompileError);
}

// ---------------------------------------------------------------------------
// Campaign differentials: native vs auto vs interp.

// The tier sweep: merged campaign results must be bit-identical to the
// pure-native reference for tiers {auto, interp} x workers {1, 2, 4} —
// whatever mix of tiers answered the seeds (the auto runs start cold, so
// early seeds go interpreted and the rest native after the mid-campaign
// swap).
TEST_F(TieredTest, CampaignsMatchNativeAcrossTiersAndWorkers) {
  auto model = sampleOverflowModel();
  TestCaseSpec base = sampleOverflowStimulus();
  Simulator sim(*model);
  std::vector<uint64_t> seeds = {1000, 1037, 1074, 1111,
                                 1148, 1185, 1222, 1259};

  SimOptions refOpt = tierOptions(Tier::Native, 300);
  CampaignResult ref = runCampaign(sim.flatModel(), refOpt, base, seeds);
  ASSERT_TRUE(ref.failures.empty());
  EXPECT_EQ(ref.interpSeeds, 0u);
  EXPECT_EQ(ref.tierSwapIndex, -1);

  for (Tier tier : {Tier::Auto, Tier::Interp}) {
    if (tier == Tier::Auto) clearCache();  // cold start
    for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
      SimOptions opt = tierOptions(tier, 300);
      opt.campaign.workers = workers;
      CampaignResult cr = runCampaign(sim.flatModel(), opt, base, seeds);
      std::string label =
          std::string(tierName(tier)) + "/w" + std::to_string(workers);
      ASSERT_TRUE(cr.failures.empty()) << label;
      expectSameCampaign(cr, ref, label);
      EXPECT_EQ(cr.interpSeeds + cr.nativeSeeds, seeds.size()) << label;
      if (tier == Tier::Interp) {
        EXPECT_EQ(cr.interpSeeds, seeds.size()) << label;
        EXPECT_EQ(cr.nativeSeeds, 0u) << label;
        for (const auto& sr : cr.perSeed) {
          EXPECT_EQ(sr.execMode, kExecModeInterp) << label;
        }
      }
      // A swap index is only reported when both tiers actually ran, and
      // then it points at a native seed preceded by an interp one.
      if (cr.tierSwapIndex >= 0) {
        ASSERT_GT(cr.interpSeeds, 0u) << label;
        ASSERT_GT(cr.nativeSeeds, 0u) << label;
        const auto& at = cr.perSeed[static_cast<size_t>(cr.tierSwapIndex)];
        EXPECT_NE(at.execMode, kExecModeInterp) << label;
      }
    }
  }
}

// Fault hook holds the compile past the campaign's end: every seed is
// answered by the interpreter tier, the merge still matches the native
// reference, and nothing is reported as failed.
TEST_F(TieredTest, AllInterpWhenCompileOutlastsCampaign) {
  auto t = gainModel(1.5);
  Simulator sim(t->model());
  TestCaseSpec base;
  std::vector<uint64_t> seeds = {5, 6, 7, 8, 9, 10};

  SimOptions natOpt = tierOptions(Tier::Native, 200);
  CampaignResult ref = runCampaign(sim.flatModel(), natOpt, base, seeds);

  clearCache();  // the reference warmed the cache; cool it again
  EnvGuard fault("ACCMOS_FAULT", "slow-compile:2000");
  SimOptions opt = tierOptions(Tier::Auto, 200);
  opt.campaign.workers = 2;
  CampaignResult cr = runCampaign(sim.flatModel(), opt, base, seeds);

  ASSERT_TRUE(cr.failures.empty());
  EXPECT_EQ(cr.interpSeeds, seeds.size());
  EXPECT_EQ(cr.nativeSeeds, 0u);
  EXPECT_EQ(cr.tierSwapIndex, -1);
  for (const auto& sr : cr.perSeed) {
    EXPECT_EQ(sr.execMode, kExecModeInterp);
  }
  EXPECT_EQ(cr.compileSeconds, 0.0);  // never adopted, never blocked on
  expectSameCampaign(cr, ref, "all-interp vs native");
}

// Warm cache: compileAsync returns an already-ready handle, the engine
// adopts the native tier before seed 0, and the campaign is
// indistinguishable from --tier=native — deterministically all-native.
TEST_F(TieredTest, AllNativeWhenCompileFinishesBeforeFirstSeed) {
  auto t = gainModel(2.5);
  Simulator sim(t->model());
  TestCaseSpec base;
  std::vector<uint64_t> seeds = {21, 22, 23, 24};

  SimOptions natOpt = tierOptions(Tier::Native, 200);
  CampaignResult ref = runCampaign(sim.flatModel(), natOpt, base, seeds);

  SimOptions opt = tierOptions(Tier::Auto, 200);
  opt.campaign.workers = 2;
  CampaignResult cr = runCampaign(sim.flatModel(), opt, base, seeds);

  ASSERT_TRUE(cr.failures.empty());
  EXPECT_EQ(cr.interpSeeds, 0u);
  EXPECT_EQ(cr.nativeSeeds, seeds.size());
  EXPECT_EQ(cr.tierSwapIndex, -1);
  EXPECT_TRUE(cr.compileCacheHit);
  for (const auto& sr : cr.perSeed) {
    EXPECT_NE(sr.execMode, kExecModeInterp);
    EXPECT_FALSE(sr.execMode.empty());
  }
  expectSameCampaign(cr, ref, "warm all-native vs native");
}

// ---------------------------------------------------------------------------
// Graceful degradation and single-run dispatch.

// With the compiler gone entirely, an auto-tier campaign must still finish
// — all seeds interpreted, no contained failures — and the engine must
// remember why the native tier is dead.
TEST_F(TieredTest, DegradesToInterpWhenCompilerIsMissing) {
  EnvGuard cxx("CXX", "/nonexistent/accmos-no-such-compiler");
  auto t = gainModel(7.0);
  Simulator sim(t->model());
  SimOptions opt = tierOptions(Tier::Auto, 100);

  TieredEngine te(sim.flatModel(), opt, TestCaseSpec{});
  EXPECT_EQ(te.policy(), Tier::Auto);
  // Run until the failed compile is observed (the pool fails it quickly;
  // a generous ceiling keeps slow CI green).
  SimulationResult r;
  for (int k = 0; k < 200 && !te.nativeFailed(); ++k) {
    r = te.runContained(static_cast<uint64_t>(k + 1));
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.execMode, kExecModeInterp);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(te.nativeFailed());
  EXPECT_FALSE(te.nativeReady());
  EXPECT_FALSE(te.nativeError().empty());
  // Contained runs keep degrading to the interpreter...
  SimulationResult after = te.runContained(uint64_t{99});
  EXPECT_FALSE(after.failed);
  EXPECT_EQ(after.execMode, kExecModeInterp);
  // ...while the throwing single-run entry point surfaces the failure.
  EXPECT_THROW(te.run(), CompileError);

  // Campaign-level: completes all-interp with zero contained failures.
  std::vector<uint64_t> seeds = {1, 2, 3, 4};
  opt.campaign.workers = 2;
  CampaignResult cr = runCampaign(sim.flatModel(), opt, TestCaseSpec{}, seeds);
  EXPECT_TRUE(cr.failures.empty());
  EXPECT_EQ(cr.interpSeeds + cr.nativeSeeds, seeds.size());
}

// simulate() honours SimOptions::tier for single runs: interp answers on
// the interpreter (and says so), matching the SSE engine bit-exactly.
TEST_F(TieredTest, SingleRunDispatchReportsTheTierThatRan) {
  auto t = gainModel(2.0);
  SimOptions interpOpt = tierOptions(Tier::Interp, 100);
  TestCaseSpec tests;
  tests.seed = 9;
  SimulationResult ti = simulate(t->model(), interpOpt, tests);
  EXPECT_EQ(ti.execMode, kExecModeInterp);
  EXPECT_EQ(ti.compileSeconds, 0.0);

  SimOptions sseOpt = interpOpt;
  sseOpt.engine = Engine::SSE;
  SimulationResult ts = simulate(t->model(), sseOpt, tests);
  test::expectSameOutputs(ti, ts, "interp tier vs SSE");
  EXPECT_EQ(ti.stepsExecuted, ts.stepsExecuted);

  // Warm the cache, then an auto single run adopts native before running.
  SimOptions natOpt = tierOptions(Tier::Native, 100);
  SimulationResult tn = simulate(t->model(), natOpt, tests);
  SimOptions autoOpt = tierOptions(Tier::Auto, 100);
  SimulationResult ta = simulate(t->model(), autoOpt, tests);
  EXPECT_NE(ta.execMode, kExecModeInterp);
  EXPECT_FALSE(ta.execMode.empty());
  test::expectSameOutputs(ta, tn, "auto tier vs native");
}

}  // namespace
}  // namespace accmos
