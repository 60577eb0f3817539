// Sharded campaigns end to end (src/dist): a coordinator in this process
// fans a campaign over real `accmos shard-worker` processes (the CLI
// binary, ACCMOS_CLI_PATH) and the merged CampaignResult must be
// bit-identical — in its observation view — to the single-process
// runCampaignSpecs for any shard count x inner worker count, including
// campaigns whose seeds hit injected crash/hang faults. A
// worker-process death is contained as per-shard RunFailures (never a
// coordinator abort), and a cooperative interrupt raised coordinator-side
// is forwarded to the fleet and flushes a contiguous bit-identical
// prefix. The cold path doubles as the cross-process single-flight check:
// a 4-shard fleet compiling against one empty shared store pays exactly
// one compiler invocation fleet-wide.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "codegen/compiler_driver.h"
#include "dist/shard.h"
#include "parser/model_io.h"
#include "serve/protocol.h"
#include "sim/campaign.h"
#include "sim/interrupt.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

namespace fs = std::filesystem;
using serve::Json;
using test::Tiny;

// Scoped environment override (same idiom as test_serve.cpp).
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

// Private shared store per test (the workers inherit it through
// ShardOptions::cacheDir), ambient overrides cleared so results are
// deterministic regardless of the caller's environment.
class DistTest : public ::testing::Test {
 protected:
  DistTest()
      : cacheDir_(fs::temp_directory_path() /
                  ("accmos_dist_test_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter_++))),
        cacheEnv_("ACCMOS_CACHE_DIR", cacheDir_.string().c_str()),
        faultEnv_("ACCMOS_FAULT", nullptr),
        execEnv_("ACCMOS_EXEC_MODE", nullptr),
        abortEnv_("ACCMOS_SHARD_ABORT", nullptr) {
    clearInterrupt();
  }
  ~DistTest() override {
    clearInterrupt();
    std::error_code ec;
    fs::remove_all(cacheDir_, ec);
  }

  // Workers are the real CLI binary — this test binary has no
  // `shard-worker` mode of its own.
  dist::ShardOptions shardOptions(size_t shards) const {
    dist::ShardOptions so;
    so.shards = shards;
    so.workerPath = ACCMOS_CLI_PATH;
    so.cacheDir = cacheDir_.string();
    return so;
  }

  fs::path cacheDir_;

 private:
  EnvGuard cacheEnv_;
  EnvGuard faultEnv_;
  EnvGuard execEnv_;
  EnvGuard abortEnv_;
  static int counter_;
};

int DistTest::counter_ = 0;

// I8 gain that wraps on overflow under full-range stimulus (the
// test_serve.cpp workload): outputs, coverage and diagnostics all depend
// on the seed, so bit-identity claims are strong, not vacuous.
std::string gainModelText() {
  Tiny t;
  t.inport("In1", 1, DataType::I8);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 5.0);
  g.setDtype(DataType::I8);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  return writeModelToString(t.model());
}

TestCaseSpec fullRangeStimulus() {
  TestCaseSpec base;
  base.defaultPort.min = 0.0;
  base.defaultPort.max = 127.0;
  return base;
}

std::vector<TestCaseSpec> specsFor(size_t n) {
  std::vector<TestCaseSpec> specs(n, fullRangeStimulus());
  for (size_t k = 0; k < n; ++k) specs[k].seed = 100 + 37 * k;
  return specs;
}

SimOptions distSimOptions() {
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 300;
  opt.optFlag = "-O0";  // throwaway models; keep the compiles cheap
  return opt;
}

// The single-process ground truth, parsed from the very same model text
// the coordinator ships to its workers.
CampaignResult referenceRun(const std::string& text, const SimOptions& opt,
                            const std::vector<TestCaseSpec>& specs) {
  LoadedModel lm = loadModelFromString(text);
  Simulator sim(*lm.model);
  return runCampaignSpecs(sim.flatModel(), opt, specs);
}

// The contractually bit-identical view of a campaign, as rendered text.
std::string obs(const CampaignResult& cr) {
  return serve::campaignObservations(cr).write();
}

// ---- shardRanges --------------------------------------------------------

TEST(ShardRanges, ContiguousBalancedAndClamped) {
  // Even split.
  auto r = dist::shardRanges(12, 4);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[0], (std::pair<size_t, size_t>{0, 3}));
  EXPECT_EQ(r[3], (std::pair<size_t, size_t>{9, 12}));

  // Remainder lands somewhere, sizes within one, ranges contiguous.
  r = dist::shardRanges(10, 3);
  ASSERT_EQ(r.size(), 3u);
  size_t covered = 0;
  size_t minSz = 10, maxSz = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i].first, covered) << "shard " << i << " not contiguous";
    EXPECT_LE(r[i].first, r[i].second);
    const size_t sz = r[i].second - r[i].first;
    minSz = std::min(minSz, sz);
    maxSz = std::max(maxSz, sz);
    covered = r[i].second;
  }
  EXPECT_EQ(covered, 10u);
  EXPECT_LE(maxSz - minSz, 1u);

  // More shards than specs: clamp so no shard is empty.
  r = dist::shardRanges(5, 8);
  ASSERT_EQ(r.size(), 5u);
  for (const auto& [b, e] : r) EXPECT_EQ(e - b, 1u);

  // Degenerate inputs.
  r = dist::shardRanges(7, 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (std::pair<size_t, size_t>{0, 7}));
  r = dist::shardRanges(7, 0);  // 0 shards means 1
  ASSERT_EQ(r.size(), 1u);
  r = dist::shardRanges(0, 3);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (std::pair<size_t, size_t>{0, 0}));
}

// ---- Wire codecs --------------------------------------------------------

TEST(ShardCodecs, RequestPartialDoneRoundTripExactly) {
  serve::ShardRequest req;
  req.modelText = gainModelText();
  req.options = distSimOptions();
  req.options.campaign.workers = 3;
  req.specs = specsFor(5);
  req.shardIndex = 2;
  req.shardCount = 7;
  Json rj = serve::toJson(req);
  EXPECT_EQ(rj.at("op", "$").asString("$.op"), "shard");
  serve::ShardRequest req2 = serve::shardRequestFromJson(rj, "$");
  EXPECT_EQ(serve::toJson(req2).write(), rj.write());
  EXPECT_EQ(req2.modelText, req.modelText);
  EXPECT_EQ(req2.specs.size(), 5u);
  EXPECT_EQ(req2.shardIndex, 2u);
  EXPECT_EQ(req2.shardCount, 7u);
  EXPECT_EQ(req2.options.campaign.workers, 3u);

  serve::ShardPartial p;
  p.first = 42;
  Json pj = serve::toJson(p);
  EXPECT_EQ(pj.at("op", "$").asString("$.op"), "partial");
  serve::ShardPartial p2 = serve::shardPartialFromJson(pj, "$");
  EXPECT_EQ(serve::toJson(p2).write(), pj.write());
  EXPECT_EQ(p2.first, 42u);
  EXPECT_TRUE(p2.results.empty());

  serve::ShardDone d;
  d.completed = 9;
  d.interrupted = true;
  d.generateSeconds = 0.25;
  d.compileSeconds = 1.5;
  d.loadSeconds = 0.125;
  d.compileCacheHit = true;
  d.compilerInvocations = 3;
  Json dj = serve::toJson(d);
  EXPECT_EQ(dj.at("op", "$").asString("$.op"), "done");
  serve::ShardDone d2 = serve::shardDoneFromJson(dj, "$");
  EXPECT_EQ(serve::toJson(d2).write(), dj.write());
  EXPECT_EQ(d2.completed, 9u);
  EXPECT_TRUE(d2.interrupted);
  EXPECT_TRUE(d2.compileCacheHit);
  EXPECT_EQ(d2.compilerInvocations, 3u);
}

// ---- The acceptance matrix ----------------------------------------------
// shards {1,2,4} x inner workers {1,4}: every sharded run's observation
// view identical to the single-process reference. The first run goes
// against an empty store with 4 shards racing — the cross-process
// single-flight claim must hold it to exactly ONE compiler invocation
// fleet-wide.
TEST_F(DistTest, ShardedBitIdenticalAcrossShardsAndWorkers) {
  const std::string text = gainModelText();
  const auto specs = specsFor(12);
  const SimOptions opt = distSimOptions();

  // Cold: 4 shards, one empty shared store, exactly one fleet compile.
  {
    SimOptions copt = opt;
    copt.campaign.workers = 1;
    const uint64_t base = CompilerDriver::compilerInvocations();
    dist::ShardStats st;
    CampaignResult cold =
        dist::runShardedCampaign(text, copt, specs, shardOptions(4), &st);
    EXPECT_EQ(st.shards, 4u);
    EXPECT_EQ(st.deadWorkers, 0u);
    EXPECT_EQ(st.fleetCompilerInvocations - base, 1u)
        << "cold 4-shard fleet must compile exactly once";
    CampaignResult ref = referenceRun(text, copt, specs);
    EXPECT_TRUE(ref.compileCacheHit)
        << "reference must be served by the store the fleet just filled";
    EXPECT_EQ(obs(cold), obs(ref)) << "cold shards=4";
  }

  SimOptions ropt = opt;
  ropt.campaign.workers = 1;
  const CampaignResult ref = referenceRun(text, ropt, specs);

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      SimOptions sopt = opt;
      sopt.campaign.workers = workers;
      const std::string at = "shards=" + std::to_string(shards) +
                             " workers=" + std::to_string(workers);
      const uint64_t base = CompilerDriver::compilerInvocations();
      dist::ShardStats st;
      CampaignResult cr = dist::runShardedCampaign(text, sopt, specs,
                                                   shardOptions(shards),
                                                   &st);
      EXPECT_EQ(st.shards, shards) << at;
      EXPECT_EQ(st.deadWorkers, 0u) << at;
      EXPECT_EQ(st.fleetCompilerInvocations - base, 0u)
          << at << " warm fleet must be all cache hits";
      EXPECT_TRUE(cr.compileCacheHit) << at;
      EXPECT_FALSE(cr.interrupted) << at;
      EXPECT_EQ(cr.workersUsed, shards) << at;
      EXPECT_EQ(obs(cr), obs(ref)) << at;
    }
  }
}

// Same matrix with injected faults: one seed crashes, one seed hangs (both
// contained by the per-run deadline / crash ladder inside each worker,
// exactly as in-process). The faulted campaign's observation view —
// failure records included — stays bit-identical to the single-process
// reference under the same injection.
TEST_F(DistTest, ShardedBitIdenticalWithContainedCrashAndHangSeeds) {
  // Seeds are 100 + 37k: 137 is spec 1, 248 is spec 4.
  EnvGuard fault("ACCMOS_FAULT", "crash@25:seed=137;hang@25:seed=248");
  const std::string text = gainModelText();
  const auto specs = specsFor(12);
  SimOptions opt = distSimOptions();
  opt.maxSteps = 200;
  opt.runTimeoutSec = 0.75;  // contains the hung seed
  const std::string label = "faulted";

  SimOptions ropt = opt;
  ropt.campaign.workers = 1;
  const CampaignResult ref = referenceRun(text, ropt, specs);
  ASSERT_EQ(ref.failures.size(), 2u) << label;

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      SimOptions sopt = opt;
      sopt.campaign.workers = workers;
      const std::string at = label + " shards=" + std::to_string(shards) +
                             " workers=" + std::to_string(workers);
      dist::ShardStats st;
      CampaignResult cr = dist::runShardedCampaign(text, sopt, specs,
                                                   shardOptions(shards),
                                                   &st);
      EXPECT_EQ(st.deadWorkers, 0u)
          << at << " injected faults must be contained inside the "
          << "worker, not kill it";
      ASSERT_EQ(cr.failures.size(), 2u) << at;
      EXPECT_EQ(obs(cr), obs(ref)) << at;
    }
  }
}

// ---- Worker-process death -----------------------------------------------
// ACCMOS_SHARD_ABORT=<i> makes shard i's worker _exit() right after
// reading its request: every spec of that shard must surface as a
// contained RunFailure (kind Crash, backend "shard-worker"), the other
// shards' rows stay bit-identical, and the coordinator never aborts.
TEST_F(DistTest, WorkerDeathSurfacesAsPerShardFailuresNotAbort) {
  EnvGuard abortShard("ACCMOS_SHARD_ABORT", "1");
  const std::string text = gainModelText();
  const auto specs = specsFor(8);
  SimOptions opt = distSimOptions();

  // 8 specs over 4 shards: shard 1 owns global specs [2, 4).
  const auto ranges = dist::shardRanges(specs.size(), 4);
  ASSERT_EQ(ranges[1], (std::pair<size_t, size_t>{2, 4}));

  dist::ShardStats st;
  CampaignResult cr =
      dist::runShardedCampaign(text, opt, specs, shardOptions(4), &st);
  EXPECT_EQ(st.shards, 4u);
  EXPECT_EQ(st.deadWorkers, 1u);
  EXPECT_FALSE(cr.interrupted);
  ASSERT_EQ(cr.perSeed.size(), specs.size());

  ASSERT_EQ(cr.failures.size(), 2u);
  for (size_t i = 0; i < cr.failures.size(); ++i) {
    const RunFailure& f = cr.failures[i];
    EXPECT_EQ(f.kind, FailureKind::Crash);
    EXPECT_EQ(f.index, 2 + i);
    EXPECT_EQ(f.seed, specs[2 + i].seed);
    EXPECT_EQ(f.backend, "shard-worker");
    EXPECT_NE(f.message.find("worker process died"), std::string::npos)
        << f.message;
  }

  // The surviving shards' rows are bit-identical to a fault-free run.
  const CampaignResult ref = referenceRun(text, opt, specs);
  for (size_t k = 0; k < specs.size(); ++k) {
    if (k == 2 || k == 3) {
      EXPECT_TRUE(cr.perSeed[k].failed) << "row " << k;
      continue;
    }
    EXPECT_FALSE(cr.perSeed[k].failed) << "row " << k;
    EXPECT_EQ(cr.perSeed[k].seed, ref.perSeed[k].seed) << "row " << k;
    EXPECT_EQ(cr.perSeed[k].steps, ref.perSeed[k].steps) << "row " << k;
    EXPECT_EQ(cr.perSeed[k].coverage.toString(),
              ref.perSeed[k].coverage.toString())
        << "row " << k;
    EXPECT_EQ(cr.perSeed[k].diagnosticKinds, ref.perSeed[k].diagnosticKinds)
        << "row " << k;
  }

  // The merge over the survivors equals a campaign over just the
  // survivors — the dead shard contributed nothing, and nothing else.
  std::vector<TestCaseSpec> survivors;
  for (size_t k = 0; k < specs.size(); ++k) {
    if (k != 2 && k != 3) survivors.push_back(specs[k]);
  }
  const CampaignResult survRef = referenceRun(text, opt, survivors);
  EXPECT_EQ(serve::toJson(cr.mergedBitmaps).write(),
            serve::toJson(survRef.mergedBitmaps).write());
}

// ---- Cooperative interrupt ----------------------------------------------
// The flag is raised coordinator-side (as the CLI's SIGINT/SIGTERM handler
// would); the coordinator forwards the signal to its fleet, every worker
// flushes the contiguous prefix it finished, and the merged result is
// bit-identical to an uninterrupted campaign over exactly that prefix.
TEST_F(DistTest, ForwardedInterruptFlushesContiguousBitIdenticalPrefix) {
  const std::string text = gainModelText();
  const auto specs = specsFor(24);
  SimOptions opt;
  opt.engine = Engine::SSE;  // no compile: interrupt timing is the test
  opt.maxSteps = 500000;
  opt.campaign.workers = 1;

  clearInterrupt();
  std::thread trigger([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    requestInterrupt();
  });
  dist::ShardStats st;
  CampaignResult cr =
      dist::runShardedCampaign(text, opt, specs, shardOptions(2), &st);
  trigger.join();
  clearInterrupt();

  EXPECT_EQ(st.deadWorkers, 0u)
      << "a forwarded SIGTERM must interrupt workers, not kill them";

  if (cr.interrupted) {
    ASSERT_LT(cr.perSeed.size(), specs.size());
    if (cr.perSeed.empty()) return;  // interrupt won before the first spec
    std::vector<TestCaseSpec> prefix(specs.begin(),
                                     specs.begin() + cr.perSeed.size());
    const CampaignResult ref = referenceRun(text, opt, prefix);
    CampaignResult sansFlag = cr;
    sansFlag.interrupted = false;
    EXPECT_EQ(obs(sansFlag), obs(ref))
        << "interrupted prefix of " << cr.perSeed.size() << " specs";
  } else {
    // The fleet outran the interrupt; full identity must hold instead.
    const CampaignResult ref = referenceRun(text, opt, specs);
    EXPECT_EQ(obs(cr), obs(ref));
  }
}

}  // namespace
}  // namespace accmos
