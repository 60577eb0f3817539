// The resident simulation service end to end (docs/SERVICE.md): an
// in-process accmosd on a unix socket serving real ServeClient traffic.
//
//  * Bit-identity: campaign results fetched through the daemon — across
//    client counts {1,2,4} and per-request worker counts {1,4} — render
//    the same observation view as a local runCampaign().
//  * Warm pool: a repeat request is a pool hit that invokes neither the
//    compiler (CompilerDriver::compilerInvocations) nor dlopen
//    (ModelLib::loadCount) and reports zero one-off cost deltas.
//  * LRU eviction: under a tiny byte budget entries evict and reload
//    transparently — correct results, compile cache absorbs the rebuild,
//    only the dlopen is repaid.
//  * Containment: a crash-quarantined seed degrades per the PR 7 ladder
//    without killing the daemon or a concurrent clean client.
#include <gtest/gtest.h>

#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "codegen/compiler_driver.h"
#include "codegen/model_lib.h"
#include "codegen/run_abi.h"
#include "parser/model_io.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/version.h"
#include "sim/campaign.h"
#include "sim/failure.h"
#include "test_util.h"

namespace accmos {
namespace {

namespace fs = std::filesystem;
using serve::Json;
using test::DaemonRunner;
using test::EnvGuard;
using test::Tiny;

// Private compile cache + socket path per test, ambient overrides cleared
// so results are deterministic regardless of the caller's environment.
class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : cacheDir_(fs::temp_directory_path() /
                  ("accmos_serve_test_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter_))),
        sockPath_(fs::temp_directory_path() /
                  ("accmosd_test_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter_++) + ".sock")),
        cacheEnv_("ACCMOS_CACHE_DIR", cacheDir_.string().c_str()),
        faultEnv_("ACCMOS_FAULT", nullptr) {}
  ~ServeTest() override {
    std::error_code ec;
    fs::remove_all(cacheDir_, ec);
    fs::remove(sockPath_, ec);
  }

  serve::ServeOptions serveOptions(size_t requestWorkers = 4) const {
    serve::ServeOptions so;
    so.socketPath = sockPath_.string();
    so.requestWorkers = requestWorkers;
    return so;
  }

  fs::path cacheDir_;
  fs::path sockPath_;

 private:
  EnvGuard cacheEnv_;
  EnvGuard faultEnv_;
  static int counter_;
};

int ServeTest::counter_ = 0;

// I8 gain that wraps on overflow under full-range stimulus: outputs,
// coverage and diagnostics all depend on the seed, so bit-identity claims
// are strong, not vacuous. `gain` varies to get distinct pool entries.
FlatModel gainModel(Tiny& t, double gain = 5.0) {
  t.inport("In1", 1, DataType::I8);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", gain);
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

SimOptions serveSimOptions() {
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 300;
  opt.optFlag = "-O0";  // service tests compile throwaway models
  return opt;
}

std::vector<TestCaseSpec> specsFor(const TestCaseSpec& base,
                                   const std::vector<uint64_t>& seeds) {
  std::vector<TestCaseSpec> specs(seeds.size(), base);
  for (size_t k = 0; k < seeds.size(); ++k) specs[k].seed = seeds[k];
  return specs;
}

// The contractually bit-identical view of a campaign, as rendered text.
std::string obs(const CampaignResult& cr) {
  return serve::campaignObservations(cr).write();
}

void expectSameRow(const CampaignSeedResult& a, const CampaignSeedResult& b,
                   const std::string& label) {
  EXPECT_EQ(a.seed, b.seed) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.coverage.toString(), b.coverage.toString()) << label;
  EXPECT_EQ(a.cumulative.toString(), b.cumulative.toString()) << label;
  EXPECT_EQ(a.diagnosticKinds, b.diagnosticKinds) << label;
}

// The acceptance matrix: clients {1,2,4} x per-request workers {1,4},
// every client's campaign observation-identical to local execution.
TEST_F(ServeTest, ClientCampaignsBitIdenticalToLocalAcrossClientsAndWorkers) {
  Tiny t;
  FlatModel fm = gainModel(t);
  const std::string text = writeModelToString(t.model());
  const TestCaseSpec base = fullRangeStimulus();
  const std::vector<uint64_t> seeds = {1, 2, 3, 4, 5, 6};
  const SimOptions opt = serveSimOptions();
  const std::vector<TestCaseSpec> specs = specsFor(base, seeds);

  const CampaignResult local = runCampaign(fm, opt, base, seeds);
  ASSERT_TRUE(local.failures.empty());
  const std::string localObs = obs(local);

  DaemonRunner dr(serveOptions());
  for (size_t clients : {1u, 2u, 4u}) {
    for (size_t workers : {1u, 4u}) {
      std::vector<std::string> got(clients), err(clients);
      std::vector<std::thread> threads;
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          try {
            serve::ServeClient cl(sockPath_.string());
            SimOptions o = opt;
            o.campaign.workers = workers;
            got[c] = obs(cl.campaign(text, o, specs));
          } catch (const std::exception& e) {
            err[c] = e.what();
          }
        });
      }
      for (auto& th : threads) th.join();
      for (size_t c = 0; c < clients; ++c) {
        const std::string label = "clients=" + std::to_string(clients) +
                                  " workers=" + std::to_string(workers) +
                                  " client#" + std::to_string(c);
        EXPECT_EQ(err[c], "") << label;
        EXPECT_EQ(got[c], localObs) << label;
      }
    }
  }
}

// A single run through the daemon is bit-identical to local simulation.
TEST_F(ServeTest, ClientRunMatchesLocalSimulation) {
  Tiny t;
  gainModel(t);
  const std::string text = writeModelToString(t.model());
  SimOptions opt = serveSimOptions();
  TestCaseSpec spec = fullRangeStimulus();
  spec.seed = 42;

  const SimulationResult local = simulate(t.model(), opt, spec);

  DaemonRunner dr(serveOptions());
  serve::ServeClient cl(sockPath_.string());
  EXPECT_EQ(cl.daemonAbi(), uint64_t{ACCMOS_ABI_VERSION});
  EXPECT_EQ(cl.daemonVersion(), serve::kAccmosVersion);
  const SimulationResult remote = cl.run(text, opt, spec);

  test::expectSameOutputs(local, remote, "daemon run");
  EXPECT_EQ(local.stepsExecuted, remote.stepsExecuted);
  EXPECT_EQ(local.coverage.toString(), remote.coverage.toString());
  EXPECT_EQ(serve::toJson(local.bitmaps).write(),
            serve::toJson(remote.bitmaps).write());
  ASSERT_EQ(local.diagnostics.size(), remote.diagnostics.size());
  for (size_t k = 0; k < local.diagnostics.size(); ++k) {
    EXPECT_EQ(serve::toJson(local.diagnostics[k]).write(),
              serve::toJson(remote.diagnostics[k]).write());
  }
}

// A model whose step-private signals would take about 10 MiB of stack as
// locals of Model_Exe: a kMaxDimParam-wide f64 Inport through a chain of
// 40 Gains into an Outport. The emitter's cap on local bytes keeps them
// members, so campaign workers and daemon request threads, which run on
// 8 MiB stacks, run it like any other model.
TEST_F(ServeTest, WideSignalsRunOnWorkerAndDaemonThreadStacks) {
  Tiny t("Wide");
  t.inport("In1", 1).setWidth(kMaxDimParam);
  std::string prev = "In1";
  for (int k = 1; k <= 40; ++k) {
    const std::string g = std::string("G") + std::to_string(k);
    Actor& gain = t.actor(g, "Gain");
    gain.params().setDouble("gain", k % 2 == 0 ? 0.5 : 1.5);
    gain.setWidth(kMaxDimParam);
    t.wire(prev, g);
    prev = g;
  }
  t.outport("Out1", 1);
  t.wire(prev, "Out1");
  const FlatModel fm = t.flatten();
  SimOptions opt = serveSimOptions();
  opt.maxSteps = 3;
  SimOptions sseOpt = opt;
  sseOpt.engine = Engine::SSE;

  const std::vector<uint64_t> seeds = {1, 2, 3, 4};
  const CampaignResult sse = runCampaign(fm, sseOpt, TestCaseSpec{}, seeds);
  opt.campaign.workers = 4;
  const CampaignResult acc = runCampaign(fm, opt, TestCaseSpec{}, seeds);
  EXPECT_TRUE(acc.failures.empty());
  EXPECT_EQ(obs(acc), obs(sse));

  DaemonRunner dr(serveOptions());
  serve::ServeClient cl(sockPath_.string());
  TestCaseSpec spec;
  spec.seed = 7;
  const SimulationResult remote =
      cl.run(writeModelToString(t.model()), opt, spec);
  EXPECT_FALSE(remote.failed) << remote.failure.message;
  EXPECT_EQ(remote.stepsExecuted, 3u);
  test::expectSameOutputs(simulate(t.model(), sseOpt, spec), remote,
                          "daemon run vs SSE");
}

// The warm-hit guarantee: the second identical request touches neither the
// compiler nor dlopen, reports zero one-off cost deltas, and is
// observation-identical to the cold one.
TEST_F(ServeTest, WarmPoolRequestSkipsCompilerAndDlopen) {
  Tiny t;
  gainModel(t);
  const std::string text = writeModelToString(t.model());
  const SimOptions opt = serveSimOptions();
  const std::vector<TestCaseSpec> specs =
      specsFor(fullRangeStimulus(), {1, 2, 3});

  DaemonRunner dr(serveOptions());
  serve::ServeClient cl(sockPath_.string());

  serve::ServiceMeta meta1;
  const CampaignResult cold = cl.campaign(text, opt, specs, &meta1);
  EXPECT_FALSE(meta1.poolHit);
  EXPECT_EQ(meta1.pool.misses, 1u);
  EXPECT_EQ(meta1.pool.entries, 1u);

  const uint64_t invocations = CompilerDriver::compilerInvocations();
  const long loads = ModelLib::loadCount();

  serve::ServiceMeta meta2;
  const CampaignResult warm = cl.campaign(text, opt, specs, &meta2);
  EXPECT_TRUE(meta2.poolHit);
  EXPECT_EQ(meta2.pool.hits, 1u);
  EXPECT_EQ(CompilerDriver::compilerInvocations(), invocations)
      << "a warm pool hit must not invoke the compiler";
  EXPECT_EQ(ModelLib::loadCount(), loads)
      << "a warm pool hit must not dlopen anything fresh";
  EXPECT_EQ(warm.generateSeconds, 0.0);
  EXPECT_EQ(warm.compileSeconds, 0.0);
  EXPECT_EQ(warm.loadSeconds, 0.0);
  EXPECT_EQ(obs(warm), obs(cold));
}

// LRU eviction under a deliberately impossible byte budget: every new
// model evicts the previous one; an evicted model transparently reloads
// with correct results, the compile cache absorbs the rebuild (no fresh
// compiler invocation), and only the dlopen is repaid.
TEST_F(ServeTest, LruEvictionUnderByteBudgetReloadsTransparently) {
  Tiny ta, tb;
  gainModel(ta, 5.0);
  gainModel(tb, 3.0);
  const std::string textA = writeModelToString(ta.model());
  const std::string textB = writeModelToString(tb.model());
  const SimOptions opt = serveSimOptions();
  const std::vector<TestCaseSpec> specs =
      specsFor(fullRangeStimulus(), {1, 2});

  serve::ServeOptions so = serveOptions();
  so.poolBudgetBytes = 1;  // any entry alone exceeds the budget
  DaemonRunner dr(so);
  serve::ServeClient cl(sockPath_.string());

  const std::string obsA = obs(cl.campaign(textA, opt, specs));
  cl.campaign(textB, opt, specs);

  const uint64_t invocations = CompilerDriver::compilerInvocations();
  const long loads = ModelLib::loadCount();

  serve::ServiceMeta meta;
  const CampaignResult again = cl.campaign(textA, opt, specs, &meta);
  EXPECT_FALSE(meta.poolHit) << "model A should have been evicted by B";
  EXPECT_EQ(meta.pool.entries, 1u);
  EXPECT_EQ(meta.pool.hits, 0u);
  EXPECT_EQ(meta.pool.misses, 3u);
  EXPECT_GE(meta.pool.evictions, 2u);
  EXPECT_EQ(obs(again), obsA) << "reloaded model must answer identically";
  EXPECT_EQ(CompilerDriver::compilerInvocations(), invocations)
      << "the content-addressed compile cache should absorb the reload";
  EXPECT_GT(ModelLib::loadCount(), loads)
      << "the reload repays exactly the dlopen";
}

// PR 7 containment through the daemon: a crash-injected seed becomes a
// structured RunFailure, survivors stay bit-identical to a fault-free
// campaign over only the survivors, a concurrent clean client is
// untouched, and the daemon keeps serving afterwards.
TEST_F(ServeTest, CrashQuarantinedSeedDoesNotKillDaemonOrOtherClients) {
  EnvGuard fault("ACCMOS_FAULT", "crash@10:seed=3");

  Tiny tf, tc;
  FlatModel fm = gainModel(tf, 5.0);
  gainModel(tc, 3.0);
  const std::string faultyText = writeModelToString(tf.model());
  const std::string cleanText = writeModelToString(tc.model());
  const SimOptions opt = serveSimOptions();
  const TestCaseSpec base = fullRangeStimulus();

  DaemonRunner dr(serveOptions(2));

  CampaignResult faulty, clean;
  std::string errFaulty, errClean;
  std::thread t1([&] {
    try {
      serve::ServeClient cl(sockPath_.string());
      faulty = cl.campaign(faultyText, opt, specsFor(base, {1, 2, 3, 4}));
    } catch (const std::exception& e) {
      errFaulty = e.what();
    }
  });
  std::thread t2([&] {
    try {
      serve::ServeClient cl(sockPath_.string());
      clean = cl.campaign(cleanText, opt, specsFor(base, {11, 12}));
    } catch (const std::exception& e) {
      errClean = e.what();
    }
  });
  t1.join();
  t2.join();
  ASSERT_EQ(errFaulty, "");
  ASSERT_EQ(errClean, "");

  ASSERT_EQ(faulty.failures.size(), 1u);
  EXPECT_EQ(faulty.failures[0].kind, FailureKind::Crash);
  EXPECT_EQ(faulty.failures[0].seed, 3u);
  ASSERT_EQ(faulty.perSeed.size(), 4u);
  EXPECT_TRUE(faulty.perSeed[2].failed);
  EXPECT_TRUE(clean.failures.empty());

  // Survivors bit-identical to a fault-free campaign over the survivors
  // (the injection is seed-scoped, so the local run never trips it).
  const CampaignResult survivors = runCampaign(fm, opt, base, {1, 2, 4});
  ASSERT_TRUE(survivors.failures.empty());
  expectSameRow(faulty.perSeed[0], survivors.perSeed[0], "seed 1");
  expectSameRow(faulty.perSeed[1], survivors.perSeed[1], "seed 2");
  expectSameRow(faulty.perSeed[3], survivors.perSeed[2], "seed 4");
  EXPECT_EQ(faulty.cumulative.toString(), survivors.cumulative.toString());
  EXPECT_EQ(serve::toJson(faulty.mergedBitmaps).write(),
            serve::toJson(survivors.mergedBitmaps).write());

  // The daemon survived and still answers.
  serve::ServeClient cl(sockPath_.string());
  Json stats = cl.stats();
  EXPECT_EQ(stats.at("scheduler", "$").at("executed", "$.scheduler")
                .asU64("$.scheduler.executed"),
            2u);
}

// Concurrent requests never exceed the scheduler's worker count.
TEST_F(ServeTest, SchedulerBoundsConcurrentRequests) {
  Tiny t;
  gainModel(t);
  const std::string text = writeModelToString(t.model());
  const SimOptions opt = serveSimOptions();
  const std::vector<TestCaseSpec> specs =
      specsFor(fullRangeStimulus(), {1, 2});

  DaemonRunner dr(serveOptions(1));
  std::vector<std::thread> threads;
  std::vector<std::string> err(3);
  for (size_t c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve::ServeClient cl(sockPath_.string());
        cl.campaign(text, opt, specs);
      } catch (const std::exception& e) {
        err[c] = e.what();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& e : err) EXPECT_EQ(e, "");

  serve::ServeClient cl(sockPath_.string());
  Json stats = cl.stats();
  const Json& sched = stats.at("scheduler", "$");
  EXPECT_EQ(sched.at("workers", "$.scheduler").asU64("$.scheduler.workers"),
            1u);
  EXPECT_EQ(sched.at("executed", "$.scheduler").asU64("$.scheduler.executed"),
            3u);
  EXPECT_LE(sched.at("peakInFlight", "$.scheduler")
                .asU64("$.scheduler.peakInFlight"),
            1u);
}

// This process's address-space size, in KiB (VmSize in /proc/self/status).
int64_t vmSizeKiB() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  ADD_FAILURE() << "no VmSize in /proc/self/status";
  return 0;
}

// A connection's thread ends with its connection: churning connections
// leaves the daemon's address space flat, where an unreleased thread keeps
// its stack mapped (8 MiB each by default).
TEST_F(ServeTest, ClosedConnectionsReleaseTheirThreads) {
  DaemonRunner dr(serveOptions());
  auto connectAndClose = [&] {
    serve::ServeClient cl(sockPath_.string());
    cl.stats();
  };
  for (int k = 0; k < 8; ++k) connectAndClose();
  const int64_t before = vmSizeKiB();
  for (int k = 0; k < 128; ++k) connectAndClose();
  const int64_t grown = vmSizeKiB() - before;
  EXPECT_LT(grown, int64_t{64} << 10) << grown << " KiB over 128 connections";
}

// A client that speaks a different protocol version is refused at the
// handshake, before any frame could be mis-parsed.
TEST_F(ServeTest, HelloHandshakeRejectsWrongProtocolVersion) {
  DaemonRunner dr(serveOptions());

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ::strncpy(addr.sun_path, sockPath_.string().c_str(),
            sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  Json hello = Json::object();
  hello.set("op", Json::str("hello"));
  hello.set("protocol", Json::u64(serve::kProtocolVersion + 1));
  serve::writeFrame(fd, hello.write());

  std::string text;
  ASSERT_TRUE(serve::readFrame(fd, &text));
  Json resp = serve::parseJson(text);
  EXPECT_FALSE(resp.at("ok", "$").asBool("$.ok"));
  EXPECT_EQ(resp.at("kind", "$").asString("$.kind"), "protocol");
  EXPECT_NE(resp.at("error", "$").asString("$.error").find("version"),
            std::string::npos);
  ::close(fd);
}

// `client shutdown` stops the daemon gracefully: run() returns, the
// listener goes away, and new connections are refused.
TEST_F(ServeTest, ClientShutdownStopsDaemonGracefully) {
  DaemonRunner dr(serveOptions());
  {
    serve::ServeClient cl(sockPath_.string());
    cl.shutdown();
  }
  dr.join();  // run() must return without our intervention
  EXPECT_THROW(serve::ServeClient{sockPath_.string()}, serve::ProtocolError);
}

}  // namespace
}  // namespace accmos
