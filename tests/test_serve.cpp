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
//  * Overlap: requests for one resident model run in parallel, a peer
//    that stalls half-frame or never says hello is cut off at the
//    deadline, and a stop cuts idle connections loose.
#include <gtest/gtest.h>

#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "codegen/model_lib.h"
#include "codegen/run_abi.h"
#include "parser/model_io.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/lib_pool.h"
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

// A raw connection to the daemon at `path`, below the client's framing.
int connectRaw(const fs::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ::strncpy(addr.sun_path, path.string().c_str(), sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    fd = -1;
  }
  return fd;
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

// The pool finds an entry by its exact identity, the model text and the
// canonical options, byte for byte: a text one newline longer is another
// model, the worker count is not part of the identity, the step count is.
// Each entry is charged its text, its generated source and the size its
// library has on disk.
TEST_F(ServeTest, PoolFindsEntriesByExactTextAndOptions) {
  std::ifstream in(ACCMOS_MODELS_DIR "/CSEV.xml", std::ios::binary);
  const std::string csev((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(csev.empty());
  const SimOptions opt = serveSimOptions();
  serve::ModelLibPool pool(0);

  serve::PoolLease plain = pool.acquire(csev, opt);
  serve::PoolLease longer = pool.acquire(csev + "\n", opt);
  EXPECT_FALSE(plain.poolHit());
  EXPECT_FALSE(longer.poolHit());
  EXPECT_NE(&*plain, &*longer);
  EXPECT_EQ(pool.stats().entries, 2u);
  EXPECT_EQ(pool.stats().misses, 2u);

  SimOptions oneWorker = opt;
  oneWorker.campaign.workers = 1;
  SimOptions fourWorkers = opt;
  fourWorkers.campaign.workers = 4;
  const serve::PoolLease one = pool.acquire(csev, oneWorker);
  const serve::PoolLease four = pool.acquire(csev, fourWorkers);
  EXPECT_TRUE(one.poolHit());
  EXPECT_TRUE(four.poolHit());
  EXPECT_EQ(&*one, &*plain);
  EXPECT_EQ(&*four, &*plain);
  EXPECT_EQ(pool.stats().entries, 2u);

  SimOptions moreSteps = opt;
  moreSteps.maxSteps = opt.maxSteps + 1;
  serve::PoolLease steps = pool.acquire(csev, moreSteps);
  EXPECT_FALSE(steps.poolHit());
  EXPECT_EQ(pool.stats().entries, 3u);
  EXPECT_EQ(pool.stats().misses, 3u);
  EXPECT_EQ(pool.stats().hits, 2u);

  uint64_t expected = 0;
  for (const auto& [lease, text] :
       {std::pair<serve::PoolLease*, std::string>{&plain, csev},
        {&longer, csev + "\n"},
        {&steps, csev}}) {
    const AccMoSEngine* e = (*lease)->evaluator().engineFor(TestCaseSpec{});
    ASSERT_NE(e, nullptr);
    expected += text.size() + e->generatedSource().size() +
                fs::file_size(e->exePath());
  }
  EXPECT_EQ(pool.stats().residentBytes, expected);
}

// ---- Model registration --------------------------------------------------
// A request that carries its model's text is answered with the text's
// index on its connection ("model": k), and later requests name the text
// by k. RawConnection shows each answer's "model"; ServeClient sends k by
// itself.

// One connection below ServeClient: it sends each request text as given
// and returns the answer.
class RawConnection {
 public:
  explicit RawConnection(const fs::path& sock) : fd_(connectRaw(sock)) {
    EXPECT_GE(fd_, 0);
    EXPECT_TRUE(ask(serve::toJson(serve::Hello{}).write())
                    .at("ok", "$")
                    .asBool("$.ok"));
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  Json ask(const std::string& request) {
    serve::writeFrame(fd_, request);
    std::string text;
    if (!serve::readFrame(fd_, &text)) {
      throw serve::ProtocolError("the daemon hung up");
    }
    return serve::parseJson(text);
  }

 private:
  int fd_;
};

// The index an answer names, or -1 when it names none.
int64_t modelOf(const Json& resp) {
  const Json* m = resp.find("model");
  return m != nullptr ? static_cast<int64_t>(m->asU64("$.model")) : -1;
}

bool okOf(const Json& resp) { return resp.at("ok", "$").asBool("$.ok"); }

SimulationResult runOf(const Json& resp) {
  return serve::simResultFromJson(resp.at("result", "$"), "$.result");
}

CampaignResult campaignOf(const Json& resp) {
  return serve::campaignResultFromJson(resp.at("result", "$"), "$.result");
}

SimOptions sseOptions() {
  SimOptions opt = serveSimOptions();
  opt.engine = Engine::SSE;
  return opt;
}

// One ServeClient interleaves runs and campaigns over three models: the
// first request per model carries its text, every later one its index,
// and every answer equals local execution.
TEST_F(ServeTest, OneClientInterleavesRunsAndCampaignsOverThreeModels) {
  Tiny t[3];
  std::vector<FlatModel> fm;
  std::vector<std::string> text;
  for (int m = 0; m < 3; ++m) {
    fm.push_back(gainModel(t[m], 3.0 + m));
    text.push_back(writeModelToString(t[m].model()));
  }
  const SimOptions opt = serveSimOptions();
  const TestCaseSpec base = fullRangeStimulus();

  DaemonRunner dr(serveOptions());
  serve::ServeClient cl(sockPath_.string());
  for (uint64_t round = 0; round < 3; ++round) {
    for (size_t m = 0; m < 3; ++m) {
      const std::string label =
          "round " + std::to_string(round) + " model " + std::to_string(m);
      TestCaseSpec spec = base;
      spec.seed = 100 * round + m;
      test::expectIdenticalResults(cl.run(text[m], opt, spec),
                                   simulate(t[m].model(), opt, spec), label);
      const std::vector<uint64_t> seeds = {round + 1, m + 10};
      EXPECT_EQ(obs(cl.campaign(text[m], opt, specsFor(base, seeds))),
                obs(runCampaign(fm[m], opt, base, seeds)))
          << label;
    }
  }
  EXPECT_EQ(dr.daemon().poolStats().misses, 3u);
}

// An index the connection was never given is a protocol error, and the
// connection serves on: a text registers as 0, the same text inline again
// is answered 0, and 0 then names it.
TEST_F(ServeTest, UnknownModelIndexIsAProtocolErrorAndTheConnectionServesOn) {
  Tiny t;
  gainModel(t);
  const std::string text = writeModelToString(t.model());
  const SimOptions opt = sseOptions();
  TestCaseSpec spec = fullRangeStimulus();
  spec.seed = 42;
  const SimulationResult local = simulate(t.model(), opt, spec);

  DaemonRunner dr(serveOptions());
  RawConnection c(sockPath_);
  auto expectUnknown = [&](uint64_t index) {
    const Json resp = c.ask(serve::runRequestText(index, opt, spec));
    EXPECT_FALSE(okOf(resp));
    EXPECT_EQ(resp.at("kind", "$").asString("$.kind"), "protocol");
    EXPECT_NE(
        resp.at("error", "$").asString("$.error").find("never registered"),
        std::string::npos);
    EXPECT_EQ(modelOf(resp), -1);
  };
  expectUnknown(0);
  for (int k = 0; k < 2; ++k) {
    const Json registered = c.ask(serve::runRequestText(text, opt, spec));
    ASSERT_TRUE(okOf(registered));
    EXPECT_EQ(modelOf(registered), 0);
    test::expectIdenticalResults(runOf(registered), local, "by text");
  }
  expectUnknown(1);
  const Json named = c.ask(serve::runRequestText(0, opt, spec));
  ASSERT_TRUE(okOf(named));
  EXPECT_EQ(modelOf(named), -1);
  test::expectIdenticalResults(runOf(named), local, "by index");
}

// An error answer registers nothing: a text whose model fails to load is
// answered model-load with no "model", and the next text registers as 0.
TEST_F(ServeTest, FailedModelLoadRegistersNothing) {
  Tiny t;
  gainModel(t);
  const std::string text = writeModelToString(t.model());
  const SimOptions opt = sseOptions();
  const std::vector<TestCaseSpec> specs =
      specsFor(fullRangeStimulus(), {1, 2});

  DaemonRunner dr(serveOptions());
  RawConnection c(sockPath_);
  const std::string unknownActor =
      R"(<model name="Bad"><system name="root">)"
      R"(<actor name="X" type="NoSuchActor"/></system></model>)";
  const Json failed =
      c.ask(serve::campaignRequestText(unknownActor, opt, specs));
  EXPECT_FALSE(okOf(failed));
  EXPECT_EQ(failed.at("kind", "$").asString("$.kind"), "model-load");
  EXPECT_EQ(modelOf(failed), -1);
  EXPECT_FALSE(okOf(c.ask(serve::campaignRequestText(0, opt, specs))));

  const Json registered = c.ask(serve::campaignRequestText(text, opt, specs));
  ASSERT_TRUE(okOf(registered));
  EXPECT_EQ(modelOf(registered), 0);
  const Json named = c.ask(serve::campaignRequestText(0, opt, specs));
  ASSERT_TRUE(okOf(named));
  const std::string local =
      obs(runCampaign(t.flatten(), opt, fullRangeStimulus(), {1, 2}));
  EXPECT_EQ(obs(campaignOf(registered)), local);
  EXPECT_EQ(obs(campaignOf(named)), local);
}

// A connection registers at most kMaxRegisteredModels texts of at most
// kMaxRegisteredBytes in all. The 17th distinct text, and a text that
// would pass 16 MiB, are answered with no "model" (and as locally), and
// the indices handed out before still name their texts.
TEST_F(ServeTest, RegistrationStopsAtItsCaps) {
  static_assert(serve::kMaxRegisteredModels == 16);
  static_assert(serve::kMaxRegisteredBytes == size_t{16} << 20);
  Tiny t;
  gainModel(t);
  const std::string text = writeModelToString(t.model());
  const SimOptions opt = sseOptions();
  TestCaseSpec spec = fullRangeStimulus();
  spec.seed = 9;
  const SimulationResult local = simulate(t.model(), opt, spec);

  DaemonRunner dr(serveOptions());
  {
    // Trailing spaces make distinct texts of one model.
    RawConnection c(sockPath_);
    for (size_t k = 0; k <= serve::kMaxRegisteredModels; ++k) {
      const Json resp = c.ask(
          serve::runRequestText(text + std::string(k, ' '), opt, spec));
      ASSERT_TRUE(okOf(resp)) << k;
      EXPECT_EQ(modelOf(resp),
                k < serve::kMaxRegisteredModels ? static_cast<int64_t>(k) : -1)
          << k;
      test::expectIdenticalResults(runOf(resp), local, "text " +
                                                           std::to_string(k));
    }
    const Json last = c.ask(serve::runRequestText(15, opt, spec));
    ASSERT_TRUE(okOf(last));
    test::expectIdenticalResults(runOf(last), local, "index 15");
  }

  RawConnection c(sockPath_);
  ASSERT_EQ(modelOf(c.ask(serve::runRequestText(text, opt, spec))), 0);
  const std::string big =
      text + std::string(serve::kMaxRegisteredBytes - 2 * text.size() + 1, ' ');
  ASSERT_EQ(text.size() + big.size(), serve::kMaxRegisteredBytes + 1);
  const Json tooBig = c.ask(serve::runRequestText(big, opt, spec));
  ASSERT_TRUE(okOf(tooBig));
  EXPECT_EQ(modelOf(tooBig), -1);
  test::expectIdenticalResults(runOf(tooBig), local, "past 16 MiB");
  EXPECT_EQ(modelOf(c.ask(serve::runRequestText(text + " ", opt, spec))), 1);
}

// Each connection has its own registry: the same text may hold different
// indices on two connections, and an index one connection handed out is
// unknown on the other.
TEST_F(ServeTest, ConnectionsRegisterIndependently) {
  Tiny ta, tb;
  gainModel(ta, 5.0);
  gainModel(tb, 3.0);
  const std::string textA = writeModelToString(ta.model());
  const std::string textB = writeModelToString(tb.model());
  const SimOptions opt = sseOptions();
  TestCaseSpec spec = fullRangeStimulus();
  spec.seed = 77;

  DaemonRunner dr(serveOptions());
  RawConnection one(sockPath_);
  RawConnection two(sockPath_);
  EXPECT_EQ(modelOf(one.ask(serve::runRequestText(textA, opt, spec))), 0);
  EXPECT_EQ(modelOf(one.ask(serve::runRequestText(textB, opt, spec))), 1);
  EXPECT_EQ(modelOf(two.ask(serve::runRequestText(textB, opt, spec))), 0);
  EXPECT_FALSE(okOf(two.ask(serve::runRequestText(1, opt, spec))));

  const Json a = one.ask(serve::runRequestText(0, opt, spec));
  const Json b1 = one.ask(serve::runRequestText(1, opt, spec));
  const Json b2 = two.ask(serve::runRequestText(0, opt, spec));
  const SimulationResult localA = simulate(ta.model(), opt, spec);
  const SimulationResult localB = simulate(tb.model(), opt, spec);
  test::expectIdenticalResults(runOf(a), localA, "A on one");
  test::expectIdenticalResults(runOf(b1), localB, "B on one");
  test::expectIdenticalResults(runOf(b2), localB, "B on two");
}

// An index outlives its pool entry: under a 1-byte pool budget, the entry
// of a registered text is evicted, and a request naming the text's index
// rebuilds it through the compile cache and answers as locally.
TEST_F(ServeTest, EvictedRegisteredModelAnswersAsLocally) {
  Tiny ta, tb;
  const FlatModel fmA = gainModel(ta, 5.0);
  gainModel(tb, 3.0);
  const std::string textA = writeModelToString(ta.model());
  const std::string textB = writeModelToString(tb.model());
  const SimOptions opt = serveSimOptions();
  const std::vector<uint64_t> seeds = {1, 2};
  const std::vector<TestCaseSpec> specs = specsFor(fullRangeStimulus(), seeds);
  const std::string localA =
      obs(runCampaign(fmA, opt, fullRangeStimulus(), seeds));

  serve::ServeOptions so = serveOptions();
  so.poolBudgetBytes = 1;
  DaemonRunner dr(so);
  RawConnection c(sockPath_);
  EXPECT_EQ(modelOf(c.ask(serve::campaignRequestText(textA, opt, specs))), 0);
  EXPECT_EQ(modelOf(c.ask(serve::campaignRequestText(textB, opt, specs))), 1);

  const uint64_t invocations = CompilerDriver::compilerInvocations();
  const Json again = c.ask(serve::campaignRequestText(0, opt, specs));
  ASSERT_TRUE(okOf(again));
  EXPECT_FALSE(serve::serviceMetaFromJson(again.at("service", "$"),
                                          "$.service")
                   .poolHit)
      << "model A should have been evicted by B";
  EXPECT_EQ(obs(campaignOf(again)), localA);
  EXPECT_EQ(CompilerDriver::compilerInvocations(), invocations)
      << "the compile cache should absorb the rebuild";
}

// A range with one infinite bound crosses the wire and runs in the daemon
// as it runs locally.
TEST_F(ServeTest, OneSidedRangeDiagnosticRunsAsLocally) {
  Tiny t;
  gainModel(t);
  const std::string text = writeModelToString(t.model());
  SimOptions opt = serveSimOptions();
  opt.customDiagnostics.push_back(rangeDiagnostic(
      "T_G", "r", -std::numeric_limits<double>::infinity(), 0.5));
  TestCaseSpec spec = fullRangeStimulus();
  spec.seed = 42;

  const SimulationResult local = simulate(t.model(), opt, spec);
  ASSERT_FALSE(local.diagnostics.empty());

  DaemonRunner dr(serveOptions());
  serve::ServeClient cl(sockPath_.string());
  const SimulationResult remote = cl.run(text, opt, spec);
  EXPECT_FALSE(remote.failed) << remote.failure.message;
  test::expectSameOutputs(local, remote, "one-sided range");
  ASSERT_EQ(local.diagnostics.size(), remote.diagnostics.size());
  for (size_t k = 0; k < local.diagnostics.size(); ++k) {
    EXPECT_EQ(serve::toJson(local.diagnostics[k]).write(),
              serve::toJson(remote.diagnostics[k]).write());
  }
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

// Starts a campaign on its own connection and returns once the daemon has
// leased the model's pool entry for it: the campaign holds a request slot
// and is about to run.
std::thread startCampaign(DaemonRunner& dr, const fs::path& sock,
                          const std::string& text, const SimOptions& opt,
                          const std::vector<TestCaseSpec>& specs,
                          CampaignResult* out, std::string* err) {
  const uint64_t hits = dr.daemon().poolStats().hits;
  std::thread th([&, sock, out, err] {
    try {
      serve::ServeClient cl(sock.string());
      *out = cl.campaign(text, opt, specs);
    } catch (const std::exception& e) {
      *err = e.what();
    }
  });
  const auto giveUp =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (dr.daemon().poolStats().hits == hits &&
         std::chrono::steady_clock::now() < giveUp) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return th;
}

// Requests for one resident model run in parallel. With two request slots,
// a run sent while a campaign of about a second on the same model executes
// answers before that campaign ends; a run on new ranges beside a warm
// campaign compiles nothing, and the campaign is charged nothing; every
// answer equals local execution.
TEST_F(ServeTest, SameModelRequestsRunInParallel) {
  Tiny t;
  const FlatModel fm = gainModel(t);
  const std::string text = writeModelToString(t.model());
  SimOptions opt = serveSimOptions();
  opt.maxSteps = 20000;
  const TestCaseSpec base = fullRangeStimulus();

  DaemonRunner dr(serveOptions(2));
  serve::ServeClient cl(sockPath_.string());
  cl.run(text, opt, base);  // the model and its library become resident

  // Enough seeds for about a second at one worker, timed on a warm
  // 32-seed campaign.
  SimOptions oneWorker = opt;
  oneWorker.campaign.workers = 1;
  std::vector<uint64_t> seeds(32);
  for (size_t k = 0; k < seeds.size(); ++k) seeds[k] = k + 1;
  const auto t0 = std::chrono::steady_clock::now();
  cl.campaign(text, oneWorker, specsFor(base, seeds));
  const double perSeed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count() /
                         static_cast<double>(seeds.size());
  seeds.resize(
      std::clamp<size_t>(static_cast<size_t>(1.0 / perSeed), 32, 4000));
  for (size_t k = 0; k < seeds.size(); ++k) seeds[k] = k + 1;
  const std::vector<TestCaseSpec> specs = specsFor(base, seeds);

  // A run on the resident model, while the campaign runs.
  CampaignResult campaign;
  std::string err;
  std::thread th =
      startCampaign(dr, sockPath_, text, oneWorker, specs, &campaign, &err);
  const uint64_t executed = dr.daemon().requestsExecuted();
  TestCaseSpec spec = base;
  spec.seed = 4242;
  const SimulationResult run = cl.run(text, opt, spec);
  EXPECT_EQ(dr.daemon().requestsExecuted(), executed + 1)
      << "the run answered only after the campaign on its model finished";
  th.join();
  ASSERT_EQ(err, "");
  const Json stats = cl.stats();
  EXPECT_EQ(stats.at("scheduler", "$")
                .at("peakInFlight", "$.scheduler")
                .asU64("$.scheduler.peakInFlight"),
            2u);

  const SimulationResult localRun = simulate(t.model(), opt, spec);
  test::expectIdenticalResults(run, localRun, "run beside a campaign");
  SimOptions local = opt;
  local.campaign.workers = 4;
  const std::string localObs = obs(runCampaign(fm, local, base, seeds));
  EXPECT_EQ(obs(campaign), localObs);

  // A run on new ranges while a warm campaign runs: the stimulus is run
  // data, so the resident library serves it and nothing compiles.
  const uint64_t invocations = CompilerDriver::compilerInvocations();
  CampaignResult warm;
  th = startCampaign(dr, sockPath_, text, oneWorker, specs, &warm, &err);
  TestCaseSpec wide = base;
  wide.defaultPort = PortStimulus{-100.0, 100.0, {}};
  const SimulationResult fresh = cl.run(text, opt, wide);
  th.join();
  ASSERT_EQ(err, "");
  EXPECT_EQ(CompilerDriver::compilerInvocations(), invocations);
  EXPECT_EQ(warm.generateSeconds, 0.0);
  EXPECT_EQ(warm.compileSeconds, 0.0);
  EXPECT_EQ(warm.loadSeconds, 0.0);
  EXPECT_FALSE(warm.compileCacheHit);
  EXPECT_EQ(obs(warm), localObs);
  test::expectIdenticalResults(fresh, simulate(t.model(), opt, wide),
                               "run on new ranges");
}

// A peer that sends a length prefix and stalls, and a peer that connects
// and never says hello, are cut off once the deadline passes. Meanwhile the
// daemon answers other connections, and a connection idle between frames
// after its hello stays open past the deadline.
TEST_F(ServeTest, StalledHalfFrameIsClosedAtItsDeadline) {
  DaemonRunner dr(serveOptions());
  serve::ServeClient idle(sockPath_.string());

  const auto t0 = std::chrono::steady_clock::now();
  const int stalled = connectRaw(sockPath_);
  const int silent = connectRaw(sockPath_);
  ASSERT_GE(stalled, 0);
  ASSERT_GE(silent, 0);
  const unsigned char prefix[4] = {0, 0, 1, 0};  // claims 256 bytes
  ASSERT_EQ(::send(stalled, prefix, sizeof prefix, MSG_NOSIGNAL), 4);

  serve::ServeClient cl(sockPath_.string());
  EXPECT_NO_THROW(cl.stats());

  const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
      serve::kFrameDeadline + std::chrono::seconds(10));
  for (const int fd : {stalled, silent}) {
    const char* what = fd == stalled ? "stalled" : "silent";
    pollfd pfd{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, static_cast<int>(wait.count())), 1)
        << "the " << what << " connection is still open";
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0)
        << "expected the daemon's hang-up on the " << what << " connection";
    ::close(fd);
  }
  EXPECT_GE(std::chrono::steady_clock::now() - t0, serve::kFrameDeadline);

  EXPECT_NO_THROW(idle.stats());
  EXPECT_NO_THROW(cl.stats());
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

  int fd = connectRaw(sockPath_);
  ASSERT_GE(fd, 0);

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

// A stop cuts idle connections loose: run() returns at once while another
// client holds a connection open and says nothing more. Repeated, because
// the stop races the accept loop's drain: a connection left uncut when the
// drain takes the list keeps run() waiting on its read.
TEST_F(ServeTest, ShutdownCutsIdleConnectionsLoose) {
  for (int round = 0; round < 200; ++round) {
    serve::Daemon daemon(serveOptions());
    std::atomic<bool> returned{false};
    std::thread runner([&] {
      daemon.run();
      returned = true;
    });
    auto idle = std::make_unique<serve::ServeClient>(sockPath_.string());
    if (round % 2 == 0) {
      serve::ServeClient(sockPath_.string()).shutdown();
    } else {
      daemon.shutdown();
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (!returned &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool stoppedInTime = returned;
    idle.reset();  // a hung run() returns once the idle client hangs up
    runner.join();
    ASSERT_TRUE(stoppedInTime)
        << "run() waited on an idle connection in round " << round;
  }
}

}  // namespace
}  // namespace accmos
