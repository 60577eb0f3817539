// The accmosd wire codec contract (src/serve/protocol.h): every field of
// every struct that crosses the socket survives an encode -> text ->
// parse -> decode round trip EXACTLY — NaN payloads, -0.0, 64-bit
// counters, bitmaps, failure records — and malformed input fails with a
// line/byte- or path-anchored JsonError instead of garbage downstream.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <limits>
#include <thread>

#include "bench_models/suite.h"
#include "parser/model_io.h"
#include "serve/protocol.h"
#include "serve/version.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

using serve::Json;
using serve::JsonError;
using serve::parseJson;
using serve::ProtocolError;

void expectValueEq(const Value& a, const Value& b, const std::string& label) {
  ASSERT_EQ(a.type(), b.type()) << label;
  ASSERT_EQ(a.width(), b.width()) << label;
  for (int k = 0; k < a.width(); ++k) {
    EXPECT_EQ(a.i(k), b.i(k)) << label << " element " << k;
  }
  EXPECT_TRUE(a == b) << label;
}

void expectRecorderEq(const CoverageRecorder& a, const CoverageRecorder& b,
                      const std::string& label) {
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(a.bits(m), b.bits(m)) << label << " " << covMetricName(m);
  }
}

void expectReportEq(const CoverageReport& a, const CoverageReport& b,
                    const std::string& label) {
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(a.of(m).covered, b.of(m).covered) << label;
    EXPECT_EQ(a.of(m).total, b.of(m).total) << label;
  }
}

void expectDiagEq(const DiagRecord& a, const DiagRecord& b,
                  const std::string& label) {
  EXPECT_EQ(a.actorId, b.actorId) << label;
  EXPECT_EQ(a.actorPath, b.actorPath) << label;
  EXPECT_EQ(a.kind, b.kind) << label;
  EXPECT_EQ(a.message, b.message) << label;
  EXPECT_EQ(a.firstStep, b.firstStep) << label;
  EXPECT_EQ(a.count, b.count) << label;
}

void expectFailureEq(const RunFailure& a, const RunFailure& b,
                     const std::string& label) {
  EXPECT_EQ(a.kind, b.kind) << label;
  EXPECT_EQ(a.seed, b.seed) << label;
  EXPECT_EQ(a.index, b.index) << label;
  EXPECT_EQ(a.signal, b.signal) << label;
  EXPECT_EQ(a.retries, b.retries) << label;
  EXPECT_EQ(a.backend, b.backend) << label;
  EXPECT_EQ(a.message, b.message) << label;
}

void expectOptStatsEq(const OptStats& a, const OptStats& b) {
  EXPECT_EQ(a.actorsBefore, b.actorsBefore);
  EXPECT_EQ(a.actorsAfter, b.actorsAfter);
  EXPECT_EQ(a.signalsBefore, b.signalsBefore);
  EXPECT_EQ(a.signalsAfter, b.signalsAfter);
  EXPECT_EQ(a.actorsFolded, b.actorsFolded);
  EXPECT_EQ(a.identitiesBypassed, b.identitiesBypassed);
  EXPECT_EQ(a.actorsEliminated, b.actorsEliminated);
  EXPECT_EQ(a.signalsEliminated, b.signalsEliminated);
  EXPECT_EQ(a.stateUpdatesHoisted, b.stateUpdatesHoisted);
}

void expectSimResultEq(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.stepsExecuted, b.stepsExecuted);
  EXPECT_EQ(a.stoppedEarly, b.stoppedEarly);
  EXPECT_EQ(a.timedOut, b.timedOut);
  EXPECT_EQ(a.failed, b.failed);
  expectFailureEq(a.failure, b.failure, "failure");
  EXPECT_EQ(a.execSeconds, b.execSeconds);
  EXPECT_EQ(a.generateSeconds, b.generateSeconds);
  EXPECT_EQ(a.compileSeconds, b.compileSeconds);
  EXPECT_EQ(a.loadSeconds, b.loadSeconds);
  EXPECT_EQ(a.execMode, b.execMode);
  EXPECT_EQ(a.hasCoverage, b.hasCoverage);
  expectReportEq(a.coverage, b.coverage, "coverage");
  expectRecorderEq(a.bitmaps, b.bitmaps, "bitmaps");
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (size_t k = 0; k < a.diagnostics.size(); ++k) {
    expectDiagEq(a.diagnostics[k], b.diagnostics[k],
                 "diag " + std::to_string(k));
  }
  ASSERT_EQ(a.collected.size(), b.collected.size());
  for (size_t k = 0; k < a.collected.size(); ++k) {
    EXPECT_EQ(a.collected[k].path, b.collected[k].path);
    EXPECT_EQ(a.collected[k].count, b.collected[k].count);
    expectValueEq(a.collected[k].last, b.collected[k].last,
                  "collected " + std::to_string(k));
  }
  ASSERT_EQ(a.finalOutputs.size(), b.finalOutputs.size());
  for (size_t k = 0; k < a.finalOutputs.size(); ++k) {
    expectValueEq(a.finalOutputs[k], b.finalOutputs[k],
                  "output " + std::to_string(k));
  }
  expectOptStatsEq(a.optStats, b.optStats);
}

// An I8 gain between one inport and one outport: it wraps within a few
// steps under full-range stimulus.
void addGainModel(test::Tiny& t) {
  t.inport("In1", 1, DataType::I8);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 5.0);
  g.setDtype(DataType::I8);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
}

// ---- Values ------------------------------------------------------------

TEST(Protocol, ValueRoundTripIsBitExact) {
  // Payload-carrying NaN, -0.0 and infinities would all be destroyed by a
  // "serialize as JSON double" codec; the bit-pattern transport keeps them.
  Value f64(DataType::F64, 4);
  f64.setF(0, std::bit_cast<double>(UINT64_C(0x7ff8dead00000001)));
  f64.setF(1, -0.0);
  f64.setF(2, -std::numeric_limits<double>::infinity());
  f64.setF(3, 0.1);
  Value back = serve::valueFromJson(parseJson(serve::toJson(f64).write()), "$");
  expectValueEq(f64, back, "f64");
  // The -0.0 slot really is the negative-zero pattern, not +0.0.
  EXPECT_EQ(static_cast<uint64_t>(back.i(1)), UINT64_C(0x8000000000000000));

  Value f32(DataType::F32, 2);
  f32.setF(0, -3.5);
  f32.setF(1, std::numeric_limits<float>::quiet_NaN());
  expectValueEq(
      f32, serve::valueFromJson(parseJson(serve::toJson(f32).write()), "$"),
      "f32");

  Value i8 = Value::scalarI(DataType::I8, -100);
  expectValueEq(
      i8, serve::valueFromJson(parseJson(serve::toJson(i8).write()), "$"),
      "i8");

  Value u64 = Value::scalarI(DataType::U64,
                             static_cast<int64_t>(UINT64_C(0xffffffffffffffff)));
  expectValueEq(
      u64, serve::valueFromJson(parseJson(serve::toJson(u64).write()), "$"),
      "u64");

  Value b = Value::scalarBool(true);
  expectValueEq(
      b, serve::valueFromJson(parseJson(serve::toJson(b).write()), "$"),
      "bool");
}

TEST(Protocol, JsonKeeps64BitIntegersExact) {
  Json u = parseJson("18446744073709551615");
  EXPECT_EQ(u.asU64("$"), UINT64_C(18446744073709551615));
  // One past 2^53: a double would silently round this.
  Json i = parseJson("-9007199254740993");
  EXPECT_EQ(i.asI64("$"), INT64_C(-9007199254740993));
  // %.17g round-trips arbitrary doubles through the text form.
  Json d = parseJson(Json::number(0.1).write());
  EXPECT_EQ(d.asDouble("$"), 0.1);
  Json tiny = parseJson(Json::number(5e-324).write());
  EXPECT_EQ(tiny.asDouble("$"), 5e-324);
}

// ---- Error anchoring ---------------------------------------------------

TEST(Protocol, ParseErrorsCarryLineAndByte) {
  try {
    parseJson("{\n  \"a\": tru\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte"), std::string::npos) << msg;
  }
  EXPECT_THROW(parseJson("{\"a\": 1} trailing"), JsonError);
  EXPECT_THROW(parseJson("\"unterminated"), JsonError);
  EXPECT_THROW(parseJson("{\"dup\": 1, "), JsonError);
}

TEST(Protocol, ShapeErrorsNameTheJsonPath) {
  // A result object with a mistyped member: the error names the exact
  // path so a protocol regression is debuggable from the message alone.
  Json j = serve::toJson(SimulationResult{});
  j.set("stepsExecuted", Json::str("not-a-number"));
  try {
    serve::simResultFromJson(j, "$.result");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.result.stepsExecuted"),
              std::string::npos)
        << e.what();
  }
  // A missing member names the enclosing path.
  Json spec = serve::toJson(TestCaseSpec{});
  Json stripped = Json::object();
  for (const auto& [k, v] : spec.members("$")) {
    if (k != "seed") stripped.set(k, v);
  }
  try {
    serve::specFromJson(stripped, "$.spec");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.spec"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
  }
}

// ---- Results -----------------------------------------------------------

TEST(Protocol, SimulationResultRoundTripsExactly) {
  // A real run with coverage, diagnostics, collected signals and outputs —
  // not a synthetic fixture, so the codec is tested against everything the
  // engines actually produce. The I8 gain wraps within a few steps under
  // full-range stimulus, so diagnostics are guaranteed present.
  test::Tiny t;
  addGainModel(t);

  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 300;
  opt.collectList.push_back("root/G");
  TestCaseSpec stim;
  stim.seed = 7;
  stim.defaultPort.min = 0.0;
  stim.defaultPort.max = 127.0;
  SimulationResult res = simulate(t.model(), opt, stim);
  ASSERT_TRUE(res.hasCoverage);
  ASSERT_FALSE(res.diagnostics.empty());

  // Exercise the containment fields too.
  res.failed = true;
  res.failure = {FailureKind::Timeout, 1037, 3, 9, 1, "process",
                 "deadline of 0.5s exceeded"};

  SimulationResult back =
      serve::simResultFromJson(parseJson(serve::toJson(res).write()), "$");
  expectSimResultEq(res, back);
}

TEST(Protocol, CampaignResultRoundTripsExactly) {
  auto model = buildBenchmarkModel("CSEV");
  Simulator sim(*model);
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 300;
  CampaignResult cr =
      runCampaign(sim.flatModel(), opt, benchStimulus("CSEV"), {1, 2, 3});
  ASSERT_EQ(cr.perSeed.size(), 3u);

  // Exercise every field the campaign itself didn't populate: a contained
  // failure, the interrupt marker.
  cr.interrupted = true;
  cr.failures.push_back(
      {FailureKind::Crash, 1074, 2, 11, 0, "dlopen", "SIGSEGV in step 17"});

  CampaignResult back = serve::campaignResultFromJson(
      parseJson(serve::toJson(cr).write()), "$");

  ASSERT_EQ(back.perSeed.size(), cr.perSeed.size());
  for (size_t k = 0; k < cr.perSeed.size(); ++k) {
    const auto& a = cr.perSeed[k];
    const auto& b = back.perSeed[k];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.execSeconds, b.execSeconds);
    expectReportEq(a.coverage, b.coverage, "perSeed");
    expectReportEq(a.cumulative, b.cumulative, "perSeed");
    EXPECT_EQ(a.diagnosticKinds, b.diagnosticKinds);
    EXPECT_EQ(a.execMode, b.execMode);
    EXPECT_EQ(a.failed, b.failed);
  }
  expectReportEq(cr.cumulative, back.cumulative, "cumulative");
  expectRecorderEq(cr.mergedBitmaps, back.mergedBitmaps, "merged");
  ASSERT_EQ(cr.diagnostics.size(), back.diagnostics.size());
  for (size_t k = 0; k < cr.diagnostics.size(); ++k) {
    expectDiagEq(cr.diagnostics[k], back.diagnostics[k], "diag");
  }
  EXPECT_EQ(cr.totalExecSeconds, back.totalExecSeconds);
  EXPECT_EQ(cr.wallSeconds, back.wallSeconds);
  EXPECT_EQ(cr.generateSeconds, back.generateSeconds);
  EXPECT_EQ(cr.compileSeconds, back.compileSeconds);
  EXPECT_EQ(cr.loadSeconds, back.loadSeconds);
  EXPECT_EQ(cr.compileCacheHit, back.compileCacheHit);
  EXPECT_EQ(cr.workersUsed, back.workersUsed);
  ASSERT_EQ(cr.failures.size(), back.failures.size());
  for (size_t k = 0; k < cr.failures.size(); ++k) {
    expectFailureEq(cr.failures[k], back.failures[k], "failure");
  }
  expectOptStatsEq(cr.optStats, back.optStats);
  EXPECT_EQ(cr.interrupted, back.interrupted);
}

// ---- Options / specs ---------------------------------------------------

TEST(Protocol, SimOptionsRoundTrip) {
  SimOptions o;
  o.engine = Engine::AccMoS;
  o.maxSteps = 123456789;
  o.timeBudgetSec = 1.5;
  o.stopOnDiagnostic = true;
  o.runTimeoutSec = 2.25;
  o.coverage = true;
  o.diagnosis = false;
  o.collectList = {"root/A", "root/Sub/B"};
  o.customDiagnostics.push_back(rangeDiagnostic("root/A", "lane", -1.0, 1.0));
  o.customDiagnostics.push_back(suddenChangeDiagnostic("root/B", "jump", 0.5));
  o.optFlag = "-O1";
  o.campaign.workers = 7;

  std::string text = serve::toJson(o).write();
  SimOptions back = serve::optionsFromJson(parseJson(text), "$");
  EXPECT_EQ(back.engine, o.engine);
  EXPECT_EQ(back.maxSteps, o.maxSteps);
  EXPECT_EQ(back.timeBudgetSec, o.timeBudgetSec);
  EXPECT_EQ(back.stopOnDiagnostic, o.stopOnDiagnostic);
  EXPECT_EQ(back.runTimeoutSec, o.runTimeoutSec);
  EXPECT_EQ(back.coverage, o.coverage);
  EXPECT_EQ(back.diagnosis, o.diagnosis);
  EXPECT_EQ(back.collectList, o.collectList);
  ASSERT_EQ(back.customDiagnostics.size(), 2u);
  EXPECT_EQ(back.customDiagnostics[0].kind, CustomDiagnostic::Kind::Range);
  EXPECT_EQ(back.customDiagnostics[0].actorPath, "root/A");
  EXPECT_EQ(back.customDiagnostics[0].minValue, -1.0);
  EXPECT_EQ(back.customDiagnostics[0].maxValue, 1.0);
  EXPECT_EQ(back.customDiagnostics[1].kind,
            CustomDiagnostic::Kind::SuddenChange);
  EXPECT_EQ(back.customDiagnostics[1].maxDelta, 0.5);
  EXPECT_EQ(back.optFlag, o.optFlag);
  EXPECT_EQ(back.campaign.workers, o.campaign.workers);
}

// optFlag lands on the compiler's shell command line in the daemon, so
// only the four levels come off the wire.
TEST(Protocol, OptFlagIsOneOfTheFourLevels) {
  Json j = serve::toJson(SimOptions{});
  j.set("optFlag", Json::str("-O1; touch X #"));
  EXPECT_THROW(serve::optionsFromJson(j, "$"), JsonError);
  j.set("optFlag", Json::str("-O2"));
  EXPECT_EQ(serve::optionsFromJson(j, "$").optFlag, "-O2");
}

TEST(Protocol, ExpressionCustomDiagnosticsAreRejectedBothWays) {
  // Outbound: the std::function callback cannot travel.
  SimOptions o;
  CustomDiagnostic expr;
  expr.actorPath = "root/A";
  expr.name = "custom";
  expr.kind = CustomDiagnostic::Kind::Expression;
  expr.cppCondition = "cur > prev";
  o.customDiagnostics.push_back(expr);
  EXPECT_THROW(serve::toJson(o), ProtocolError);

  // Inbound: accepting a C++ condition string from the wire would be code
  // injection into the daemon's generated simulators.
  SimOptions clean;
  Json j = serve::toJson(clean);
  Json cj = Json::object();
  cj.set("actorPath", Json::str("root/A"));
  cj.set("name", Json::str("evil"));
  cj.set("kind", Json::str("expression"));
  cj.set("minValue", Json::number(0));
  cj.set("maxValue", Json::number(0));
  cj.set("maxDelta", Json::number(0));
  Json customs = Json::array();
  customs.push(std::move(cj));
  j.set("customDiagnostics", std::move(customs));
  EXPECT_THROW(serve::optionsFromJson(j, "$"), JsonError);
}

TEST(Protocol, TestCaseSpecRoundTripsExactly) {
  TestCaseSpec s;
  s.seed = UINT64_C(0xdeadbeefcafebabe);
  PortStimulus p1;
  p1.min = -2.5;
  p1.max = 7.25;
  PortStimulus p2;
  p2.sequence = {0.1, 1e-300, -0.0, 3.0};
  s.ports = {p1, p2};
  s.defaultPort.min = 0.0;
  s.defaultPort.max = 100.0;

  TestCaseSpec back =
      serve::specFromJson(parseJson(serve::toJson(s).write()), "$");
  EXPECT_EQ(back.seed, s.seed);
  ASSERT_EQ(back.ports.size(), 2u);
  EXPECT_EQ(back.ports[0].min, p1.min);
  EXPECT_EQ(back.ports[0].max, p1.max);
  EXPECT_TRUE(back.ports[0].sequence.empty());
  EXPECT_EQ(back.ports[1].sequence, p2.sequence);
  EXPECT_EQ(back.defaultPort.max, 100.0);
  // The spec's compiled-simulator cache key survives the trip — what the
  // daemon's model-library pool relies on.
  EXPECT_EQ(back.shapeKey(), s.shapeKey());
}

// ---- Observation canonicalization --------------------------------------

TEST(Protocol, CampaignObservationsExcludeTimingAndPlacement) {
  auto model = buildBenchmarkModel("CSEV");
  Simulator sim(*model);
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 200;
  CampaignResult cr =
      runCampaign(sim.flatModel(), opt, benchStimulus("CSEV"), {1, 2});

  std::string obs = serve::campaignObservations(cr).write();
  EXPECT_EQ(obs.find("wallSeconds"), std::string::npos);
  EXPECT_EQ(obs.find("execSeconds"), std::string::npos);
  EXPECT_EQ(obs.find("execMode"), std::string::npos);
  EXPECT_EQ(obs.find("workersUsed"), std::string::npos);
  EXPECT_NE(obs.find("mergedBitmaps"), std::string::npos);

  // Two results differing only in timing/placement render identically —
  // the property the client-vs-local bit-identity asserts stand on.
  CampaignResult moved = cr;
  moved.wallSeconds += 1.0;
  moved.totalExecSeconds += 0.5;
  moved.workersUsed = 8;
  for (auto& row : moved.perSeed) {
    row.execSeconds += 0.125;
    row.execMode = "process";
  }
  EXPECT_EQ(obs, serve::campaignObservations(moved).write());
}

// ---- Frames ------------------------------------------------------------

TEST(Protocol, FramesRoundTripOverASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  // Writer thread: big frames fill the socket buffer, so write and read
  // must proceed concurrently.
  const std::string big(3u << 20, 'x');
  std::thread writer([&] {
    serve::writeFrame(fds[0], "hello");
    serve::writeFrame(fds[0], "");  // empty payload is a legal frame
    serve::writeFrame(fds[0], big);
    ::close(fds[0]);
  });

  std::string got;
  ASSERT_TRUE(serve::readFrame(fds[1], &got));
  EXPECT_EQ(got, "hello");
  ASSERT_TRUE(serve::readFrame(fds[1], &got));
  EXPECT_EQ(got, "");
  ASSERT_TRUE(serve::readFrame(fds[1], &got));
  EXPECT_EQ(got, big);
  // Peer hung up between frames: clean EOF, not an error.
  EXPECT_FALSE(serve::readFrame(fds[1], &got));
  writer.join();
  ::close(fds[1]);
}

TEST(Protocol, TruncatedAndOversizeFramesThrow) {
  // Truncated payload: header promises 100 bytes, peer dies after 3.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char truncated[] = {0, 0, 0, 100, 'a', 'b', 'c'};
  ASSERT_EQ(::send(fds[0], truncated, sizeof truncated, 0),
            static_cast<ssize_t>(sizeof truncated));
  ::close(fds[0]);
  std::string got;
  EXPECT_THROW(serve::readFrame(fds[1], &got), ProtocolError);
  ::close(fds[1]);

  // Oversize length prefix: treated as stream corruption, not an
  // allocation request.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char oversize[] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fds[0], oversize, sizeof oversize, 0), 4);
  ::close(fds[0]);
  EXPECT_THROW(serve::readFrame(fds[1], &got), ProtocolError);
  ::close(fds[1]);

  // Truncated length prefix (2 of 4 header bytes).
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::send(fds[0], oversize, 2, 0), 2);
  ::close(fds[0]);
  EXPECT_THROW(serve::readFrame(fds[1], &got), ProtocolError);
  ::close(fds[1]);

  // The largest legal length prefix, then 3 bytes and a hang-up: the
  // prefix is the peer's claim, so the reader commits memory only for the
  // bytes that arrived, not 256 MiB.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const uint32_t max = serve::kMaxFrameBytes;
  const unsigned char claim[] = {static_cast<unsigned char>(max >> 24),
                                 static_cast<unsigned char>(max >> 16),
                                 static_cast<unsigned char>(max >> 8),
                                 static_cast<unsigned char>(max),
                                 'a', 'b', 'c'};
  ASSERT_EQ(::send(fds[0], claim, sizeof claim, 0),
            static_cast<ssize_t>(sizeof claim));
  ::close(fds[0]);
  EXPECT_THROW(serve::readFrame(fds[1], &got), ProtocolError);
  EXPECT_LT(got.capacity(), size_t{2} << 20);
  ::close(fds[1]);
}

// ---- Seeded mutation fuzzing -------------------------------------------
// Real payloads of the decoders the daemon and the shard coordinator run on
// bytes from a socket, mutated by a fixed SplitMix64 stream
// (test::mutateOnce, 1-3 mutations each). Every mutant must decode or fail
// with a ModelError (JsonError and ProtocolError are ModelErrors) — never
// another exception, a crash or a hang. The sanitizer CI jobs run it too.

template <typename Decode>
void fuzzDecoder(const std::string& payload, uint64_t seed, Decode decode) {
  SplitMix64 rng(seed);
  size_t decoded = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text = payload;
    for (uint64_t k = rng.next() % 3 + 1; k > 0; --k) {
      text = test::mutateOnce(std::move(text), rng);
    }
    try {
      decode(parseJson(text));
      ++decoded;
    } catch (const ModelError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << " escaped as an untyped "
                    << "exception: " << e.what();
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Protocol, MutatedPayloadsDecodeOrFailTyped) {
  SimOptions o;
  o.engine = Engine::AccMoS;
  o.maxSteps = 5000;
  o.runTimeoutSec = 2.5;
  o.collectList = {"root/G"};
  o.customDiagnostics.push_back(rangeDiagnostic("root/G", "lane", -1.0, 1.0));
  o.campaign.workers = 4;
  {
    SCOPED_TRACE("SimOptions");
    fuzzDecoder(serve::toJson(o).write(), 1,
                [](const Json& j) { serve::optionsFromJson(j, "$"); });
  }

  TestCaseSpec spec;
  spec.seed = 1037;
  spec.ports.resize(2);
  spec.ports[0].min = -2.5;
  spec.ports[0].max = 7.25;
  spec.ports[1].sequence = {0.25, -1.0, 3.0};
  {
    SCOPED_TRACE("TestCaseSpec");
    fuzzDecoder(serve::toJson(spec).write(), 2, [](const Json& j) {
      serve::specFromJson(j, "$").validate();
    });
  }

  test::Tiny t;
  addGainModel(t);
  SimOptions sse;
  sse.maxSteps = 50;
  CampaignResult cr = runCampaign(t.flatten(), sse, TestCaseSpec{}, {1, 2});
  cr.failures.push_back(
      {FailureKind::Crash, 1074, 1, 11, 0, "dlopen", "SIGSEGV in step 17"});
  {
    SCOPED_TRACE("CampaignResult");
    fuzzDecoder(serve::toJson(cr).write(), 3, [](const Json& j) {
      serve::campaignResultFromJson(j, "$");
    });
  }

  serve::ShardDone d;
  d.completed = 9;
  d.generateSeconds = 0.25;
  d.compileSeconds = 1.5;
  d.compilerInvocations = 3;
  {
    SCOPED_TRACE("ShardDone");
    fuzzDecoder(serve::toJson(d).write(), 4,
                [](const Json& j) { serve::shardDoneFromJson(j, "$"); });
  }
}

// One frame as it travels: a 4-byte big-endian length, then the payload.
std::string frameBytes(const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string out = {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                     static_cast<char>(len >> 8), static_cast<char>(len)};
  return out + payload;
}

// The frame reader on the bytes a daemon reads from a socket: a stream of
// three valid frames (a hello, a run request, a stats request) with 1-3
// mutations, written into a socketpair whose writer then hangs up. Reading
// must yield frames and then a clean end, or a ProtocolError; each payload
// must parse or throw JsonError. Nothing else may escape, crash or hang.
TEST(Protocol, MutatedFrameStreamsEndInFramesOrTypedErrors) {
  test::Tiny t;
  addGainModel(t);
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 300;
  TestCaseSpec spec;
  spec.seed = 7;

  Json hello = Json::object();
  hello.set("op", Json::str("hello"));
  hello.set("protocol", Json::u64(serve::kProtocolVersion));
  Json run = Json::object();
  run.set("op", Json::str("run"));
  run.set("model", Json::str(writeModelToString(t.model())));
  run.set("options", serve::toJson(opt));
  run.set("spec", serve::toJson(spec));
  Json stats = Json::object();
  stats.set("op", Json::str("stats"));
  const std::string stream = frameBytes(hello.write()) +
                             frameBytes(run.write()) +
                             frameBytes(stats.write());

  SplitMix64 rng(5);
  size_t cleanEnds = 0;
  size_t framingErrors = 0;
  size_t parsed = 0;
  size_t jsonErrors = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = stream;
    for (uint64_t k = rng.next() % 3 + 1; k > 0; --k) {
      bytes = test::mutateOnce(std::move(bytes), rng);
    }
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::send(fds[0], bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    ::close(fds[0]);
    try {
      std::string payload;
      while (serve::readFrame(fds[1], &payload)) {
        try {
          parseJson(payload);
          ++parsed;
        } catch (const JsonError&) {
          ++jsonErrors;
        }
      }
      ++cleanEnds;
    } catch (const ProtocolError&) {
      ++framingErrors;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << " escaped as an untyped "
                    << "exception: " << e.what();
    }
    ::close(fds[1]);
  }
  EXPECT_GT(cleanEnds, 0u);
  EXPECT_GT(framingErrors, 0u);
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(jsonErrors, 0u);
}

}  // namespace
}  // namespace accmos
