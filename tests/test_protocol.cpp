// The accmosd wire codec contract (src/serve/protocol.h): every field of
// every struct that crosses the socket survives an encode -> text ->
// parse -> decode round trip EXACTLY — NaN payloads, -0.0, 64-bit
// counters, bitmaps, failure records — and malformed input fails with a
// line/byte- or path-anchored JsonError instead of garbage downstream.
#include <gtest/gtest.h>

#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>

#include "bench_models/suite.h"
#include "opt/pipeline.h"
#include "parser/model_io.h"
#include "serve/client.h"
#include "serve/daemon.h"
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

// The campaign encoders render perSeed one row at a time. Their text must
// be the text of the same document built as a DOM, row by row with
// array()/push(), for a campaign with normal, failed and interrupted rows
// and for one with no rows. The rendered node itself cannot be read back.
TEST(Protocol, CampaignRowsRenderAsTheirDom) {
  auto model = buildBenchmarkModel("CSEV");
  Simulator sim(*model);
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 300;
  CampaignResult cr =
      runCampaign(sim.flatModel(), opt, benchStimulus("CSEV"), {1, 2, 3});
  ASSERT_EQ(cr.perSeed.size(), 3u);
  // A contained failure in the middle row, a placement string that needs
  // escaping, and the interrupt marker.
  cr.perSeed[1].failed = true;
  cr.perSeed[1].steps = 0;
  cr.perSeed[1].execMode = "pro\"cess\n";
  cr.failures.push_back(
      {FailureKind::Crash, 2, 1, 11, 1, "process", "SIGSEGV in step 17"});
  cr.interrupted = true;

  auto domOf = [](const CampaignResult& r) {
    Json rows = Json::array();
    for (const auto& s : r.perSeed) rows.push(serve::toJson(s));
    Json j = serve::toJson(r);
    j.set("perSeed", std::move(rows));  // replaces in place: same key order
    return j.write();
  };
  auto observationDomOf = [](const CampaignResult& r) {
    Json rows = Json::array();
    for (const auto& s : r.perSeed) {
      Json row = Json::object();
      row.set("seed", Json::u64(s.seed));
      row.set("steps", Json::u64(s.steps));
      row.set("coverage", serve::toJson(s.coverage));
      row.set("cumulative", serve::toJson(s.cumulative));
      row.set("diagnosticKinds",
              Json::u64(static_cast<uint64_t>(s.diagnosticKinds)));
      row.set("failed", Json::boolean(s.failed));
      rows.push(std::move(row));
    }
    Json j = serve::campaignObservations(r);
    j.set("perSeed", std::move(rows));
    return j.write();
  };

  for (const CampaignResult& r : {cr, CampaignResult{}}) {
    const std::string label = std::to_string(r.perSeed.size()) + " rows";
    EXPECT_EQ(serve::toJson(r).write(), domOf(r)) << label;
    EXPECT_EQ(serve::campaignObservations(r).write(), observationDomOf(r))
        << label;
  }
  EXPECT_NE(serve::toJson(cr).write().find("\"perSeed\":[{\"seed\":1,"),
            std::string::npos);
  EXPECT_NE(serve::toJson(CampaignResult{}).write().find("\"perSeed\":[],"),
            std::string::npos);

  // A rendered array is text to write, not a document to read: every
  // reader throws the typed error instead of handing out its contents.
  const Json rendered = serve::toJson(cr).at("perSeed", "$");
  EXPECT_EQ(rendered.kind(), Json::Kind::Rendered);
  EXPECT_THROW(rendered.asArray("$.perSeed"), JsonError);
  EXPECT_THROW(rendered.members("$.perSeed"), JsonError);
  EXPECT_THROW(rendered.at("seed", "$.perSeed"), JsonError);
  EXPECT_THROW(rendered.asString("$.perSeed"), JsonError);
  EXPECT_EQ(rendered.find("seed"), nullptr);
  EXPECT_THROW(serve::campaignResultFromJson(serve::toJson(cr), "$"),
               JsonError);
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

// A one-sided range diagnostic has an infinite bound, and JSON has no
// literal for one: the non-finite doubles travel as "inf", "-inf" and
// "nan", and read back as themselves.
TEST(Protocol, NonFiniteOptionsRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  SimOptions o;
  o.customDiagnostics.push_back(rangeDiagnostic("root/A", "low", -inf, 0.5));
  o.customDiagnostics.push_back(rangeDiagnostic("root/A", "high", 0.5, inf));
  o.customDiagnostics.push_back(suddenChangeDiagnostic("root/B", "jump", inf));

  const std::string text = serve::toJson(o).write();
  EXPECT_NE(text.find(R"("minValue":"-inf")"), std::string::npos) << text;
  EXPECT_NE(text.find(R"("maxValue":"inf")"), std::string::npos) << text;
  const SimOptions back = serve::optionsFromJson(parseJson(text), "$");
  ASSERT_EQ(back.customDiagnostics.size(), 3u);
  EXPECT_EQ(back.customDiagnostics[0].minValue, -inf);
  EXPECT_EQ(back.customDiagnostics[0].maxValue, 0.5);
  EXPECT_EQ(back.customDiagnostics[1].minValue, 0.5);
  EXPECT_EQ(back.customDiagnostics[1].maxValue, inf);
  EXPECT_EQ(back.customDiagnostics[2].maxDelta, inf);
  EXPECT_EQ(serve::toJson(back).write(), text);

  EXPECT_TRUE(std::isnan(parseJson(Json::number(std::nan("")).write())
                             .asDouble("$")));
  EXPECT_THROW(Json::str("infinity").asDouble("$"), JsonError);
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
  // Field by field and bitwise, so that -0.0 must stay -0.0: the daemon
  // runs exactly the stimulus the client sent.
  auto bits = [](const PortStimulus& p) {
    std::vector<uint64_t> out = {std::bit_cast<uint64_t>(p.min),
                                 std::bit_cast<uint64_t>(p.max)};
    for (double v : p.sequence) out.push_back(std::bit_cast<uint64_t>(v));
    return out;
  };
  EXPECT_EQ(back.seed, s.seed);
  ASSERT_EQ(back.ports.size(), s.ports.size());
  for (size_t k = 0; k < s.ports.size(); ++k) {
    EXPECT_EQ(back.ports[k].sequence.size(), s.ports[k].sequence.size())
        << "port " << k;
    EXPECT_EQ(bits(back.ports[k]), bits(s.ports[k])) << "port " << k;
  }
  EXPECT_EQ(bits(back.defaultPort), bits(s.defaultPort));
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

// ---- Golden wire text --------------------------------------------------
// Fixed instances of every message, rendered byte for byte as protocol v7
// renders them. A change to any message's keys, their order or a number's
// JSON flavour fails here; decoding each text and encoding it again must
// give the text back.

SimulationResult goldenRun() {
  SimulationResult r;
  r.stepsExecuted = 40;
  r.stoppedEarly = true;
  r.execSeconds = 0.5;
  r.generateSeconds = 0.25;
  r.compileSeconds = 1.75;
  r.loadSeconds = 0.125;
  r.execMode = "dlopen";
  r.hasCoverage = true;
  r.coverage.entries[0] = {3, 4};
  r.coverage.entries[1] = {1, 2};
  r.bitmaps.bits(CovMetric::Actor) = {1, 0, 1, 1};
  r.bitmaps.bits(CovMetric::Decision) = {0, 1};
  r.diagnostics.push_back(
      {2, "root/G", DiagKind::WrapOnOverflow, "", UINT64_C(3), UINT64_C(38)});
  r.collected.push_back(
      {"root/G:1", Value::scalarI(DataType::I8, -56), UINT64_C(40)});
  Value out(DataType::F64, 2);
  out.setF(0, std::numeric_limits<double>::quiet_NaN());
  out.setF(1, -0.0);
  r.finalOutputs.push_back(out);
  r.optStats = {12, 9, 14, 10, 1, 2, 1, 3, 1};
  return r;
}

CampaignResult goldenCampaign() {
  CampaignResult c;
  CampaignSeedResult row;
  row.seed = 1;
  row.steps = 300;
  row.execSeconds = 0.5;
  row.coverage.entries[0] = {3, 4};
  row.cumulative.entries[0] = {3, 4};
  row.diagnosticKinds = 1;
  row.execMode = "dlopen";
  c.perSeed.push_back(row);
  row.seed = 2;
  row.steps = 0;
  row.execSeconds = 0.0;
  row.coverage = CoverageReport{};
  row.diagnosticKinds = 0;
  row.execMode = "process";
  row.failed = true;
  c.perSeed.push_back(row);
  c.cumulative.entries[0] = {3, 4};
  c.mergedBitmaps.bits(CovMetric::Actor) = {1, 1, 0, 1};
  c.diagnostics.push_back(
      {2, "root/G", DiagKind::WrapOnOverflow, "", UINT64_C(3), UINT64_C(38)});
  c.totalExecSeconds = 0.5;
  c.wallSeconds = 0.75;
  c.generateSeconds = 0.25;
  c.compileSeconds = 1.5;
  c.loadSeconds = 0.125;
  c.compileCacheHit = true;
  c.workersUsed = 2;
  c.failures.push_back(
      {FailureKind::Crash, 2, 1, 11, 1, "process", "SIGSEGV in step 17"});
  c.optStats = {12, 9, 14, 10, 1, 2, 1, 3, 1};
  return c;
}

SimOptions goldenOptions() {
  SimOptions o;
  o.engine = Engine::AccMoS;
  o.maxSteps = 5000;
  o.stopOnDiagnostic = true;
  o.runTimeoutSec = 2.5;
  o.collectList = {"root/G"};
  o.customDiagnostics.push_back(rangeDiagnostic("root/A", "lane", -1.0, 1.0));
  o.customDiagnostics.push_back(suddenChangeDiagnostic("root/B", "jump", 0.5));
  o.optFlag = "-O2";
  o.campaign.workers = 3;
  return o;
}

TestCaseSpec goldenSpec() {
  TestCaseSpec s;
  s.seed = 1037;
  s.ports.resize(2);
  s.ports[0].min = -2.5;
  s.ports[0].max = 7.25;
  s.ports[1].sequence = {0.25, -1.0, 3.0};
  s.defaultPort.max = 100.0;
  return s;
}

template <class T, class Decode>
void expectGolden(const T& x, const std::string& want, Decode decode) {
  EXPECT_EQ(serve::toJson(x).write(), want);
  EXPECT_EQ(serve::toJson(decode(parseJson(want), "$")).write(), want);
}

const std::string kGoldenRun =
    R"({"stepsExecuted":40,"stoppedEarly":true,"timedOut":false,)"
    R"("failed":false,"failure":{"kind":"Crash","seed":0,"index":0,)"
    R"("signal":0,"retries":0,"backend":"","message":""},"execSeconds":0.5,)"
    R"("generateSeconds":0.25,"compileSeconds":1.75,"loadSeconds":0.125,)"
    R"("execMode":"dlopen","hasCoverage":true,)"
    R"("coverage":{"actor":{"covered":3,"total":4},"condition":{"covered":1,)"
    R"("total":2},"decision":{"covered":0,"total":0},"mcdc":{"covered":0,)"
    R"("total":0}},"bitmaps":{"actor":"1011","condition":"","decision":"01",)"
    R"("mcdc":""},"diagnostics":[{"actorId":2,"actorPath":"root/G",)"
    R"("kind":"wrap_on_overflow","message":"","firstStep":3,"count":38}],)"
    R"("collected":[{"path":"root/G:1","last":{"t":"i8","w":1,)"
    R"("bits":[18446744073709551560]},"count":40}],)"
    R"("finalOutputs":[{"t":"f64","w":2,"bits":[9221120237041090560,)"
    R"(9223372036854775808]}],"optStats":{"actorsBefore":12,"actorsAfter":9,)"
    R"("signalsBefore":14,"signalsAfter":10,"actorsFolded":1,)"
    R"("identitiesBypassed":2,"actorsEliminated":1,"signalsEliminated":3,)"
    R"("stateUpdatesHoisted":1}})";
const std::string kGoldenCampaign =
    R"({"perSeed":[{"seed":1,"steps":300,"execSeconds":0.5,)"
    R"("coverage":{"actor":{"covered":3,"total":4},"condition":{"covered":0,)"
    R"("total":0},"decision":{"covered":0,"total":0},"mcdc":{"covered":0,)"
    R"("total":0}},"cumulative":{"actor":{"covered":3,"total":4},)"
    R"("condition":{"covered":0,"total":0},"decision":{"covered":0,)"
    R"("total":0},"mcdc":{"covered":0,"total":0}},"diagnosticKinds":1,)"
    R"("execMode":"dlopen","failed":false},{"seed":2,"steps":0,)"
    R"("execSeconds":0.0,"coverage":{"actor":{"covered":0,"total":0},)"
    R"("condition":{"covered":0,"total":0},"decision":{"covered":0,)"
    R"("total":0},"mcdc":{"covered":0,"total":0}},)"
    R"("cumulative":{"actor":{"covered":3,"total":4},)"
    R"("condition":{"covered":0,"total":0},"decision":{"covered":0,)"
    R"("total":0},"mcdc":{"covered":0,"total":0}},"diagnosticKinds":0,)"
    R"("execMode":"process","failed":true}],)"
    R"("cumulative":{"actor":{"covered":3,"total":4},)"
    R"("condition":{"covered":0,"total":0},"decision":{"covered":0,)"
    R"("total":0},"mcdc":{"covered":0,"total":0}},)"
    R"("mergedBitmaps":{"actor":"1101","condition":"","decision":"",)"
    R"("mcdc":""},"diagnostics":[{"actorId":2,"actorPath":"root/G",)"
    R"("kind":"wrap_on_overflow","message":"","firstStep":3,"count":38}],)"
    R"("totalExecSeconds":0.5,"wallSeconds":0.75,"generateSeconds":0.25,)"
    R"("compileSeconds":1.5,"loadSeconds":0.125,"compileCacheHit":true,)"
    R"("workersUsed":2,"failures":[{"kind":"Crash","seed":2,"index":1,)"
    R"("signal":11,"retries":1,"backend":"process",)"
    R"("message":"SIGSEGV in step 17"}],"optStats":{"actorsBefore":12,)"
    R"("actorsAfter":9,"signalsBefore":14,"signalsAfter":10,"actorsFolded":1,)"
    R"("identitiesBypassed":2,"actorsEliminated":1,"signalsEliminated":3,)"
    R"("stateUpdatesHoisted":1},"interrupted":false})";
const std::string kGoldenOptions =
    R"({"engine":"AccMoS","maxSteps":5000,"timeBudgetSec":0.0,)"
    R"("stopOnDiagnostic":true,"runTimeoutSec":2.5,"coverage":true,)"
    R"("diagnosis":true,"collectList":["root/G"],)"
    R"("customDiagnostics":[{"actorPath":"root/A","name":"lane",)"
    R"("kind":"range","minValue":-1.0,"maxValue":1.0,"maxDelta":0.0},)"
    R"({"actorPath":"root/B","name":"jump","kind":"sudden-change",)"
    R"("minValue":0.0,"maxValue":0.0,"maxDelta":0.5}],"optFlag":"-O2",)"
    R"("workers":3})";
const std::string kGoldenSpec =
    R"({"seed":1037,"ports":[{"min":-2.5,"max":7.25,"sequence":[]},)"
    R"({"min":0.0,"max":1.0,"sequence":[0.25,-1.0,3.0]}],)"
    R"("defaultPort":{"min":0.0,"max":100.0,"sequence":[]}})";
const std::string kGoldenShardRequest =
    R"({"op":"shard","model":"<model name=\"T\"/>","options":)" +
    kGoldenOptions + R"(,"specs":[)" + kGoldenSpec +
    R"(],"shardIndex":1,"shardCount":4})";
const std::string kGoldenShardPartial =
    R"({"op":"partial","first":5,"results":[)" + kGoldenRun + "]}";
const std::string kGoldenShardDone =
    R"({"op":"done","completed":9,"interrupted":true,"generateSeconds":0.25,)"
    R"("compileSeconds":1.5,"loadSeconds":0.125,"compileCacheHit":true,)"
    R"("compilerInvocations":3})";

// The hello either side sends, and the pool statistics a daemon reports.
const std::string kGoldenHelloBody =
    std::string(R"("op":"hello","protocol":7,"abi":6,"version":")") +
    serve::kAccmosVersion + R"(","cacheSchema":")" + serve::kCacheSchema +
    "\"}";
const std::string kGoldenHello = "{" + kGoldenHelloBody;
const std::string kGoldenHelloAnswer = R"({"ok":true,)" + kGoldenHelloBody;
const std::string kGoldenFreshPool =
    R"({"entries":0,"residentBytes":0,"byteBudget":1048576,"hits":0,)"
    R"("misses":0,"evictions":0})";
const std::string kGoldenBusyPool =
    R"({"entries":2,"residentBytes":4096,"byteBudget":1048576,"hits":5,)"
    R"("misses":2,"evictions":1})";

int connectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    fd = -1;
  }
  return fd;
}

TEST(Protocol, WireTextIsGolden) {
  expectGolden(goldenRun(), kGoldenRun, serve::simResultFromJson);
  expectGolden(goldenCampaign(), kGoldenCampaign,
               serve::campaignResultFromJson);
  expectGolden(goldenOptions(), kGoldenOptions, serve::optionsFromJson);
  expectGolden(goldenSpec(), kGoldenSpec, serve::specFromJson);

  serve::ShardRequest req;
  req.modelText = "<model name=\"T\"/>";
  req.options = goldenOptions();
  req.specs = {goldenSpec()};
  req.shardIndex = 1;
  req.shardCount = 4;
  expectGolden(req, kGoldenShardRequest, serve::shardRequestFromJson);
  serve::ShardPartial part;
  part.first = 5;
  part.results = {goldenRun()};
  expectGolden(part, kGoldenShardPartial, serve::shardPartialFromJson);
  serve::ShardDone done;
  done.completed = 9;
  done.interrupted = true;
  done.generateSeconds = 0.25;
  done.compileSeconds = 1.5;
  done.loadSeconds = 0.125;
  done.compileCacheHit = true;
  done.compilerInvocations = 3;
  expectGolden(done, kGoldenShardDone, serve::shardDoneFromJson);
}

// The hello and the pool statistics as the daemon writes them, and as the
// client writes and reads them against a stand-in daemon that answers one
// run request with fixed text.
TEST(Protocol, HelloAndPoolStatsWireTextIsGolden) {
  const std::string sock = (std::filesystem::temp_directory_path() /
                            ("accmos_golden_" + std::to_string(::getpid()) +
                             ".sock"))
                               .string();
  {
    serve::ServeOptions so;
    so.socketPath = sock;
    so.requestWorkers = 1;
    so.poolBudgetBytes = 1u << 20;
    test::DaemonRunner dr(so);
    const int fd = connectUnix(sock);
    ASSERT_GE(fd, 0);
    std::string text;
    serve::writeFrame(fd, kGoldenHello);
    ASSERT_TRUE(serve::readFrame(fd, &text));
    EXPECT_EQ(text, kGoldenHelloAnswer);
    serve::writeFrame(fd, R"({"op":"stats"})");
    ASSERT_TRUE(serve::readFrame(fd, &text));
    EXPECT_EQ(parseJson(text).at("pool", "$").write(), kGoldenFreshPool);
    ::close(fd);
  }

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(sock.c_str());
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  std::thread standIn([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    try {
      std::string text;
      if (fd < 0 || !serve::readFrame(fd, &text)) {
        throw ProtocolError("no hello arrived");
      }
      EXPECT_EQ(text, kGoldenHello);
      serve::writeFrame(fd, kGoldenHelloAnswer);
      if (serve::readFrame(fd, &text)) {
        serve::writeFrame(fd, R"({"ok":true,"op":"run","result":)" +
                                  kGoldenRun +
                                  R"(,"service":{"poolHit":true,"pool":)" +
                                  kGoldenBusyPool + "}}");
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "stand-in daemon: " << e.what();
    }
    if (fd >= 0) ::close(fd);
  });
  try {
    serve::ServeClient cl(sock);
    EXPECT_EQ(cl.daemonVersion(), serve::kAccmosVersion);
    EXPECT_EQ(cl.daemonAbi(), 6u);
    serve::ServiceMeta meta;
    const SimulationResult r =
        cl.run("<model/>", goldenOptions(), goldenSpec(), &meta);
    EXPECT_EQ(serve::toJson(r).write(), kGoldenRun);
    EXPECT_TRUE(meta.poolHit);
    EXPECT_EQ(meta.pool.entries, 2u);
    EXPECT_EQ(meta.pool.residentBytes, 4096u);
    EXPECT_EQ(meta.pool.byteBudget, 1u << 20);
    EXPECT_EQ(meta.pool.hits, 5u);
    EXPECT_EQ(meta.pool.misses, 2u);
    EXPECT_EQ(meta.pool.evictions, 1u);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "client: " << e.what();
  }
  standIn.join();
  ::close(listener);
  ::unlink(sock.c_str());
}

// The hello and the service record, through the codecs client and daemon
// share: one field list each, the same text either way.
TEST(Protocol, HelloAndServiceCodecsRoundTrip) {
  EXPECT_EQ(serve::toJson(serve::Hello{}).write(), kGoldenHello);
  EXPECT_EQ(serve::helloAnswer(serve::Hello{}).write(), kGoldenHelloAnswer);
  const serve::Hello h =
      serve::helloFromJson(parseJson(kGoldenHelloAnswer), "$");
  EXPECT_EQ(h.protocol, serve::kProtocolVersion);
  EXPECT_EQ(h.version, serve::kAccmosVersion);
  EXPECT_EQ(serve::toJson(h).write(), kGoldenHello);

  const std::string service =
      R"({"poolHit":true,"pool":)" + kGoldenBusyPool + "}";
  const serve::ServiceMeta meta =
      serve::serviceMetaFromJson(parseJson(service), "$.service");
  EXPECT_EQ(meta.pool.residentBytes, 4096u);
  EXPECT_EQ(serve::toJson(meta).write(), service);
  EXPECT_EQ(serve::toJson(meta.pool).write(), kGoldenBusyPool);
  try {
    serve::serviceMetaFromJson(parseJson(R"({"poolHit":true,"pool":{}})"),
                               "$.service");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.service.pool: missing key "
                                         "'entries'"),
              std::string::npos)
        << e.what();
  }
}

// ---- Request envelopes -------------------------------------------------
// The run and campaign requests ServeClient writes, byte for byte: "op",
// the model text, the options, and the run's spec or the campaign's
// specs, for a CSEV model under fixed options and two specs with ranges
// and a sequence. A real daemon answers the golden text, and the same
// request with its keys in another order, with what local execution of
// the request observes.

SimOptions envelopeOptions() {
  SimOptions o;
  o.engine = Engine::SSE;
  o.maxSteps = 300;
  o.optFlag = "-O2";
  o.campaign.workers = 2;
  return o;
}

TestCaseSpec envelopeSecondSpec() {
  TestCaseSpec s;
  s.seed = 7;
  s.ports.resize(1);
  s.ports[0].sequence = {1.5, -0.5};
  s.defaultPort.min = -3.0;
  s.defaultPort.max = 3.0;
  return s;
}

const std::string kGoldenEnvelopeOptions =
    R"({"engine":"SSE","maxSteps":300,"timeBudgetSec":0.0,)"
    R"("stopOnDiagnostic":false,"runTimeoutSec":0.0,"coverage":true,)"
    R"("diagnosis":true,"collectList":[],"customDiagnostics":[],)"
    R"("optFlag":"-O2","workers":2})";
const std::string kGoldenSecondSpec =
    R"({"seed":7,"ports":[{"min":0.0,"max":1.0,"sequence":[1.5,-0.5]}],)"
    R"("defaultPort":{"min":-3.0,"max":3.0,"sequence":[]}})";

std::string goldenRunRequest(const std::string& modelJson) {
  return R"({"op":"run","model":)" + modelJson + R"(,"options":)" +
         kGoldenEnvelopeOptions + R"(,"spec":)" + kGoldenSpec + "}";
}

std::string goldenCampaignRequest(const std::string& modelJson) {
  return R"({"op":"campaign","model":)" + modelJson + R"(,"options":)" +
         kGoldenEnvelopeOptions + R"(,"specs":[)" + kGoldenSpec + "," +
         kGoldenSecondSpec + "]}";
}

// The frames a ServeClient on `sock` sends after its hello. A stand-in
// daemon answers the hello, then request k with answers[k].
template <class Talk>
std::vector<std::string> sentRequests(const std::string& sock,
                                      const std::vector<std::string>& answers,
                                      Talk talk) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(sock.c_str());
  EXPECT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::listen(listener, 1), 0);
  std::vector<std::string> sent;
  std::thread standIn([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    try {
      std::string text;
      if (fd < 0 || !serve::readFrame(fd, &text)) {
        throw ProtocolError("no hello arrived");
      }
      serve::writeFrame(fd, kGoldenHelloAnswer);
      for (const std::string& answer : answers) {
        if (!serve::readFrame(fd, &text)) break;
        sent.push_back(text);
        serve::writeFrame(fd, answer);
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "stand-in daemon: " << e.what();
    }
    if (fd >= 0) ::close(fd);
  });
  try {
    serve::ServeClient cl(sock);
    talk(cl);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "client: " << e.what();
  }
  standIn.join();
  ::close(listener);
  ::unlink(sock.c_str());
  return sent;
}

// A run's observations: its result text without the timing fields.
std::string runObservations(SimulationResult r) {
  r.execSeconds = r.generateSeconds = r.compileSeconds = r.loadSeconds = 0.0;
  return serve::toJson(r).write();
}

TEST(Protocol, RequestEnvelopeTextIsGolden) {
  const auto csev = buildBenchmarkModel("CSEV");
  const std::string xml = writeModelToString(*csev);
  const std::string modelJson = Json::str(xml).write();
  const SimOptions opt = envelopeOptions();
  const std::vector<TestCaseSpec> specs = {goldenSpec(),
                                           envelopeSecondSpec()};
  const std::string sock = (std::filesystem::temp_directory_path() /
                            ("accmos_envelope_" + std::to_string(::getpid()) +
                             ".sock"))
                               .string();

  const std::vector<std::string> sent = sentRequests(
      sock,
      {R"({"ok":true,"op":"run","result":)" + kGoldenRun + "}",
       R"({"ok":true,"op":"campaign","result":)" + kGoldenCampaign + "}"},
      [&](serve::ServeClient& cl) {
        EXPECT_EQ(serve::toJson(cl.run(xml, opt, specs[0])).write(),
                  kGoldenRun);
        EXPECT_EQ(serve::toJson(cl.campaign(xml, opt, specs)).write(),
                  kGoldenCampaign);
      });
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0], goldenRunRequest(modelJson));
  EXPECT_EQ(sent[1], goldenCampaignRequest(modelJson));

  // The daemon's side: the golden texts, and the same requests with their
  // keys in another order, answer what local execution observes.
  const std::string reorderedRun =
      R"({"spec":)" + kGoldenSpec + R"(,"options":)" + kGoldenEnvelopeOptions +
      R"(,"model":)" + modelJson + R"(,"op":"run"})";
  const std::string reorderedCampaign =
      R"({"specs":[)" + kGoldenSpec + "," + kGoldenSecondSpec +
      R"(],"model":)" + modelJson + R"(,"op":"campaign","options":)" +
      kGoldenEnvelopeOptions + "}";
  Simulator sim(*csev);
  OptStats optStats;
  const FlatModel model = optimizeModel(sim.flatModel(), opt, &optStats);
  SimulationResult localRun = SpecEvaluator(model, opt).evaluate(
      std::vector<TestCaseSpec>{specs[0]})[0];
  localRun.optStats = optStats;
  const std::string localCampaign = serve::campaignObservations(
      runCampaignSpecs(sim.flatModel(), opt, specs)).write();

  serve::ServeOptions so;
  so.socketPath = sock;
  so.requestWorkers = 1;
  test::DaemonRunner dr(so);
  const int fd = connectUnix(sock);
  ASSERT_GE(fd, 0);
  std::string text;
  serve::writeFrame(fd, kGoldenHello);
  ASSERT_TRUE(serve::readFrame(fd, &text));
  for (const std::string& req :
       {goldenRunRequest(modelJson), reorderedRun}) {
    serve::writeFrame(fd, req);
    ASSERT_TRUE(serve::readFrame(fd, &text));
    const Json resp = parseJson(text);
    ASSERT_TRUE(resp.at("ok", "$").asBool("$.ok")) << text;
    EXPECT_EQ(runObservations(serve::simResultFromJson(
                  resp.at("result", "$"), "$.result")),
              runObservations(localRun));
  }
  for (const std::string& req :
       {goldenCampaignRequest(modelJson), reorderedCampaign}) {
    serve::writeFrame(fd, req);
    ASSERT_TRUE(serve::readFrame(fd, &text));
    const Json resp = parseJson(text);
    ASSERT_TRUE(resp.at("ok", "$").asBool("$.ok")) << text;
    EXPECT_EQ(serve::campaignObservations(serve::campaignResultFromJson(
                                              resp.at("result", "$"),
                                              "$.result"))
                  .write(),
              localCampaign);
  }
  ::close(fd);
}

// The index form of both envelopes: "model" is the unsigned integer a
// daemon answered the text with, in the text's place.
const std::string kGoldenRunRequestByIndex =
    R"({"op":"run","model":0,"options":)" + kGoldenEnvelopeOptions +
    R"(,"spec":)" + kGoldenSpec + "}";
const std::string kGoldenCampaignRequestByIndex =
    R"({"op":"campaign","model":5,"options":)" + kGoldenEnvelopeOptions +
    R"(,"specs":[)" + kGoldenSpec + "," + kGoldenSecondSpec + "]}";
// An ok answer to a request that carried its text: the index the daemon
// registered the text under comes last.
const std::string kGoldenRegisteringAnswer =
    R"({"ok":true,"op":"run","result":)" + kGoldenRun +
    R"(,"service":{"poolHit":false,"pool":)" + kGoldenBusyPool +
    R"(},"model":0})";

// The index form on the wire, from both sides. A stand-in daemon that
// answers a text with "model": 0 sees the client name index 0 in its next
// request for that text, whichever kind. A text of the same size but other
// bytes still travels whole, and an error answer registers nothing, even
// one that names an index. A real daemon's answer names the index last.
TEST(Protocol, RequestByIndexTextIsGolden) {
  const SimOptions opt = envelopeOptions();
  const std::vector<TestCaseSpec> specs = {goldenSpec(),
                                           envelopeSecondSpec()};
  EXPECT_EQ(serve::runRequestText(0, opt, specs[0]), kGoldenRunRequestByIndex);
  EXPECT_EQ(serve::campaignRequestText(5, opt, specs),
            kGoldenCampaignRequestByIndex);

  const std::string model = "<model name=\"T\"/>";
  std::string sameSize = model;
  sameSize[13] = 'U';
  const std::string sock = (std::filesystem::temp_directory_path() /
                            ("accmos_by_index_" + std::to_string(::getpid()) +
                             ".sock"))
                               .string();
  const std::string runAnswer =
      R"({"ok":true,"op":"run","result":)" + kGoldenRun + "}";
  const std::vector<std::string> sent = sentRequests(
      sock,
      {kGoldenRegisteringAnswer,
       R"({"ok":true,"op":"campaign","result":)" + kGoldenCampaign + "}",
       R"({"ok":false,"kind":"model-load","error":"bad","model":1})",
       runAnswer, runAnswer},
      [&](serve::ServeClient& cl) {
        EXPECT_EQ(serve::toJson(cl.run(model, opt, specs[0])).write(),
                  kGoldenRun);
        EXPECT_EQ(serve::toJson(cl.campaign(model, opt, specs)).write(),
                  kGoldenCampaign);
        EXPECT_THROW(cl.run(sameSize, opt, specs[0]), ModelLoadError);
        cl.run(sameSize, opt, specs[0]);
        cl.run(model, opt, specs[0]);
      });
  ASSERT_EQ(sent.size(), 5u);
  EXPECT_EQ(sent[0], goldenRunRequest(Json::str(model).write()));
  EXPECT_EQ(sent[1], goldenCampaignRequest("0"));
  EXPECT_EQ(sent[2], goldenRunRequest(Json::str(sameSize).write()));
  EXPECT_EQ(sent[3], sent[2]);
  EXPECT_EQ(sent[4], kGoldenRunRequestByIndex);

  // A real daemon: the text is answered with its index, last; the same
  // text inline again with the same index; the index with no "model".
  const std::string csev = Json::str(writeModelToString(
                                         *buildBenchmarkModel("CSEV")))
                               .write();
  serve::ServeOptions so;
  so.socketPath = sock;
  so.requestWorkers = 1;
  test::DaemonRunner dr(so);
  const int fd = connectUnix(sock);
  ASSERT_GE(fd, 0);
  std::string text;
  serve::writeFrame(fd, kGoldenHello);
  ASSERT_TRUE(serve::readFrame(fd, &text));
  std::vector<std::string> results;
  for (const std::string& req :
       {goldenRunRequest(csev), goldenRunRequest(csev),
        kGoldenRunRequestByIndex}) {
    serve::writeFrame(fd, req);
    ASSERT_TRUE(serve::readFrame(fd, &text));
    const Json resp = parseJson(text);
    std::vector<std::string> keys;
    for (const auto& member : resp.members("$")) keys.push_back(member.first);
    std::vector<std::string> want = {"ok", "op", "result", "service"};
    if (req != kGoldenRunRequestByIndex) want.push_back("model");
    EXPECT_EQ(keys, want) << text.substr(0, 200);
    if (req != kGoldenRunRequestByIndex) {
      EXPECT_EQ(text.substr(text.size() - 11), R"(,"model":0})");
    }
    results.push_back(runObservations(
        serve::simResultFromJson(resp.at("result", "$"), "$.result")));
  }
  EXPECT_EQ(results[1], results[0]);
  EXPECT_EQ(results[2], results[0]);
  ::close(fd);
}

// The daemon's reader of request frames against the golden envelopes:
// decoding a golden text and encoding it again gives the text back, in
// whatever order its keys came, whether the model is a text or an index.
// A seeded batch sends the text of its explicit specs. A missing key, a
// wrong kind and a repeated key read as the DOM decoder reads them.
TEST(Protocol, RequestEnvelopeDecodesToItsText) {
  const std::string model = "<model name=\"T\"/>";
  const std::string modelJson = Json::str(model).write();
  const std::string runBody = R"("options":)" + kGoldenEnvelopeOptions +
                              R"(,"spec":)" + kGoldenSpec;
  const std::string specsBody =
      R"("specs":[)" + kGoldenSpec + "," + kGoldenSecondSpec + "]";

  auto runAgain = [](const serve::Request& q) {
    const serve::ModelName& m = q.run.model;
    return m.index
               ? serve::runRequestText(*m.index, q.run.options, q.run.spec)
               : serve::runRequestText(m.text, q.run.options, q.run.spec);
  };
  auto campaignAgain = [](const serve::Request& q) {
    const serve::ModelName& m = q.campaign.model;
    return m.index ? serve::campaignRequestText(*m.index, q.campaign.options,
                                                q.campaign.specs)
                   : serve::campaignRequestText(m.text, q.campaign.options,
                                                q.campaign.specs);
  };
  // The model as a text, and as the indices 0 and 2^64 - 1.
  for (const std::string& name :
       {modelJson, std::string("0"), std::string("18446744073709551615")}) {
    SCOPED_TRACE(name.substr(0, 8));
    const std::string runText = goldenRunRequest(name);
    const std::string campaignText = goldenCampaignRequest(name);
    const serve::Request run = serve::requestFromText(runText);
    EXPECT_EQ(run.run.model.index.has_value(), name != modelJson);
    EXPECT_EQ(run.run.model.text, name == modelJson ? model : "");
    EXPECT_EQ(runAgain(run), runText);
    EXPECT_EQ(campaignAgain(serve::requestFromText(campaignText)),
              campaignText);
    const serve::Request reorderedRun = serve::requestFromText(
        "{" + runBody + R"(,"model":)" + name + R"(,"op":"run"})");
    EXPECT_EQ(reorderedRun.op, "run");
    EXPECT_EQ(runAgain(reorderedRun), runText);
    const serve::Request reorderedCampaign = serve::requestFromText(
        "{" + specsBody + R"(,"model":)" + name + R"(,"options":)" +
        kGoldenEnvelopeOptions + R"(,"op":"campaign"})");
    EXPECT_EQ(reorderedCampaign.op, "campaign");
    EXPECT_EQ(campaignAgain(reorderedCampaign), campaignText);
  }
  const std::string runText = goldenRunRequest(modelJson);
  const std::string campaignText = goldenCampaignRequest(modelJson);
  EXPECT_EQ(serve::requestFromText(R"({"op":"stats"})").op, "stats");

  // One base spec under two seeds writes the same text as the two specs.
  const TestCaseSpec base = goldenSpec();
  const std::vector<uint64_t> seeds = {1037, 7};
  std::vector<TestCaseSpec> explicitSpecs = {base, base};
  explicitSpecs[1].seed = 7;
  EXPECT_EQ(serve::campaignRequestText(model, envelopeOptions(),
                                       SpecBatch(base, seeds)),
            serve::campaignRequestText(model, envelopeOptions(),
                                       explicitSpecs));

  // A repeated key's last value wins, streamed or not.
  const serve::Request repeated = serve::requestFromText(
      R"({"op":"campaign","specs":[)" + kGoldenSecondSpec +
      R"(],"model":"x","model":)" + modelJson + R"(,"options":)" +
      kGoldenEnvelopeOptions + "," + specsBody + "}");
  EXPECT_EQ(campaignAgain(repeated), campaignText);

  auto errorOf = [](const std::string& text) -> std::string {
    try {
      serve::requestFromText(text);
    } catch (const JsonError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(errorOf(R"({"op":"run",)" + runBody + "}"),
            "$: missing key 'model'");
  EXPECT_EQ(errorOf(R"({"model":"x",)" + runBody + "}"),
            "$: missing key 'op'");
  EXPECT_EQ(errorOf(R"({"op":"campaign","model":"x","options":)" +
                    kGoldenEnvelopeOptions + "}"),
            "$: missing key 'specs'");
  EXPECT_EQ(errorOf(R"({"op":"campaign","model":"x","options":)" +
                    kGoldenEnvelopeOptions + R"(,"specs":7})"),
            "$.specs: expected array, got number");
  std::string noMin = R"({"seed":1,"ports":[{"min":0.0,"max":1.0,)"
                      R"("sequence":[]},{"max":1.0,"sequence":[]}],)"
                      R"("defaultPort":{"min":0.0,"max":1.0,"sequence":[]}})";
  EXPECT_EQ(errorOf(R"({"op":"campaign","model":"x","options":)" +
                    kGoldenEnvelopeOptions + R"(,"specs":[)" + kGoldenSpec +
                    "," + kGoldenSpec + "," + kGoldenSpec + "," + noMin +
                    "]}"),
            "$.specs[3].ports[1]: missing key 'min'");
  EXPECT_EQ(errorOf("[]"), "$: expected object, got array");
  // A model is a string or an unsigned integer, and nothing else.
  for (const char* bad : {"true", "null", "-1", "1.5", "1e3", "[]", "{}"}) {
    EXPECT_EQ(errorOf(R"({"op":"run","model":)" + std::string(bad) + "," +
                      runBody + "}"),
              "$.model: expected a model text or an unsigned index")
        << bad;
  }
  const std::string cut = campaignText.substr(0, campaignText.size() - 9);
  std::string parseError = "no error";
  try {
    parseJson(cut);
  } catch (const JsonError& e) {
    parseError = e.what();
  }
  EXPECT_NE(parseError.find("json parse error at line 1, byte "),
            std::string::npos);
  EXPECT_EQ(errorOf(cut), parseError);
}

// The reader and the DOM parser are one grammar: every document parses to
// the same DOM through both, and every malformed one fails with the same
// line/byte error.
TEST(Protocol, ReaderAndParseJsonAgree) {
  const std::vector<std::string> texts = {
      R"({"a":[1,-2,3.5,"x\n\"y",true,null,{}],"b":{"c":[]}})",
      "  [ 1 ,\n 2 ]\n",
      "{\n  \"a\": tru\n}",
      R"({"a":1,})",
      R"([1 2])",
      R"({"a" 1})",
      R"("é\/\t")",
      R"("unterminated)",
      R"(-)",
      R"(1e999)",
      R"(18446744073709551616)",
      R"(-9223372036854775809)",
      std::string(70, '[') + std::string(70, ']'),
  };
  for (const std::string& text : texts) {
    std::string dom;
    std::string streamed;
    try {
      dom = parseJson(text).write();
    } catch (const JsonError& e) {
      dom = e.what();
    }
    try {
      serve::JsonReader r(text);
      Json out = Json::array();
      if (r.peek() == '[') {
        if (r.beginArray()) {
          do {
            out.push(r.value());
          } while (r.nextElement());
        }
      } else {
        out = r.object([](const std::string&) { return false; });
      }
      r.finish();
      streamed = out.write();
    } catch (const JsonError& e) {
      streamed = e.what();
    }
    EXPECT_EQ(streamed, dom) << text;
  }
}

// JSON's string spelling, one byte at a time and independent of the writer
// under test: `"` and `\` and the three whitespace controls take their
// two-byte escapes, every other byte below 0x20 is `\u00` plus two
// lowercase hex digits, and every other byte goes verbatim.
std::string referenceEscaped(const std::string& s) {
  static const char* hex = "0123456789abcdef";
  std::string out = "\"";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (u < 0x20) {
      out += "\\u00";
      out += hex[u >> 4];
      out += hex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every string on the wire, as a value and as an object key, is spelled
// as the reference spells it, and reads back byte for byte.
TEST(Protocol, StringEscapingIsGolden) {
  std::string everyByte;
  for (int b = 0; b < 256; ++b) everyByte.push_back(static_cast<char>(b));
  const std::vector<std::string> inputs = {
      everyByte, "", std::string("unit separator last\x1f"),
      writeModelToString(*buildBenchmarkModel("CSEV"))};
  for (const std::string& s : inputs) {
    const std::string label = "input of " + std::to_string(s.size()) +
                              " byte(s)";
    const std::string value = Json::str(s).write();
    EXPECT_EQ(value, referenceEscaped(s)) << label;
    EXPECT_EQ(parseJson(value).asString("$"), s) << label;

    Json obj = Json::object();
    obj.set(s, Json::u64(1));
    const std::string key = obj.write();
    std::string wantKey = "{";
    wantKey += referenceEscaped(s);
    wantKey += ":1}";
    EXPECT_EQ(key, wantKey) << label;
    const Json back = parseJson(key);
    ASSERT_EQ(back.members("$").size(), 1u) << label;
    EXPECT_EQ(back.members("$")[0].first, s) << label;
  }
}

// A double converts to an integer field only inside the field's range; the
// conversion of one outside it is undefined, so it must be refused first.
TEST(Protocol, OutOfRangeDoublesIntoIntegerFieldsFailTyped) {
  for (const char* literal :
       {"1e300", "-1.5", "18446744073709551616.0", "-9.3e18"}) {
    const Json v = parseJson(literal);
    EXPECT_THROW(v.asU64("$"), JsonError) << literal;
    EXPECT_THROW(v.asI64("$"), JsonError) << literal;
    Json spec = serve::toJson(TestCaseSpec{});
    spec.set("seed", parseJson(literal));
    EXPECT_THROW(serve::specFromJson(spec, "$"), JsonError) << literal;
    Json diag = serve::toJson(DiagRecord{});
    diag.set("actorId", parseJson(literal));
    EXPECT_THROW(serve::diagFromJson(diag, "$"), JsonError) << literal;
  }
  EXPECT_EQ(parseJson("1e19").asU64("$"), UINT64_C(10000000000000000000));
  EXPECT_EQ(parseJson("-9.2e18").asI64("$"), INT64_C(-9200000000000000000));
}

// An int field takes only an int: a wider integer is a JsonError naming
// its path, never a silent narrowing. Errors inside arrays name the
// element.
TEST(Protocol, IntFieldsRejectValuesBeyondIntRange) {
  Json d = serve::toJson(DiagRecord{});
  d.set("actorId", Json::i64(std::numeric_limits<int>::min()));
  EXPECT_EQ(serve::diagFromJson(d, "$").actorId,
            std::numeric_limits<int>::min());
  for (int64_t wide : {int64_t{1} << 40, INT64_C(2147483648),
                       INT64_C(-2147483649)}) {
    d.set("actorId", Json::i64(wide));
    try {
      serve::diagFromJson(d, "$.d");
      FAIL() << "expected JsonError for " << wide;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("$.d.actorId"), std::string::npos)
          << e.what();
    }
  }
  Json rep = serve::toJson(CoverageReport{});
  Json entry = Json::object();
  entry.set("covered", Json::u64(UINT64_C(1) << 33));
  entry.set("total", Json::i64(1));
  rep.set("actor", std::move(entry));
  EXPECT_THROW(serve::reportFromJson(rep, "$"), JsonError);

  SimulationResult r;
  r.diagnostics.resize(3);
  Json j = parseJson(serve::toJson(r).write());
  Json diags = Json::array();
  for (int k = 0; k < 3; ++k) {
    Json dj = serve::toJson(r.diagnostics[static_cast<size_t>(k)]);
    if (k == 2) {
      Json stripped = Json::object();
      for (const auto& [key, v] : dj.members("$")) {
        if (key != "actorPath") stripped.set(key, v);
      }
      dj = std::move(stripped);
    }
    diags.push(std::move(dj));
  }
  j.set("diagnostics", std::move(diags));
  try {
    serve::simResultFromJson(j, "$.result");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "$.result.diagnostics[2]: missing key 'actorPath'"),
              std::string::npos)
        << e.what();
  }
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

  // Requests that name their model by index, as the daemon reads them.
  auto request = [](const Json& j) { serve::requestFromText(j.write()); };
  {
    SCOPED_TRACE("run request by index");
    fuzzDecoder(serve::runRequestText(3, o, spec), 7, request);
  }
  {
    SCOPED_TRACE("campaign request by index");
    fuzzDecoder(serve::campaignRequestText(0, o, {spec, spec}), 8, request);
  }
}

// The decoders that read one element at a time, on mutated payloads: a
// campaign result read row by row ends exactly as its DOM decode does (the
// same result text, or a typed error on both), and a campaign request
// frame as the daemon reads it ends in a request or a typed error.
TEST(Protocol, MutatedPayloadsReadOneElementAtATime) {
  test::Tiny t;
  addGainModel(t);
  SimOptions sse;
  sse.maxSteps = 50;
  CampaignResult cr =
      runCampaign(t.flatten(), sse, TestCaseSpec{}, {1, 2, 3});
  cr.failures.push_back(
      {FailureKind::Crash, 1074, 1, 11, 0, "dlopen", "SIGSEGV in step 17"});
  const std::string result = serve::toJson(cr).write();
  const std::vector<TestCaseSpec> specs = {goldenSpec(), envelopeSecondSpec(),
                                           goldenSpec()};
  const std::string request =
      serve::campaignRequestText("<model/>", envelopeOptions(), specs);

  SplitMix64 rng(6);
  size_t decoded = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const bool isResult = iter % 2 == 0;
    std::string text = isResult ? result : request;
    for (uint64_t k = rng.next() % 3 + 1; k > 0; --k) {
      text = test::mutateOnce(std::move(text), rng);
    }
    if (isResult) {
      std::string dom;
      std::string streamed;
      try {
        dom = serve::toJson(
                  serve::campaignResultFromJson(parseJson(text), "$"))
                  .write();
      } catch (const ModelError&) {
        dom = "typed error";
      }
      try {
        serve::JsonReader r(text);
        const CampaignResult got = serve::campaignResultFromReader(r, "$");
        r.finish();
        streamed = serve::toJson(got).write();
      } catch (const ModelError&) {
        streamed = "typed error";
      }
      EXPECT_EQ(streamed, dom) << "iteration " << iter;
      ++(streamed == "typed error" ? rejected : decoded);
      continue;
    }
    try {
      serve::requestFromText(text);
      ++decoded;
    } catch (const ModelError&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
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
