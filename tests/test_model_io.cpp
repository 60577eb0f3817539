// Unit tests for the model file format (reader/writer) and the IR basics.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "bench_models/suite.h"
#include "parser/model_io.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "xml/xml.h"

namespace accmos {
namespace {

TEST(ParamMap, TypedAccessors) {
  ParamMap p;
  p.set("s", "hello");
  p.setDouble("d", 2.5);
  p.setInt("i", -42);
  p.set("b", "true");
  p.set("list", "1,2.5,-3");
  EXPECT_EQ(p.getString("s"), "hello");
  EXPECT_EQ(p.getDouble("d"), 2.5);
  EXPECT_EQ(p.getInt("i"), -42);
  EXPECT_TRUE(p.getBool("b"));
  EXPECT_FALSE(p.getBool("missing"));
  EXPECT_TRUE(p.getBool("missing", true));
  auto list = p.getDoubleList("list");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1], 2.5);
  EXPECT_EQ(p.getString("missing", "def"), "def");
  // getInt takes only a whole decimal integer that fits int64_t.
  for (const char* bad : {"2junk", "", " 2", "1.5", "-", "0x10",
                          "9223372036854775808"}) {
    p.set("n", bad);
    EXPECT_THROW(p.getInt("n"), ModelError) << "'" << bad << "'";
  }
  p.set("n", "-9223372036854775808");
  EXPECT_EQ(p.getInt("n"), INT64_MIN);
}

TEST(ModelIr, DuplicateActorRejected) {
  Model m("M");
  m.root().addActor("A", "Gain");
  EXPECT_THROW(m.root().addActor("A", "Sum"), ModelError);
}

TEST(ModelIr, CountsIncludeNestedSubsystems) {
  Model m("M");
  Actor& sub = m.root().addActor("S", "Subsystem");
  System& inner = sub.makeSubsystem();
  inner.addActor("G", "Gain");
  Actor& sub2 = inner.addActor("S2", "Subsystem");
  sub2.makeSubsystem().addActor("H", "Gain");
  EXPECT_EQ(m.countActors(), 4);      // S, G, S2, H
  EXPECT_EQ(m.countSubsystems(), 2);  // S, S2
}

TEST(ModelIo, RoundTripPreservesStructureAndParams) {
  test::Tiny t("RT");
  t.inport("In1", 1, DataType::I16).setWidth(3);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", -0.125);
  g.setWidth(3);
  g.setDtype(DataType::I16);
  Actor& sub = t.actor("S", "Subsystem");
  System& inner = sub.makeSubsystem();
  Actor& ip = inner.addActor("In1", "Inport");
  ip.params().setInt("port", 1);
  ip.setDtype(DataType::I16);
  ip.setWidth(3);
  Actor& abs = inner.addActor("A", "Abs");
  abs.setDtype(DataType::I16);
  abs.setWidth(3);
  inner.connect("In1", 1, "A", 1);
  Actor& op = inner.addActor("Out1", "Outport");
  op.params().setInt("port", 1);
  inner.connect("A", 1, "Out1", 1);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "S");
  t.wire("S", "Out1");

  std::string xml = writeModelToString(t.model());
  auto back = readModelFromString(xml);
  EXPECT_EQ(back->name(), "RT");
  EXPECT_EQ(back->countActors(), t.model().countActors());
  EXPECT_EQ(back->countSubsystems(), 1);
  EXPECT_EQ(writeModelToString(*back), xml);  // stable serialization

  // And it still simulates identically.
  TestCaseSpec tests;
  tests.defaultPort.min = -50;
  tests.defaultPort.max = 50;
  auto a = test::runOn(t.model(), Engine::SSE, 100, tests);
  auto b = test::runOn(*back, Engine::SSE, 100, tests);
  test::expectSameOutputs(a, b, "model-io round trip");
}

TEST(ModelIo, BenchmarkSuiteRoundTrips) {
  for (const auto& info : benchmarkSuite()) {
    auto model = buildBenchmarkModel(info.name);
    auto back = readModelFromString(writeModelToString(*model));
    EXPECT_EQ(back->countActors(), info.actors) << info.name;
    EXPECT_EQ(back->countSubsystems(), info.subsystems) << info.name;
    // Flattens identically (schedule sizes match).
    Simulator s1(*model);
    Simulator s2(*back);
    EXPECT_EQ(s1.flatModel().schedule, s2.flatModel().schedule) << info.name;
  }
}

TEST(ModelIo, RejectsMalformedDocuments) {
  EXPECT_THROW(readModelFromString("<notmodel/>"), ModelError);
  EXPECT_THROW(readModelFromString("<model/>"), ModelError);  // no name
  EXPECT_THROW(readModelFromString("<model name='m'/>"), ModelError);  // no system
  EXPECT_THROW(readModelFromString(
                   "<model name='m'><system name='root'>"
                   "<actor name='A'/></system></model>"),
               ModelError);  // actor without type
  EXPECT_THROW(readModelFromString(
                   "<model name='m'><system name='root'>"
                   "<actor name='A' type='Gain'><param value='x'/></actor>"
                   "</system></model>"),
               ModelError);  // param without name
  EXPECT_THROW(readModelFromString(
                   "<model name='m'><system name='root'>"
                   "<line to='B'/></system></model>"),
               ModelError);  // line without from
}

TEST(ModelIo, EmbeddedStimulusRoundTrip) {
  test::Tiny t("S");
  t.inport("In1", 1);
  t.inport("In2", 2);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 2.0);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  t.wire("In2", t.actor("T1", "Terminator").name());

  TestCaseSpec spec;
  spec.seed = 77;
  PortStimulus range{-3.0, 9.0, {}};
  PortStimulus seq;
  seq.sequence = {1.0, 2.5, -4.0};
  spec.ports = {range, seq};

  std::string xml = writeModelToString(t.model(), &spec);
  EXPECT_NE(xml.find("<stimulus"), std::string::npos);
  LoadedModel loaded = loadModelFromString(xml);
  ASSERT_TRUE(loaded.stimulus.has_value());
  EXPECT_EQ(loaded.stimulus->seed, 77u);
  ASSERT_EQ(loaded.stimulus->ports.size(), 2u);
  EXPECT_EQ(loaded.stimulus->ports[0].min, -3.0);
  EXPECT_EQ(loaded.stimulus->ports[0].max, 9.0);
  EXPECT_EQ(loaded.stimulus->ports[1].sequence, seq.sequence);

  // Identical simulation from the embedded spec.
  auto a = test::runOn(t.model(), Engine::SSE, 100, spec);
  auto b = test::runOn(*loaded.model, Engine::SSE, 100, *loaded.stimulus);
  test::expectSameOutputs(a, b, "embedded stimulus");

  // Files without a stimulus load with nullopt.
  LoadedModel plain = loadModelFromString(writeModelToString(t.model()));
  EXPECT_FALSE(plain.stimulus.has_value());
}

TEST(ModelIo, FileRoundTrip) {
  auto model = buildBenchmarkModel("SPV");
  std::string path = testing::TempDir() + "accmos_spv.xml";
  writeModelToFile(*model, path);
  auto back = readModelFromFile(path);
  EXPECT_EQ(back->countActors(), model->countActors());
  EXPECT_THROW(readModelFromFile("/nonexistent/x.xml"), ModelError);
}

std::string readModelText(const std::string& name) {
  std::ifstream in(std::string(ACCMOS_MODELS_DIR) + "/" + name);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// An integer parameter that does not fit its use fails as a ModelError
// naming the actor and the parameter. None of these may wrap to a
// plausible port count, lose its trailing junk, or reach a vector size.
TEST(ModelIo, OutOfRangeIntegerParametersAreModelErrors) {
  const std::string text = readModelText("FMTM.xml");
  const std::string param = "<param name=\"inputs\" value=\"2\"/>";
  const size_t at = text.find(param);
  ASSERT_NE(at, std::string::npos);
  for (const char* value : {"4294967298", "2junk", "-1"}) {
    std::string bad = text;
    bad.replace(at, param.size(),
                "<param name=\"inputs\" value=\"" + std::string(value) +
                    "\"/>");
    LoadedModel loaded = loadModelFromString(bad);
    try {
      Simulator sim(*loaded.model);
      ADD_FAILURE() << "inputs=" << value << " was accepted";
    } catch (const ModelError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("actor 'And4'"), std::string::npos) << what;
      EXPECT_NE(what.find("'inputs'"), std::string::npos) << what;
    }
  }
}

// Seeded mutation fuzzing of the model reader: a benchmark model's XML,
// mutated by a fixed SplitMix64 stream (test::mutateOnce, 1-3 mutations
// each), goes through the loader, flatten and validation. Every mutant
// must end as a ModelError, an xml::ParseError or a valid model — never
// another exception, a crash or a hang. The sanitizer CI jobs run it too.
TEST(ModelIo, MutatedModelFilesLoadOrFailTyped) {
  const std::string text = readModelText("SPV.xml");
  ASSERT_FALSE(text.empty());
  SplitMix64 rng(2024);
  size_t valid = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutant = text;
    for (uint64_t k = rng.next() % 3 + 1; k > 0; --k) {
      mutant = test::mutateOnce(std::move(mutant), rng);
    }
    try {
      LoadedModel loaded = loadModelFromString(mutant);
      FlatModel fm = flatten(*loaded.model, Registry::instance());
      validateFlatModel(fm);
      ++valid;
    } catch (const ModelError&) {
      ++rejected;
    } catch (const xml::ParseError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << " escaped as an untyped "
                    << "exception: " << e.what();
    }
  }
  EXPECT_GT(valid, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace accmos
