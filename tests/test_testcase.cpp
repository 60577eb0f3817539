// Unit tests for test-case import: seeded random streams, explicit
// sequences, CSV loading, and cross-run determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "sim/testcase.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

FlatModel twoPortModel(std::unique_ptr<Tiny>& keep) {
  keep = std::make_unique<Tiny>();
  keep->inport("In1", 1);
  Actor& i2 = keep->inport("In2", 2, DataType::I16);
  i2.setWidth(2);
  keep->actor("T1", "Terminator");
  keep->actor("T2", "Terminator");
  keep->wire("In1", "T1");
  keep->wire("In2", "T2");
  return keep->flatten();
}

TEST(Stimulus, DeterministicAcrossStreams) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = twoPortModel(keep);
  TestCaseSpec spec;
  spec.seed = 99;
  StimulusStream a(spec, fm);
  StimulusStream b(spec, fm);
  std::vector<Value> s1;
  std::vector<Value> s2;
  for (const auto& sig : fm.signals) {
    s1.emplace_back(sig.type, sig.width);
    s2.emplace_back(sig.type, sig.width);
  }
  for (uint64_t step = 0; step < 200; ++step) {
    a.fill(step, s1);
    b.fill(step, s2);
    for (size_t k = 0; k < s1.size(); ++k) EXPECT_EQ(s1[k], s2[k]);
  }
}

TEST(Stimulus, PortRangesRespected) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = twoPortModel(keep);
  TestCaseSpec spec;
  spec.ports = {PortStimulus{-2.0, 3.0, {}}, PortStimulus{0.0, 100.0, {}}};
  StimulusStream s(spec, fm);
  std::vector<Value> sig;
  for (const auto& si : fm.signals) sig.emplace_back(si.type, si.width);
  int in1 = fm.actor(fm.rootInports[0]).outputs[0];
  int in2 = fm.actor(fm.rootInports[1]).outputs[0];
  for (uint64_t step = 0; step < 500; ++step) {
    s.fill(step, sig);
    double v = sig[static_cast<size_t>(in1)].f(0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
    for (int i = 0; i < 2; ++i) {
      int64_t w = sig[static_cast<size_t>(in2)].i(i);
      EXPECT_GE(w, 0);
      EXPECT_LE(w, 100);
    }
  }
}

TEST(Stimulus, SequencesCycle) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = twoPortModel(keep);
  TestCaseSpec spec;
  PortStimulus seq;
  seq.sequence = {1.0, 2.0, 3.0};
  spec.ports = {seq};  // port 2 falls back to defaultPort
  StimulusStream s(spec, fm);
  std::vector<Value> sig;
  for (const auto& si : fm.signals) sig.emplace_back(si.type, si.width);
  int in1 = fm.actor(fm.rootInports[0]).outputs[0];
  for (uint64_t step = 0; step < 9; ++step) {
    s.fill(step, sig);
    EXPECT_EQ(sig[static_cast<size_t>(in1)].f(0),
              static_cast<double>(step % 3 + 1));
  }
}

TEST(Stimulus, VectorPortsDrawPerElement) {
  std::unique_ptr<Tiny> keep;
  FlatModel fm = twoPortModel(keep);
  TestCaseSpec spec;
  spec.ports = {PortStimulus{}, PortStimulus{0.0, 1000.0, {}}};
  StimulusStream s(spec, fm);
  std::vector<Value> sig;
  for (const auto& si : fm.signals) sig.emplace_back(si.type, si.width);
  s.fill(0, sig);
  int in2 = fm.actor(fm.rootInports[1]).outputs[0];
  // The two elements come from the same stream but differ.
  EXPECT_NE(sig[static_cast<size_t>(in2)].i(0),
            sig[static_cast<size_t>(in2)].i(1));
}

TEST(Csv, LoadsColumnsAsSequences) {
  std::string path = testing::TempDir() + "accmos_tc.csv";
  {
    std::ofstream f(path);
    f << "# comment line\n";
    f << "1.5,10\n";
    f << "2.5,20\n";
    f << "-3,30\n";
  }
  TestCaseSpec spec = TestCaseSpec::fromCsv(path);
  ASSERT_EQ(spec.ports.size(), 2u);
  ASSERT_EQ(spec.ports[0].sequence.size(), 3u);
  EXPECT_EQ(spec.ports[0].sequence[1], 2.5);
  EXPECT_EQ(spec.ports[1].sequence[2], 30.0);
}

TEST(Csv, RejectsMissingAndRaggedFiles) {
  EXPECT_THROW(TestCaseSpec::fromCsv("/nonexistent.csv"), ModelError);
  std::string path = testing::TempDir() + "accmos_ragged.csv";
  {
    std::ofstream f(path);
    f << "1,2\n3\n";
  }
  EXPECT_THROW(TestCaseSpec::fromCsv(path), ModelError);
  std::string empty = testing::TempDir() + "accmos_empty.csv";
  {
    std::ofstream f(empty);
    f << "# nothing\n";
  }
  EXPECT_THROW(TestCaseSpec::fromCsv(empty), ModelError);
}

// A cell must be one number, apart from surrounding whitespace; the error
// names the cell's line and column.
TEST(Csv, RejectsCellsThatAreNotNumbers) {
  const std::string path = testing::TempDir() + "accmos_cells.csv";
  for (const char* cell : {"abc", "2x", "", " ", "1 2", "--1"}) {
    {
      std::ofstream f(path);
      f << "# header\n1,2\n" << cell << ",3\n";
    }
    try {
      TestCaseSpec::fromCsv(path);
      ADD_FAILURE() << "accepted the cell '" << cell << "'";
    } catch (const ModelError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3 column 1"), std::string::npos) << what;
    }
  }
  {
    std::ofstream f(path);
    f << " 1.5 ,\t-2e3\r\n0x10, 7 \n";
  }
  const TestCaseSpec spec = TestCaseSpec::fromCsv(path);
  ASSERT_EQ(spec.ports.size(), 2u);
  EXPECT_EQ(spec.ports[0].sequence, (std::vector<double>{1.5, 16.0}));
  EXPECT_EQ(spec.ports[1].sequence, (std::vector<double>{-2000.0, 7.0}));
}

// Seeded mutation fuzzing of the CSV reader: a valid three-column file,
// mutated by a fixed SplitMix64 stream (test::mutateOnce, 1-3 mutations
// each). Every mutant must load as a valid spec or fail as a ModelError —
// never another exception, a crash or a hang.
TEST(Csv, MutatedFilesLoadOrFailTyped) {
  const std::string text =
      "# accmos test case: 3 port(s) x 4 step(s)\n"
      "1.5,-2,0.30000000000000004\n"
      "2.5,1e-17,42\n"
      "-3,7,-0\n"
      "0.125,-128,127\n";
  const std::string path = testing::TempDir() + "accmos_mutant.csv";
  SplitMix64 rng(21);
  size_t valid = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutant = text;
    for (uint64_t k = rng.next() % 3 + 1; k > 0; --k) {
      mutant = test::mutateOnce(std::move(mutant), rng);
    }
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f << mutant;
    }
    try {
      const TestCaseSpec spec = TestCaseSpec::fromCsv(path);
      spec.validate();
      ASSERT_FALSE(spec.ports.empty()) << "iteration " << iter;
      for (const PortStimulus& p : spec.ports) {
        EXPECT_EQ(p.sequence.size(), spec.ports[0].sequence.size())
            << "iteration " << iter;
      }
      ++valid;
    } catch (const ModelError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << " escaped as an untyped "
                    << "exception: " << e.what();
    }
  }
  EXPECT_GT(valid, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Validation, RejectsMalformedStimulus) {
  TestCaseSpec spec;
  spec.ports = {PortStimulus{2.0, 1.0, {}}};  // min > max
  EXPECT_THROW(spec.validate(), ModelError);
  spec.ports = {PortStimulus{0.0, std::nan(""), {}}};
  EXPECT_THROW(spec.validate(), ModelError);
  spec.ports = {PortStimulus{-INFINITY, 1.0, {}}};
  EXPECT_THROW(spec.validate(), ModelError);
  spec.ports = {PortStimulus{0.0, 0.0, {1.0, INFINITY}}};
  EXPECT_THROW(spec.validate(), ModelError);
  spec.ports = {PortStimulus{0.0, 1.0, {}}};
  spec.defaultPort = PortStimulus{5.0, -5.0, {}};
  EXPECT_THROW(spec.validate(), ModelError);
  spec.defaultPort = PortStimulus{};
  spec.validate();  // back to well-formed

  // The stream constructor (every engine's entry point) enforces the same.
  std::unique_ptr<Tiny> keep;
  FlatModel fm = twoPortModel(keep);
  TestCaseSpec bad;
  bad.ports = {PortStimulus{2.0, 1.0, {}}};
  EXPECT_THROW(StimulusStream(bad, fm), ModelError);
}

TEST(Csv, ExportRoundTripsExactly) {
  TestCaseSpec spec;
  spec.ports.resize(2);
  spec.ports[0].sequence = {1.0 / 3.0, -2.5, 0.30000000000000004};
  spec.ports[1].sequence = {1e-17, 42.0, -0.0};
  std::string path = testing::TempDir() + "accmos_roundtrip.csv";
  spec.toCsv(path);
  TestCaseSpec back = TestCaseSpec::fromCsv(path);
  ASSERT_EQ(back.ports.size(), 2u);
  for (size_t p = 0; p < 2; ++p) {
    ASSERT_EQ(back.ports[p].sequence.size(), spec.ports[p].sequence.size());
    for (size_t k = 0; k < spec.ports[p].sequence.size(); ++k) {
      // Bit-exact, not approximately equal.
      EXPECT_EQ(back.ports[p].sequence[k], spec.ports[p].sequence[k])
          << "port " << p << " step " << k;
    }
  }
}

TEST(Csv, ExportRejectsNonSequenceSpecs) {
  std::string path = testing::TempDir() + "accmos_reject.csv";
  TestCaseSpec noPorts;
  EXPECT_THROW(noPorts.toCsv(path), ModelError);
  TestCaseSpec seeded;
  seeded.ports = {PortStimulus{0.0, 1.0, {}}};  // range, not a sequence
  EXPECT_THROW(seeded.toCsv(path), ModelError);
  TestCaseSpec ragged;
  ragged.ports.resize(2);
  ragged.ports[0].sequence = {1.0, 2.0};
  ragged.ports[1].sequence = {1.0};
  EXPECT_THROW(ragged.toCsv(path), ModelError);
}

TEST(Csv, RaggedErrorNamesTheLine) {
  std::string path = testing::TempDir() + "accmos_ragged_line.csv";
  {
    std::ofstream f(path);
    f << "# header\n";
    f << "1,2\n";
    f << "3\n";
  }
  try {
    TestCaseSpec::fromCsv(path);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, DrivesSimulationIdenticallyOnAllEngines) {
  std::string path = testing::TempDir() + "accmos_drive.csv";
  {
    std::ofstream f(path);
    for (int k = 0; k < 16; ++k) f << (k * 0.25 - 2.0) << "\n";
  }
  Tiny t;
  t.inport("In1", 1);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 2.0);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  TestCaseSpec spec = TestCaseSpec::fromCsv(path);
  auto sse = test::runOn(t.model(), Engine::SSE, 40, spec);
  auto rac = test::runOn(t.model(), Engine::SSErac, 40, spec);
  auto acc = test::runOn(t.model(), Engine::AccMoS, 40, spec);
  test::expectSameOutputs(sse, rac, "csv rac");
  test::expectSameOutputs(sse, acc, "csv accmos");
  // Cycled: step 39 -> element 39 % 16 = 7 -> value -0.25, gained: -0.5.
  EXPECT_EQ(sse.finalOutputs[0].f(0), 2.0 * (7 * 0.25 - 2.0));
}

}  // namespace
}  // namespace accmos
