// The result frame (codegen/result_frame.h) and the one decoder behind
// both execution backends, held to "a typed error or a valid result,
// never a crash or a silent partial result". A real frame from a compiled
// model round-trips to the in-process result; each malformed frame is
// rejected with a ResultParseError (one case per rejection); the binary
// decoder range-checks every record; and a seeded mutation loop over a
// real frame ends every iteration in a ModelError or a decoded result. The
// stimulus frame that carries a run's port table to the runner is held to
// the same: it round-trips bitwise, each malformed frame is rejected with
// a reason, and mutants decode to tables that fit them or are rejected.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>

#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "codegen/model_lib.h"
#include "codegen/result_frame.h"
#include "codegen/results_parser.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

// Byte offsets of the frame header fields (layout in result_frame.h).
constexpr size_t kVersionAt = 4;
constexpr size_t kOutValsLenAt = 8 + 9 * 8;  // last geometry field
constexpr size_t kDiagCountAt = 112;
constexpr size_t kCustomCountAt = 120;

void putU64(std::string& frame, size_t at, uint64_t v) {
  std::memcpy(&frame[at], &v, 8);
}

// One compiled model shared by every test: an I8 gain that wraps, so a
// run fires real diagnostics, plus a monitored signal and a custom
// diagnosis — every record type the frame carries is non-empty.
class ResultFrameTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tiny_ = new Tiny();
    tiny_->inport("In1", 1, DataType::I8);
    Actor& g = tiny_->actor("G", "Gain");
    g.params().setDouble("gain", 5.0);
    g.setDtype(DataType::I8);
    tiny_->outport("Out1", 1);
    tiny_->wire("In1", "G");
    tiny_->wire("G", "Out1");
    fm_ = new FlatModel(tiny_->flatten());

    opt_ = new SimOptions();
    opt_->engine = Engine::AccMoS;
    opt_->maxSteps = 200;
    opt_->optFlag = "-O1";
    opt_->collectList.push_back("T_G");
    CustomDiagnostic cd;
    cd.actorPath = "T_G";
    cd.name = "spike";
    cd.kind = CustomDiagnostic::Kind::Range;
    cd.minValue = -50.0;
    cd.maxValue = 50.0;
    opt_->customDiagnostics.push_back(cd);
    TestCaseSpec stimulus;
    stimulus.defaultPort.min = 0.0;
    stimulus.defaultPort.max = 127.0;

    gen_ = new GeneratedModel(AccMoSEngine::generate(*fm_, *opt_, stimulus));
    CompilerDriver driver;
    CompileOutput out = driver.compile(gen_->source, "frame_model",
                                       opt_->optFlag);
    lib_ = new ModelLib(out.exePath);

    RunBuffers buf(lib_->info());
    const std::vector<AccmosPortStim> ports =
        portTable(stimulus, fm_->rootInports.size());
    AccmosRunArgs args;
    std::memset(&args, 0, sizeof(args));
    args.structSize = static_cast<uint32_t>(sizeof(AccmosRunArgs));
    args.abiVersion = ACCMOS_ABI_VERSION;
    args.maxSteps = opt_->maxSteps;
    args.seed = 7;
    args.ports = ports.data();
    args.numPorts = ports.size();
    EXPECT_EQ(lib_->run(args, buf.res), ACCMOS_ABI_OK);
    frame_ = new std::string(encodeResultFrame(buf));
    direct_ = new SimulationResult(decode(buf.res));
  }

  static void TearDownTestSuite() {
    delete direct_;
    delete frame_;
    delete lib_;
    delete gen_;
    delete opt_;
    delete fm_;
    delete tiny_;
  }

  static SimulationResult decode(const AccmosRunResult& res) {
    return decodeBinaryResults(res, *fm_, &gen_->covPlan,
                               gen_->collectSignals, opt_->customDiagnostics);
  }

  // Reads `frame` into buffers of the host's geometry and decodes it.
  static SimulationResult readAndDecode(const std::string& frame) {
    RunBuffers host(lib_->info());
    readResultFrame(frame, host);
    return decode(host.res);
  }

  // The frame is rejected with a ResultParseError naming `why`.
  static void expectRejected(const std::string& frame, const std::string& why,
                             const AccmosModelInfo* geometry = nullptr) {
    RunBuffers host(geometry != nullptr ? *geometry : lib_->info());
    try {
      readResultFrame(frame, host);
      FAIL() << "expected ResultParseError (" << why << ")";
    } catch (const ResultParseError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }

  static Tiny* tiny_;
  static FlatModel* fm_;
  static SimOptions* opt_;
  static GeneratedModel* gen_;
  static ModelLib* lib_;
  static std::string* frame_;
  static SimulationResult* direct_;
};

Tiny* ResultFrameTest::tiny_ = nullptr;
FlatModel* ResultFrameTest::fm_ = nullptr;
SimOptions* ResultFrameTest::opt_ = nullptr;
GeneratedModel* ResultFrameTest::gen_ = nullptr;
ModelLib* ResultFrameTest::lib_ = nullptr;
std::string* ResultFrameTest::frame_ = nullptr;
SimulationResult* ResultFrameTest::direct_ = nullptr;

TEST_F(ResultFrameTest, RealFrameRoundTripsToTheInProcessResult) {
  ASSERT_FALSE(direct_->diagnostics.empty()) << "the I8 gain should wrap";
  ASSERT_EQ(direct_->collected.size(), 1u);
  EXPECT_GT(direct_->collected[0].count, 0u);
  EXPECT_NE(direct_->findDiag("T_G", DiagKind::Custom), nullptr);

  SimulationResult r = readAndDecode(*frame_);
  EXPECT_EQ(r.stepsExecuted, direct_->stepsExecuted);
  EXPECT_EQ(r.execSeconds, direct_->execSeconds);
  test::expectSameOutputs(*direct_, r, "frame round trip");
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(r.bitmaps.bits(m), direct_->bitmaps.bits(m))
        << covMetricName(m);
  }
  ASSERT_EQ(r.diagnostics.size(), direct_->diagnostics.size());
  for (size_t k = 0; k < r.diagnostics.size(); ++k) {
    EXPECT_EQ(r.diagnostics[k].actorPath, direct_->diagnostics[k].actorPath);
    EXPECT_EQ(r.diagnostics[k].kind, direct_->diagnostics[k].kind);
    EXPECT_EQ(r.diagnostics[k].firstStep, direct_->diagnostics[k].firstStep);
    EXPECT_EQ(r.diagnostics[k].count, direct_->diagnostics[k].count);
  }
  EXPECT_EQ(r.collected[0].last, direct_->collected[0].last);
  EXPECT_EQ(r.collected[0].count, direct_->collected[0].count);
}

TEST_F(ResultFrameTest, RejectsBadMagic) {
  std::string f = *frame_;
  f[0] ^= 0x20;
  expectRejected(f, "bad magic");
}

TEST_F(ResultFrameTest, RejectsAnotherVersion) {
  std::string f = *frame_;
  const uint32_t v3 = 3;
  std::memcpy(&f[kVersionAt], &v3, 4);
  expectRejected(f, "version 3");
}

TEST_F(ResultFrameTest, RejectsATruncatedHeader) {
  expectRejected(frame_->substr(0, 40), "truncated header");
  expectRejected("", "truncated header");
}

TEST_F(ResultFrameTest, RejectsATruncatedPayload) {
  expectRejected(frame_->substr(0, frame_->size() - 1), "truncated");
}

TEST_F(ResultFrameTest, RejectsTrailingBytes) {
  expectRejected(*frame_ + "x", "1 trailing bytes");
}

TEST_F(ResultFrameTest, RejectsAGeometryOtherThanTheHostPlans) {
  // The host expects one more output element than the library reports...
  AccmosModelInfo host = lib_->info();
  host.outValsLen += 1;
  expectRejected(*frame_, "geometry", &host);
  // ...or the frame claims a geometry the host's plans do not imply.
  std::string f = *frame_;
  putU64(f, kOutValsLenAt, lib_->info().outValsLen + 1);
  expectRejected(f, "geometry");
}

TEST_F(ResultFrameTest, RejectsRecordCountsBeyondTheGeometry) {
  const AccmosModelInfo& info = lib_->info();
  std::string f = *frame_;
  putU64(f, kDiagCountAt, info.numActors * info.numDiagKinds + 1);
  expectRejected(f, "exceed");
  f = *frame_;
  putU64(f, kCustomCountAt, info.numCustom + 1);
  expectRejected(f, "exceed");
}

// decodeBinaryResults range-checks what an in-process library (or an
// accepted frame) hands it.
TEST_F(ResultFrameTest, DecoderRangeChecksEveryRecord) {
  auto expectDecodeFails = [](const std::string& why, auto&& mutate) {
    RunBuffers host(lib_->info());
    readResultFrame(*frame_, host);
    ASSERT_GT(host.res.diagCount, 0u);
    ASSERT_GT(host.res.customCount, 0u);
    mutate(host);
    try {
      decode(host.res);
      FAIL() << "expected ResultParseError (" << why << ")";
    } catch (const ResultParseError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  expectDecodeFails("bad kind", [](RunBuffers& b) {
    b.diags[0].kind = kNumDiagKinds;
  });
  expectDecodeFails("bad kind", [](RunBuffers& b) { b.diags[0].kind = -1; });
  expectDecodeFails("bad actor id", [](RunBuffers& b) {
    b.diags[0].actorId = 9999;
  });
  expectDecodeFails("custom diagnostic index", [](RunBuffers& b) {
    b.customs[0].index = 5;
  });
  expectDecodeFails("exceed", [](RunBuffers& b) {
    b.res.diagCount = b.res.diagCap + 1;
  });
  expectDecodeFails("exceed", [](RunBuffers& b) {
    b.res.customCount = b.res.customCap + 1;
  });
  expectDecodeFails("coverage bitmap size mismatch", [](RunBuffers& b) {
    b.res.covLen[0] += 1;
  });
}

TEST_F(ResultFrameTest, RejectionsAreModelErrors) {
  RunBuffers host(lib_->info());
  EXPECT_THROW(readResultFrame("", host), ModelError);
}

// Seeded mutations of a real frame: bit flips, truncations, extensions and
// edits of the header's length fields. Every iteration must end in a typed
// ModelError or a decoded result; the sanitizer CI jobs run this too.
TEST_F(ResultFrameTest, MutatedFramesFailTypedOrDecode) {
  std::mt19937_64 rng(20240611);
  auto below = [&rng](uint64_t n) { return rng() % n; };
  size_t decoded = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string f = *frame_;
    switch (below(4)) {
      case 0:  // 1-4 bit flips anywhere
        for (uint64_t k = below(4) + 1; k > 0; --k) {
          f[below(f.size())] ^= static_cast<char>(1u << below(8));
        }
        break;
      case 1:  // truncation
        f.resize(below(f.size()));
        break;
      case 2:  // extension with junk
        for (uint64_t k = below(32) + 1; k > 0; --k) {
          f.push_back(static_cast<char>(below(256)));
        }
        break;
      default: {  // a length field: a geometry entry or a record count
        const size_t field = below(12);
        const size_t at = field < 10 ? 8 + field * 8
                                     : (field == 10 ? kDiagCountAt
                                                    : kCustomCountAt);
        uint64_t v;
        std::memcpy(&v, &f[at], 8);
        const uint64_t edits[] = {v + 1, v - 1, 0, ~uint64_t{0},
                                  uint64_t{1} << 62, rng()};
        putU64(f, at, edits[below(6)]);
        break;
      }
    }
    try {
      SimulationResult r = readAndDecode(f);
      EXPECT_LE(r.diagnostics.size(),
                lib_->info().numActors * lib_->info().numDiagKinds +
                    lib_->info().numCustom);
      ++decoded;
    } catch (const ModelError&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---- The stimulus frame ---------------------------------------------------

// A port table with a range port, sequence ports and a -0.0 bound: every
// kind of record the stimulus frame carries.
class StimulusFrameTest : public ::testing::Test {
 protected:
  std::string frame() const {
    return encodeStimulusFrame(ports_.data(), ports_.size());
  }

  // `t` fits a frame of `frameSize` bytes: the frame is exactly as long as
  // the table declares, and every sequence lies inside the decoded values.
  static void expectFits(const StimulusTable& t, size_t frameSize,
                         const std::string& label) {
    uint64_t values = 0;
    for (const AccmosPortStim& p : t.ports) {
      values += p.seqLen;
      if (p.seqLen == 0) {
        EXPECT_EQ(p.seq, nullptr) << label;
        continue;
      }
      ASSERT_NE(p.seq, nullptr) << label;
      EXPECT_GE(p.seq, t.values.data()) << label;
      EXPECT_LE(p.seq + p.seqLen, t.values.data() + t.values.size())
          << label;
    }
    EXPECT_EQ(values, t.values.size()) << label;
    EXPECT_EQ(16 + 24 * t.ports.size() + 8 * values, frameSize) << label;
  }

  // `f` is rejected with a reason naming `why`, leaving `out` empty.
  static void expectRejected(const std::string& f, const std::string& why) {
    StimulusTable out;
    const std::string got = decodeStimulusFrame(f, out);
    EXPECT_NE(got.find(why), std::string::npos)
        << "expected '" << why << "', got '" << got << "'";
    EXPECT_TRUE(out.ports.empty());
  }

  std::vector<double> a_ = {0.5, -0.0, 1e300};
  std::vector<double> b_ = {7.0};
  std::vector<AccmosPortStim> ports_ = {
      {-1.0, 2.5, nullptr, 0},
      {0.0, 1.0, a_.data(), a_.size()},
      {-0.0, 1.0, nullptr, 0},
      {0.0, 1.0, b_.data(), b_.size()}};
};

TEST_F(StimulusFrameTest, RoundTripsBitwise) {
  const std::string f = frame();
  StimulusTable t;
  ASSERT_EQ(decodeStimulusFrame(f, t), "");
  expectFits(t, f.size(), "round trip");
  ASSERT_EQ(t.ports.size(), ports_.size());
  for (size_t k = 0; k < ports_.size(); ++k) {
    EXPECT_EQ(std::memcmp(&t.ports[k].min, &ports_[k].min, 8), 0) << k;
    EXPECT_EQ(std::memcmp(&t.ports[k].max, &ports_[k].max, 8), 0) << k;
    ASSERT_EQ(t.ports[k].seqLen, ports_[k].seqLen) << k;
    if (ports_[k].seqLen > 0) {
      EXPECT_EQ(std::memcmp(t.ports[k].seq, ports_[k].seq,
                            ports_[k].seqLen * 8),
                0)
          << k;
    }
  }
  StimulusTable none;
  ASSERT_EQ(decodeStimulusFrame(encodeStimulusFrame(nullptr, 0), none), "");
  EXPECT_TRUE(none.ports.empty());
}

TEST_F(StimulusFrameTest, RejectsMalformedFrames) {
  const std::string f = frame();
  std::string bad = f;
  bad[0] ^= 0x20;
  expectRejected(bad, "bad magic");
  bad = f;
  const uint32_t v5 = 5;
  std::memcpy(&bad[4], &v5, 4);
  expectRejected(bad, "version 5");
  expectRejected(f.substr(0, 15), "truncated header");
  expectRejected(f.substr(0, 16 + 24 * 3), "truncated");
  expectRejected(f.substr(0, f.size() - 8), "overruns the frame");
  expectRejected(f + "x", "1 trailing bytes");
  // A sequence length near 2^64 must not wrap the frame-size arithmetic.
  bad = f;
  putU64(bad, 16 + 24 + 16, ~uint64_t{0});
  expectRejected(bad, "overruns the frame");
  bad = f;
  putU64(bad, 8, uint64_t{1} << 60);
  expectRejected(bad, "truncated");
}

// Seeded mutations of a real stimulus frame, on the pattern of the CSV and
// model-file fuzzers, plus edits of its length fields. Every mutant must
// decode to a table that fits it or be rejected with a reason; the
// sanitizer CI jobs run this too, so a read past the frame fails there.
TEST_F(StimulusFrameTest, MutatedFramesDecodeToFittingTablesOrFailWithAReason) {
  const std::string f = frame();
  SplitMix64 rng(22);
  size_t decoded = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string mutant = f;
    for (uint64_t k = rng.next() % 3 + 1; k > 0; --k) {
      mutant = test::mutateOnce(std::move(mutant), rng);
    }
    if (rng.next() % 4 == 0 && mutant.size() >= 16) {
      // The port count or a sequence length, when the mutant still has it.
      const size_t port = rng.next() % ports_.size();
      const size_t at = rng.next() % 2 == 0 ? 8 : 16 + 24 * port + 16;
      if (at + 8 <= mutant.size()) {
        const uint64_t edits[] = {1, 3, 1000, ~uint64_t{0},
                                  uint64_t{1} << 61, rng.next()};
        putU64(mutant, at, edits[rng.next() % 6]);
      }
    }
    StimulusTable t;
    const std::string why = decodeStimulusFrame(mutant, t);
    const std::string label = "iteration " + std::to_string(iter);
    if (why.empty()) {
      expectFits(t, mutant.size(), label);
      ++decoded;
    } else {
      EXPECT_TRUE(t.ports.empty()) << label;
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace accmos
