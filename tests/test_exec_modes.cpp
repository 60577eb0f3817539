// The AccMoS execution paths (docs/EXECUTION.md) held to one contract:
// an in-process run of the loaded library and a run of the same library
// on the containment rung (the accmos-run-lib child, forced here with
// ACCMOS_FAULT=dlopen-fail) must produce bit-identical SimulationResults —
// outputs, coverage bitmaps, diagnostics, monitors — for single runs,
// campaigns at any worker count, and heterogeneous generator-style spec
// batches. Plus the plumbing itself: one compiled artifact serves both (a
// dlopen failure never compiles the model again), execMode reports what
// actually ran, the runner receives the run's budgets exactly, its own
// failures (a bad stimulus file among them) are typed, and ModelLib
// rejects unloadable files.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_models/sample_overflow.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "codegen/model_lib.h"
#include "codegen/runtime_preamble.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

namespace fs = std::filesystem;
using test::EnvGuard;
using test::expectIdenticalResults;
using test::Tiny;

SimOptions accOptions(uint64_t steps = 300) {
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = steps;
  opt.optFlag = "-O1";  // cheap compiles; both rungs behave the same
  return opt;
}

// Calls fn() with the in-process library load forced to fail, so every
// engine it builds runs on the accmos-run-lib rung.
template <typename Fn>
auto onProcessRung(Fn fn) {
  EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
  return fn();
}

// A private, empty compile cache for the enclosing scope: a test can count
// compiler invocations and cache entries from a cold start.
class ScopedCache {
 public:
  ScopedCache()
      : dir_(fs::temp_directory_path() /
             ("accmos_exec_cache_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++))),
        env_("ACCMOS_CACHE_DIR", dir_.c_str()) {}
  ~ScopedCache() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  size_t entries() const {
    size_t n = 0;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir_, ec)) {
      n += e.path().extension() == ".bin" ? 1 : 0;
    }
    return n;
  }

 private:
  static int counter_;
  fs::path dir_;
  EnvGuard env_;
};

int ScopedCache::counter_ = 0;

// The Sample model ships overflow-triggering stimulus: a run produces real
// diagnostics, so the differential covers the diagnostic records too.
TEST(ExecModes, SingleRunsAgreeOnTheSampleModel) {
  auto model = sampleOverflowModel();
  TestCaseSpec tests = sampleOverflowStimulus();
  tests.ports[0].max = 1e6;  // scale up so the overflow fires in-budget
  tests.ports[1].max = 1e6;

  const SimOptions opt = accOptions(10000);
  SimulationResult dl = simulate(*model, opt, tests);
  SimulationResult pr =
      onProcessRung([&] { return simulate(*model, opt, tests); });

  EXPECT_EQ(dl.execMode, "dlopen");
  EXPECT_EQ(pr.execMode, "process");
  EXPECT_GT(dl.loadSeconds, 0.0);
  EXPECT_EQ(pr.loadSeconds, 0.0);
  EXPECT_FALSE(dl.diagnostics.empty()) << "Sample model should overflow";
  expectIdenticalResults(dl, pr, "sample model");
}

// Signal monitors and compiled custom diagnostics cross the binary ABI
// through dedicated records; both rungs must agree on them exactly.
TEST(ExecModes, MonitorsAndCustomDiagnosticsAgree) {
  Tiny t;
  t.inport("In1", 1);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 2.0);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");

  CustomDiagnostic cd;
  cd.actorPath = "T_G";  // flat path: model name + actor name
  cd.name = "spike";
  cd.kind = CustomDiagnostic::Kind::Range;
  cd.minValue = -0.5;
  cd.maxValue = 0.5;  // default stimulus is [0,1) * gain 2 -> fires often

  auto run = [&] {
    SimOptions opt = accOptions();
    opt.collectList.push_back("T_G");
    opt.customDiagnostics.push_back(cd);
    TestCaseSpec tests;
    tests.seed = 42;
    return simulate(t.model(), opt, tests);
  };
  SimulationResult dl = run();
  SimulationResult pr = onProcessRung(run);

  EXPECT_EQ(dl.execMode, "dlopen");
  EXPECT_EQ(pr.execMode, "process");
  ASSERT_EQ(dl.collected.size(), 1u);
  EXPECT_GT(dl.collected[0].count, 0u);
  EXPECT_NE(dl.findDiag("T_G", DiagKind::Custom), nullptr);
  expectIdenticalResults(dl, pr, "monitors+custom");
}

// Campaigns fan concurrent runs over one engine: in-process that is many
// threads calling accmos_run() into one loaded library. The merged outcome
// must be identical on both rungs and for every worker count.
TEST(ExecModes, CampaignsAgreeAcrossBackendsAndWorkerCounts) {
  auto model = sampleOverflowModel();
  TestCaseSpec base = sampleOverflowStimulus();
  Simulator sim(*model);
  std::vector<uint64_t> seeds = {1000, 1037, 1074, 1111, 1148, 1185};
  auto campaign = [&](size_t workers) {
    SimOptions opt = accOptions(200);
    opt.campaign.workers = workers;
    return runCampaign(sim.flatModel(), opt, base, seeds);
  };

  const CampaignResult ref = campaign(1);  // in-process, 1 worker
  EXPECT_GT(ref.loadSeconds, 0.0);
  for (const std::string rung : {"dlopen", "process"}) {
    for (size_t workers : {1u, 2u, 4u}) {
      if (rung == "dlopen" && workers == 1) continue;  // the reference
      CampaignResult cr =
          rung == "dlopen"
              ? campaign(workers)
              : onProcessRung([&] { return campaign(workers); });
      std::string label = rung + "/w" + std::to_string(workers);
      EXPECT_EQ(cr.cumulative.toString(), ref.cumulative.toString()) << label;
      ASSERT_EQ(cr.perSeed.size(), ref.perSeed.size()) << label;
      for (size_t k = 0; k < cr.perSeed.size(); ++k) {
        EXPECT_EQ(cr.perSeed[k].execMode, rung) << label;
        EXPECT_EQ(cr.perSeed[k].coverage.toString(),
                  ref.perSeed[k].coverage.toString())
            << label << " seed " << cr.perSeed[k].seed;
        EXPECT_EQ(cr.perSeed[k].cumulative.toString(),
                  ref.perSeed[k].cumulative.toString())
            << label << " seed " << cr.perSeed[k].seed;
      }
      ASSERT_EQ(cr.diagnostics.size(), ref.diagnostics.size()) << label;
      for (size_t k = 0; k < cr.diagnostics.size(); ++k) {
        EXPECT_EQ(cr.diagnostics[k].actorPath, ref.diagnostics[k].actorPath);
        EXPECT_EQ(cr.diagnostics[k].firstStep, ref.diagnostics[k].firstStep);
        EXPECT_EQ(cr.diagnostics[k].count, ref.diagnostics[k].count);
      }
      for (CovMetric m : kAllCovMetrics) {
        EXPECT_EQ(cr.mergedBitmaps.bits(m), ref.mergedBitmaps.bits(m))
            << label << " merged bitmap " << covMetricName(m);
      }
    }
  }
}

// The generator's workload: a heterogeneous spec batch of seeds, ranges
// and sequences, all run by one compiled simulator. Replaying the batch
// must give the same per-spec results on the process rung and in-process,
// and the two replays together compile the model once.
TEST(ExecModes, HeterogeneousSpecBatchesAgree) {
  ScopedCache cache;
  auto model = sampleOverflowModel();
  Simulator sim(*model);
  TestCaseSpec base = sampleOverflowStimulus();

  std::vector<TestCaseSpec> specs;
  for (uint64_t seed : {7u, 8u}) {  // one stimulus, two seeds
    TestCaseSpec s = base;
    s.seed = seed;
    specs.push_back(s);
  }
  TestCaseSpec wide = base;  // other ranges
  wide.defaultPort.min = -2.0;
  wide.defaultPort.max = 2.0;
  for (auto& p : wide.ports) {
    p.min = -2.0;
    p.max = 2.0;
    p.sequence.clear();
  }
  wide.seed = 9;
  specs.push_back(wide);
  TestCaseSpec seq = base;  // explicit sequences, as a --tests CSV gives
  seq.ports[0].sequence = {900.0, -3.5, 1000.0, 0.0, 512.25};
  seq.ports[1].sequence = {1000.0, 999.5, -0.0, 250.0, 700.0};
  specs.push_back(seq);

  const uint64_t invocations = CompilerDriver::compilerInvocations();
  auto evaluate = [&] {
    SimOptions opt = accOptions(200);
    opt.campaign.workers = 2;
    SpecEvaluator evaluator(sim.flatModel(), opt);
    return evaluator.evaluate(specs);
  };
  auto pr = onProcessRung(evaluate);
  auto dl = evaluate();
  EXPECT_EQ(CompilerDriver::compilerInvocations() - invocations, 1u)
      << "one library serves every spec on both rungs";
  ASSERT_EQ(pr.size(), specs.size());
  ASSERT_EQ(dl.size(), specs.size());
  for (size_t k = 0; k < specs.size(); ++k) {
    std::string label = "spec " + std::to_string(k);
    expectIdenticalResults(dl[k], pr[k], label);
    EXPECT_EQ(dl[k].execMode, "dlopen") << label;
    EXPECT_EQ(pr[k].execMode, "process") << label;
  }
}

// The library fallback on a multi-seed run: a library dlopen cannot load
// must degrade to the subprocess backend, reproduce the default dlopen
// engine's results, and report execMode "process".
TEST(ExecModes, LibraryFallbacksAgreeWithDlopen) {
  auto model = sampleOverflowModel();
  TestCaseSpec tests = sampleOverflowStimulus();
  Simulator sim(*model);
  std::vector<uint64_t> seeds = {3, 4, 5};

  AccMoSEngine reference(sim.flatModel(), accOptions(), tests);
  std::vector<SimulationResult> ref = reference.runBatch(seeds);
  ASSERT_EQ(ref.size(), seeds.size());
  for (const auto& r : ref) EXPECT_EQ(r.execMode, "dlopen");

  auto expectSameRuns = [&](AccMoSEngine& engine, const char* mode,
                            const std::string& label) {
    std::vector<SimulationResult> out = engine.runBatch(seeds);
    ASSERT_EQ(out.size(), seeds.size()) << label;
    for (size_t k = 0; k < out.size(); ++k) {
      EXPECT_EQ(out[k].execMode, mode) << label;
      expectIdenticalResults(out[k], ref[k],
                             label + " seed " + std::to_string(seeds[k]));
    }
  };

  {
    // dlopen unavailable entirely: every run degrades to the subprocess
    // backend.
    EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
    AccMoSEngine engine(sim.flatModel(), accOptions(), tests);
    EXPECT_EQ(engine.execModeUsed(), "process");
    expectSameRuns(engine, "process", "dlopen failure");
  }
}

// When the library cannot be loaded the engine must degrade to the
// process rung, not fail — same results, execMode records the truth.
TEST(ExecModes, DlopenFailureFallsBackToProcess) {
  auto t = test::unaryConstModel("Abs", -3.0);
  Simulator sim(t->model());
  TestCaseSpec tests;

  SimulationResult clean = simulate(t->model(), accOptions(), tests);
  EXPECT_EQ(clean.execMode, "dlopen");

  EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
  AccMoSEngine engine(sim.flatModel(), accOptions(), tests);
  EXPECT_EQ(engine.execModeUsed(), "process");
  EXPECT_EQ(engine.loadSeconds(), 0.0);
  SimulationResult fb = engine.run();
  EXPECT_EQ(fb.execMode, "process");
  test::expectSameOutputs(clean, fb, "fallback");
}

// One artifact: a cold engine whose library cannot be loaded runs on the
// process rung off the library it already built — exactly one compiler
// invocation across construction and runs, one cache entry.
TEST(ExecModes, DlopenFailureCompilesTheModelOnce) {
  ScopedCache cache;
  auto t = test::unaryConstModel("Abs", -5.0);
  Simulator sim(t->model());
  TestCaseSpec tests;

  EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
  const uint64_t before = CompilerDriver::compilerInvocations();
  AccMoSEngine engine(sim.flatModel(), accOptions(), tests);
  EXPECT_EQ(engine.execModeUsed(), "process");
  SimulationResult r = engine.run(0, -1.0, 11);
  EXPECT_FALSE(r.failed) << r.failure.summary();
  EXPECT_EQ(r.execMode, "process");
  EXPECT_EQ(CompilerDriver::compilerInvocations() - before, 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

// The runner receives the run's budgets exactly: a 1e-7 s budget stops the
// in-process loop at its first clock check (step 1024), and must stop the
// child at the same step rather than reach it rounded to 0 (unlimited).
TEST(ExecModes, SubMicrosecondBudgetsReachTheRunner) {
  auto t = test::unaryConstModel("Abs", -8.0);
  SimOptions opt = accOptions(5'000'000);
  opt.timeBudgetSec = 1e-7;
  SimulationResult dl = simulate(t->model(), opt, TestCaseSpec{});
  SimulationResult pr = onProcessRung(
      [&] { return simulate(t->model(), opt, TestCaseSpec{}); });
  EXPECT_EQ(dl.execMode, "dlopen");
  EXPECT_EQ(pr.execMode, "process");
  EXPECT_EQ(dl.stepsExecuted, 1024u);
  EXPECT_EQ(pr.stepsExecuted, dl.stepsExecuted);
}

// The subprocess runner's own failures are typed, never a model crash: a
// library it cannot load is a CompileError, a library whose accmos_run
// reports a failure status an AbiMismatch.
TEST(ExecModes, RunnerFailuresAreTypedNotCrashes) {
  ScopedCache cache;
  auto t = test::unaryConstModel("Abs", -7.0);
  Simulator sim(t->model());
  TestCaseSpec tests;
  EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
  AccMoSEngine engine(sim.flatModel(), accOptions(), tests);
  ASSERT_FALSE(engine.run().failed);
  const fs::path lib = engine.exePath();

  {
    std::ofstream out(lib, std::ios::trunc);
    out << "this is not an ELF shared object\n";
  }
  SimulationResult unloadable = engine.run();
  ASSERT_TRUE(unloadable.failed);
  EXPECT_EQ(unloadable.failure.kind, FailureKind::CompileError)
      << unloadable.failure.summary();
  EXPECT_EQ(unloadable.failure.backend, "process");

  const std::string failingRun =
      std::string(runAbiText()) +
      "extern \"C\" int accmos_model_info(AccmosModelInfo* i) {\n"
      "  i->abiVersion = ACCMOS_ABI_VERSION;\n"
      "  return ACCMOS_ABI_OK;\n"
      "}\n"
      "extern \"C\" int accmos_run(const AccmosRunArgs*, AccmosRunResult*) "
      "{\n"
      "  return ACCMOS_ABI_EALLOC;\n"
      "}\n";
  CompilerDriver driver;
  CompileOutput fake = driver.compile(failingRun, "failing_run", "-O0");
  fs::copy_file(fake.exePath, lib, fs::copy_options::overwrite_existing);
  SimulationResult abiFailure = engine.run();
  ASSERT_TRUE(abiFailure.failed);
  EXPECT_EQ(abiFailure.failure.kind, FailureKind::AbiMismatch)
      << abiFailure.failure.summary();
  EXPECT_EQ(abiFailure.failure.backend, "process");
}

// The stimulus file is the runner's one input besides its command line.
// A file the engine cannot write, and one the runner reads as truncated,
// each end the run as a typed AbiMismatch on the process rung, never a
// Crash, and the engine runs normally afterwards. The engine writes its
// work dir under TMPDIR, which the test points at a private directory to
// reach the files.
TEST(ExecModes, BadStimulusFilesAreTypedNotCrashes) {
  ScopedCache cache;
  const fs::path tmp = fs::temp_directory_path() /
                       ("accmos_stimulus_tmp_" + std::to_string(::getpid()));
  fs::create_directories(tmp);
  Tiny t;
  t.inport("In1", 1);
  t.actor("G", "Gain").params().setDouble("gain", 3.0);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  Simulator sim(t.model());
  TestCaseSpec tests;
  tests.ports = {PortStimulus{0.0, 1.0, {0.5, -2.0, 4.0}}};
  {
    EnvGuard tmpdir("TMPDIR", tmp.c_str());
    EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
    AccMoSEngine engine(sim.flatModel(), accOptions(), tests);
    std::vector<fs::path> workDirs;
    for (const auto& e : fs::directory_iterator(tmp)) {
      workDirs.push_back(e.path());
    }
    ASSERT_EQ(workDirs.size(), 1u) << "the engine's work dir";
    const fs::path& work = workDirs[0];

    // The runner reads the engine's first stimulus file through a link
    // to /dev/null: an empty frame.
    fs::create_symlink("/dev/null", work / "stimulus_0.bin");
    SimulationResult truncated = engine.run();
    ASSERT_TRUE(truncated.failed);
    EXPECT_EQ(truncated.failure.kind, FailureKind::AbiMismatch)
        << truncated.failure.summary();
    EXPECT_EQ(truncated.failure.backend, "process");
    EXPECT_NE(truncated.failure.message.find("stimulus file"),
              std::string::npos)
        << truncated.failure.message;

    SimulationResult good = engine.run();
    ASSERT_FALSE(good.failed) << good.failure.summary();
    SimOptions sse = accOptions();
    sse.engine = Engine::SSE;
    expectIdenticalResults(good, runInterpreter(sim.flatModel(), sse, tests),
                           "after a bad stimulus file");

    fs::remove_all(work);
    SimulationResult unwritable = engine.run();
    ASSERT_TRUE(unwritable.failed);
    EXPECT_EQ(unwritable.failure.kind, FailureKind::AbiMismatch)
        << unwritable.failure.summary();
    EXPECT_EQ(unwritable.failure.backend, "process");
  }
  std::error_code ec;
  fs::remove_all(tmp, ec);
}

// ModelLib must reject files dlopen cannot load with a catchable
// CompileError naming the path, never a crash or a null handle.
TEST(ExecModes, ModelLibRejectsUnloadableFiles) {
  fs::path garbage = fs::temp_directory_path() /
                     ("accmos_not_a_lib_" + std::to_string(::getpid()) +
                      ".so");
  {
    std::ofstream out(garbage);
    out << "this is not an ELF shared object\n";
  }
  try {
    ModelLib lib(garbage.string());
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find(garbage.string()),
              std::string::npos)
        << e.what();
  }
  fs::remove(garbage);
  EXPECT_THROW(ModelLib("/nonexistent/path/model.so"), CompileError);
}

}  // namespace
}  // namespace accmos
