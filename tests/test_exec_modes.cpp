// The AccMoS execution paths (docs/EXECUTION.md) held to one contract:
// the dlopen in-process backend and the subprocess backend must produce
// bit-identical SimulationResults — outputs, coverage bitmaps,
// diagnostics, monitors — for single runs, campaigns at any worker count,
// and heterogeneous generator-style spec batches. Plus the backend
// plumbing itself: one compiled artifact serves both backends (a dlopen
// failure or a switch of backend never compiles the model again),
// automatic fallback to Process when dlopen is unavailable (execMode
// reporting what actually ran), typed failures from the subprocess
// runner, ModelLib rejecting unloadable files, and the ACCMOS_EXEC_MODE
// environment default.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
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
using test::Tiny;

// Sets (or, with nullptr, clears) an environment variable for the
// enclosing scope only; the previous value is restored on exit, so these
// tests behave the same under an ambient ACCMOS_EXEC_MODE (CI runs the
// whole suite under both backends).
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

SimOptions modeOptions(ExecMode mode, uint64_t steps = 300) {
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = steps;
  opt.optFlag = "-O1";  // cheap compiles; the backends behave the same
  opt.execMode = mode;
  return opt;
}

// The whole-result comparison both backends are held to. Everything the
// result buffers carry must agree bit-exactly; only the timing fields and
// execMode may differ.
void expectIdenticalResults(const SimulationResult& a,
                            const SimulationResult& b,
                            const std::string& label) {
  EXPECT_EQ(a.stepsExecuted, b.stepsExecuted) << label;
  EXPECT_EQ(a.stoppedEarly, b.stoppedEarly) << label;
  test::expectSameOutputs(a, b, label);
  ASSERT_EQ(a.hasCoverage, b.hasCoverage) << label;
  if (a.hasCoverage) {
    EXPECT_EQ(a.coverage.toString(), b.coverage.toString()) << label;
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(a.bitmaps.bits(m), b.bitmaps.bits(m))
          << label << " bitmap " << covMetricName(m);
    }
  }
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size()) << label;
  for (size_t k = 0; k < a.diagnostics.size(); ++k) {
    const DiagRecord& da = a.diagnostics[k];
    const DiagRecord& db = b.diagnostics[k];
    EXPECT_EQ(da.actorPath, db.actorPath) << label << " diag " << k;
    EXPECT_EQ(da.kind, db.kind) << label << " diag " << k;
    EXPECT_EQ(da.message, db.message) << label << " diag " << k;
    EXPECT_EQ(da.firstStep, db.firstStep) << label << " diag " << k;
    EXPECT_EQ(da.count, db.count) << label << " diag " << k;
  }
  ASSERT_EQ(a.collected.size(), b.collected.size()) << label;
  for (size_t k = 0; k < a.collected.size(); ++k) {
    EXPECT_EQ(a.collected[k].path, b.collected[k].path) << label;
    EXPECT_EQ(a.collected[k].last, b.collected[k].last) << label;
    EXPECT_EQ(a.collected[k].count, b.collected[k].count) << label;
  }
}

// The Sample model ships overflow-triggering stimulus: a run produces real
// diagnostics, so the differential covers the diagnostic records too.
TEST(ExecModes, SingleRunsAgreeOnTheSampleModel) {
  auto model = sampleOverflowModel();
  TestCaseSpec tests = sampleOverflowStimulus();
  tests.ports[0].max = 1e6;  // scale up so the overflow fires in-budget
  tests.ports[1].max = 1e6;

  SimulationResult dl =
      simulate(*model, modeOptions(ExecMode::Dlopen, 10000), tests);
  SimulationResult pr =
      simulate(*model, modeOptions(ExecMode::Process, 10000), tests);

  EXPECT_EQ(dl.execMode, "dlopen");
  EXPECT_EQ(pr.execMode, "process");
  EXPECT_GT(dl.loadSeconds, 0.0);
  EXPECT_EQ(pr.loadSeconds, 0.0);
  EXPECT_FALSE(dl.diagnostics.empty()) << "Sample model should overflow";
  expectIdenticalResults(dl, pr, "sample model");
}

// Signal monitors and compiled custom diagnostics cross the binary ABI
// through dedicated records; both backends must agree on them exactly.
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

  auto run = [&](ExecMode mode) {
    SimOptions opt = modeOptions(mode);
    opt.collectList.push_back("T_G");
    opt.customDiagnostics.push_back(cd);
    TestCaseSpec tests;
    tests.seed = 42;
    return simulate(t.model(), opt, tests);
  };
  SimulationResult dl = run(ExecMode::Dlopen);
  SimulationResult pr = run(ExecMode::Process);

  ASSERT_EQ(dl.collected.size(), 1u);
  EXPECT_GT(dl.collected[0].count, 0u);
  EXPECT_NE(dl.findDiag("T_G", DiagKind::Custom), nullptr);
  expectIdenticalResults(dl, pr, "monitors+custom");
}

// Campaigns fan concurrent runs over one engine: in dlopen mode that is
// many threads calling accmos_run() into one loaded library. The merged
// outcome must be identical across backends and worker counts.
TEST(ExecModes, CampaignsAgreeAcrossBackendsAndWorkerCounts) {
  auto model = sampleOverflowModel();
  TestCaseSpec base = sampleOverflowStimulus();
  Simulator sim(*model);
  std::vector<uint64_t> seeds = {1000, 1037, 1074, 1111, 1148, 1185};

  CampaignResult ref;  // dlopen, 1 worker
  bool haveRef = false;
  for (ExecMode mode : {ExecMode::Dlopen, ExecMode::Process}) {
    for (size_t workers : {1u, 2u, 4u}) {
      SimOptions opt = modeOptions(mode, 200);
      opt.campaign.workers = workers;
      CampaignResult cr = runCampaign(sim.flatModel(), opt, base, seeds);
      if (!haveRef) {
        ref = cr;
        haveRef = true;
        EXPECT_GT(ref.loadSeconds, 0.0);
        continue;
      }
      std::string label = std::string(execModeName(mode)) + "/w" +
                          std::to_string(workers);
      EXPECT_EQ(cr.cumulative.toString(), ref.cumulative.toString()) << label;
      ASSERT_EQ(cr.perSeed.size(), ref.perSeed.size()) << label;
      for (size_t k = 0; k < cr.perSeed.size(); ++k) {
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

// The generator's workload: a heterogeneous spec batch where different
// stimulus shapes compile different simulators (seed-only variants share
// one). Replaying the batch must give the same per-spec results on the
// subprocess backend and the dlopen backend.
TEST(ExecModes, HeterogeneousSpecBatchesAgree) {
  auto model = sampleOverflowModel();
  Simulator sim(*model);
  TestCaseSpec base = sampleOverflowStimulus();

  std::vector<TestCaseSpec> specs;
  for (uint64_t seed : {7u, 8u}) {  // one shape, two seeds
    TestCaseSpec s = base;
    s.seed = seed;
    specs.push_back(s);
  }
  TestCaseSpec wide = base;  // a second shape
  wide.defaultPort.min = -2.0;
  wide.defaultPort.max = 2.0;
  for (auto& p : wide.ports) {
    p.min = -2.0;
    p.max = 2.0;
    p.sequence.clear();
  }
  wide.seed = 9;
  specs.push_back(wide);

  auto evaluate = [&](ExecMode mode) {
    SimOptions opt = modeOptions(mode, 200);
    opt.optimize = false;  // SpecEvaluator takes the model as given
    opt.campaign.workers = 2;
    SpecEvaluator evaluator(sim.flatModel(), opt);
    auto out = evaluator.evaluate(specs);
    EXPECT_EQ(evaluator.enginesBuilt(), 2u) << "two stimulus shapes";
    return out;
  };
  auto pr = evaluate(ExecMode::Process);
  auto dl = evaluate(ExecMode::Dlopen);
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

  AccMoSEngine reference(sim.flatModel(), modeOptions(ExecMode::Dlopen, 300),
                         tests);
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
    AccMoSEngine engine(sim.flatModel(), modeOptions(ExecMode::Dlopen, 300),
                        tests);
    EXPECT_EQ(engine.execModeUsed(), ExecMode::Process);
    expectSameRuns(engine, "process", "dlopen failure");
  }
}

// When the library cannot be loaded the engine must degrade to the
// subprocess backend, not fail — same results, execMode records the truth.
TEST(ExecModes, DlopenFailureFallsBackToProcess) {
  auto t = test::unaryConstModel("Abs", -3.0);
  Simulator sim(t->model());
  TestCaseSpec tests;

  SimulationResult clean =
      simulate(t->model(), modeOptions(ExecMode::Dlopen), tests);
  EXPECT_EQ(clean.execMode, "dlopen");

  EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
  AccMoSEngine engine(sim.flatModel(), modeOptions(ExecMode::Dlopen),
                      tests);
  EXPECT_EQ(engine.execModeUsed(), ExecMode::Process);
  EXPECT_EQ(engine.loadSeconds(), 0.0);
  SimulationResult fb = engine.run();
  EXPECT_EQ(fb.execMode, "process");
  test::expectSameOutputs(clean, fb, "fallback");
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

// One artifact: a cold dlopen engine whose library cannot be loaded runs
// on the subprocess backend off the library it already built — exactly one
// compiler invocation across construction and runs, one cache entry.
TEST(ExecModes, DlopenFailureCompilesTheModelOnce) {
  ScopedCache cache;
  auto t = test::unaryConstModel("Abs", -5.0);
  Simulator sim(t->model());
  TestCaseSpec tests;

  EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
  const uint64_t before = CompilerDriver::compilerInvocations();
  AccMoSEngine engine(sim.flatModel(), modeOptions(ExecMode::Dlopen), tests);
  EXPECT_EQ(engine.execModeUsed(), ExecMode::Process);
  EXPECT_EQ(engine.run().execMode, "process");
  SimulationResult contained = engine.runContained(0, -1.0, 11);
  EXPECT_FALSE(contained.failed) << contained.failure.summary();
  EXPECT_EQ(contained.execMode, "process");
  EXPECT_EQ(CompilerDriver::compilerInvocations() - before, 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

// Switching backend on a warm cache is free: a Process engine built after a
// Dlopen engine on the same model runs the library the first one compiled.
TEST(ExecModes, ProcessEngineReusesTheDlopenLibrary) {
  ScopedCache cache;
  auto t = test::unaryConstModel("Abs", -6.0);
  Simulator sim(t->model());
  TestCaseSpec tests;

  AccMoSEngine dl(sim.flatModel(), modeOptions(ExecMode::Dlopen), tests);
  EXPECT_EQ(dl.execModeUsed(), ExecMode::Dlopen);
  const uint64_t before = CompilerDriver::compilerInvocations();
  AccMoSEngine pr(sim.flatModel(), modeOptions(ExecMode::Process), tests);
  EXPECT_EQ(CompilerDriver::compilerInvocations() - before, 0u);
  EXPECT_TRUE(pr.compileCacheHit());
  EXPECT_EQ(pr.exePath(), dl.exePath());
  expectIdenticalResults(dl.run(), pr.run(), "backend switch");
}

// The subprocess runner's own failures are typed, never a model crash: a
// library it cannot load is a CompileError, a library whose accmos_run
// reports a failure status an AbiMismatch.
TEST(ExecModes, RunnerFailuresAreTypedNotCrashes) {
  ScopedCache cache;
  auto t = test::unaryConstModel("Abs", -7.0);
  Simulator sim(t->model());
  TestCaseSpec tests;
  AccMoSEngine engine(sim.flatModel(), modeOptions(ExecMode::Process), tests);
  ASSERT_FALSE(engine.runContained().failed);
  const fs::path lib = engine.exePath();

  {
    std::ofstream out(lib, std::ios::trunc);
    out << "this is not an ELF shared object\n";
  }
  SimulationResult unloadable = engine.runContained();
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
  SimulationResult abiFailure = engine.runContained();
  ASSERT_TRUE(abiFailure.failed);
  EXPECT_EQ(abiFailure.failure.kind, FailureKind::AbiMismatch)
      << abiFailure.failure.summary();
  EXPECT_EQ(abiFailure.failure.backend, "process");
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

// ACCMOS_EXEC_MODE picks the default backend for options constructed after
// it is set; anything but "process" means dlopen.
TEST(ExecModes, EnvironmentSelectsTheDefaultBackend) {
  EnvGuard clear("ACCMOS_EXEC_MODE", nullptr);
  EXPECT_EQ(defaultExecMode(), ExecMode::Dlopen);
  {
    EnvGuard env("ACCMOS_EXEC_MODE", "process");
    EXPECT_EQ(defaultExecMode(), ExecMode::Process);
    SimOptions opt;
    EXPECT_EQ(opt.execMode, ExecMode::Process);
  }
  {
    EnvGuard env("ACCMOS_EXEC_MODE", "dlopen");
    EXPECT_EQ(defaultExecMode(), ExecMode::Dlopen);
  }
  EXPECT_EQ(defaultExecMode(), ExecMode::Dlopen);
}

}  // namespace
}  // namespace accmos
