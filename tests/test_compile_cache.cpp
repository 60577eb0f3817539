// The content-addressed compile cache: identical (source, flags) hits the
// cache and skips the compiler; different opt level or source misses; a
// corrupted or truncated cached binary is detected by the size+hash
// sidecar and falls back to a recompile — never to executing the damaged
// file. Plus the CompilerDriver error-path regression: uncompilable source
// surfaces compiler stderr through a catchable ModelError.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "opt/pipeline.h"
#include "parser/model_io.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

namespace fs = std::filesystem;
using test::Tiny;

// Each test gets a private cache directory via ACCMOS_CACHE_DIR, so hits
// and misses are fully deterministic regardless of prior runs.
class CompileCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("accmos_cache_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(dir_);
    ::setenv("ACCMOS_CACHE_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("ACCMOS_CACHE_DIR");
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

std::unique_ptr<Tiny> gainModel(double gain) {
  auto t = std::make_unique<Tiny>();
  t->inport("In1", 1);
  Actor& g = t->actor("G", "Gain");
  g.params().setDouble("gain", gain);
  t->outport("Out1", 1);
  t->wire("In1", "G");
  t->wire("G", "Out1");
  return t;
}

SimOptions accOptions(const std::string& optFlag = "-O1") {
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 50;
  opt.optFlag = optFlag;  // cheap to compile; the cache behaves the same
  return opt;
}

TEST_F(CompileCacheTest, SecondConstructionHitsAndReusesBinary) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  TestCaseSpec tests;

  AccMoSEngine cold(sim.flatModel(), opt, tests);
  EXPECT_FALSE(cold.compileCacheHit());
  EXPECT_GT(cold.compileSeconds(), 0.0);
  auto coldRes = cold.run();

  AccMoSEngine warm(sim.flatModel(), opt, tests);
  EXPECT_TRUE(warm.compileCacheHit());
  EXPECT_LT(warm.compileSeconds(), cold.compileSeconds());
  EXPECT_LT(warm.compileSeconds(), 0.1);  // verification, not compilation
  // The binary path is the cache entry, shared across constructions.
  EXPECT_EQ(warm.exePath(), cold.exePath());
  EXPECT_NE(warm.exePath().find(dir_.string()), std::string::npos);

  auto warmRes = warm.run();
  test::expectSameOutputs(coldRes, warmRes, "cache hit");
  EXPECT_EQ(coldRes.stepsExecuted, warmRes.stepsExecuted);
}

TEST_F(CompileCacheTest, DifferentOptLevelMisses) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  TestCaseSpec tests;
  AccMoSEngine o1(sim.flatModel(), accOptions("-O1"), tests);
  AccMoSEngine o0(sim.flatModel(), accOptions("-O0"), tests);
  EXPECT_FALSE(o1.compileCacheHit());
  EXPECT_FALSE(o0.compileCacheHit());
  EXPECT_NE(o1.exePath(), o0.exePath());
  // Each opt level now has its own entry; both hit on reconstruction.
  AccMoSEngine o1again(sim.flatModel(), accOptions("-O1"), tests);
  EXPECT_TRUE(o1again.compileCacheHit());
}

TEST_F(CompileCacheTest, DifferentSourceMisses) {
  auto a = gainModel(2.0);
  auto b = gainModel(3.0);  // different parameter -> different source
  Simulator simA(a->model());
  Simulator simB(b->model());
  TestCaseSpec tests;
  AccMoSEngine ea(simA.flatModel(), accOptions(), tests);
  AccMoSEngine eb(simB.flatModel(), accOptions(), tests);
  EXPECT_FALSE(ea.compileCacheHit());
  EXPECT_FALSE(eb.compileCacheHit());
  EXPECT_NE(ea.exePath(), eb.exePath());
}

TEST_F(CompileCacheTest, CorruptedEntryFallsBackToRecompile) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  TestCaseSpec tests;
  AccMoSEngine cold(sim.flatModel(), opt, tests);
  auto coldRes = cold.run();

  // Truncate the cached binary behind the cache's back.
  fs::path bin;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bin") bin = entry.path();
  }
  ASSERT_FALSE(bin.empty());
  auto size = fs::file_size(bin);
  fs::resize_file(bin, size / 2);

  // The sidecar no longer matches: detected as a miss, recompiled, and the
  // entry is healed for the construction after that.
  AccMoSEngine recompiled(sim.flatModel(), opt, tests);
  EXPECT_FALSE(recompiled.compileCacheHit());
  auto res = recompiled.run();
  test::expectSameOutputs(coldRes, res, "recompiled after corruption");

  AccMoSEngine healed(sim.flatModel(), opt, tests);
  EXPECT_TRUE(healed.compileCacheHit());
}

TEST_F(CompileCacheTest, TruncatedToZeroAlsoRecovers) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  TestCaseSpec tests;
  AccMoSEngine cold(sim.flatModel(), opt, tests);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bin") {
      std::ofstream wipe(entry.path(), std::ios::trunc);  // 0 bytes
    }
  }
  AccMoSEngine recompiled(sim.flatModel(), opt, tests);
  EXPECT_FALSE(recompiled.compileCacheHit());
  auto res = recompiled.run();
  EXPECT_EQ(res.stepsExecuted, opt.maxSteps);
}

TEST_F(CompileCacheTest, OptOutDisablesReuse) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  opt.compileCache = false;
  TestCaseSpec tests;
  AccMoSEngine first(sim.flatModel(), opt, tests);
  AccMoSEngine second(sim.flatModel(), opt, tests);
  EXPECT_FALSE(first.compileCacheHit());
  EXPECT_FALSE(second.compileCacheHit());
  // Nothing was published to the cache directory.
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
}

// The optimizer changes the generated source (folded/eliminated actors emit
// differently), so optimized and unoptimized emissions must land in
// distinct cache entries — sharing one would execute the wrong binary.
TEST_F(CompileCacheTest, OptimizedEmissionGetsItsOwnCacheEntry) {
  auto t = std::make_unique<Tiny>();
  Actor& c = t->actor("C", "Constant");
  c.params().setDouble("value", 3.0);
  Actor& g = t->actor("G", "Gain");
  g.params().setDouble("gain", 2.0);
  t->outport("Out1", 1);
  t->wire("C", "G");
  t->wire("G", "Out1");
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  opt.coverage = false;  // let folding + DCE actually rewrite the model
  opt.diagnosis = false;
  TestCaseSpec tests;

  OptStats st;
  FlatModel optimized = optimizeModel(sim.flatModel(), opt, &st);
  ASSERT_GT(st.actorsFolded, 0) << "expected G to fold to a Constant";

  AccMoSEngine plain(sim.flatModel(), opt, tests);
  AccMoSEngine opted(optimized, opt, tests);
  EXPECT_NE(plain.generatedSource(), opted.generatedSource());
  EXPECT_NE(CompilerDriver::cacheKey(plain.generatedSource(), opt.optFlag),
            CompilerDriver::cacheKey(opted.generatedSource(), opt.optFlag));
  EXPECT_NE(plain.exePath(), opted.exePath());
  EXPECT_FALSE(plain.compileCacheHit());
  EXPECT_FALSE(opted.compileCacheHit());

  // Different binaries, identical observable behaviour.
  auto a = plain.run();
  auto b = opted.run();
  test::expectSameOutputs(a, b, "optimized vs plain emission");
}

TEST_F(CompileCacheTest, CacheKeyIsStable) {
  // Content addressing: the key is a pure function of source + flags.
  EXPECT_EQ(CompilerDriver::cacheKey("int main(){}", "-O2"),
            CompilerDriver::cacheKey("int main(){}", "-O2"));
  EXPECT_NE(CompilerDriver::cacheKey("int main(){}", "-O2"),
            CompilerDriver::cacheKey("int main(){}", "-O3"));
  EXPECT_NE(CompilerDriver::cacheKey("int main(){}", "-O2"),
            CompilerDriver::cacheKey("int main(){ }", "-O2"));
}

// A -D define changes the binary without changing the source, so extra
// compiler flags must be part of the content address: a flagless cached
// artifact must never be served to a compile that asked for the define,
// or the reverse.
TEST_F(CompileCacheTest, ExtraFlagsArePartOfTheCacheKey) {
  const std::string src = "int main(){}";
  EXPECT_NE(CompilerDriver::cacheKey(src, "-O2"),
            CompilerDriver::cacheKey(src, "-O2", "-DACCMOS_TEST_FLAG=8"));
  EXPECT_NE(CompilerDriver::cacheKey(src, "-O2", "-DACCMOS_TEST_FLAG=4"),
            CompilerDriver::cacheKey(src, "-O2", "-DACCMOS_TEST_FLAG=8"));
  // No extra flags keeps the pre-existing addresses.
  EXPECT_EQ(CompilerDriver::cacheKey(src, "-O2"),
            CompilerDriver::cacheKey(src, "-O2", ""));

  // Compiling the same source with and without the define yields two
  // distinct artifacts, each with its own entry that hits independently.
  CompilerDriver driver;
  const std::string source = "int main() { return 0; }\n";
  auto plain = driver.compile(source, "flags", "-O0");
  auto flagged = driver.compile(source, "flags", "-O0",
                                ArtifactKind::SharedLib,
                                "-DACCMOS_TEST_FLAG=1");
  EXPECT_FALSE(plain.cacheHit);
  EXPECT_FALSE(flagged.cacheHit)
      << "a flagged compile must not hit the flagless entry";
  EXPECT_NE(plain.exePath, flagged.exePath);
  EXPECT_TRUE(driver.compile(source, "flags", "-O0").cacheHit);
  EXPECT_TRUE(driver
                  .compile(source, "flags", "-O0", ArtifactKind::SharedLib,
                           "-DACCMOS_TEST_FLAG=1")
                  .cacheHit);
}

// Regression for the error paths: a deliberately uncompilable source must
// produce a CompileError (a ModelError) whose message carries the
// compiler's actual stderr, not just an exit code.
TEST_F(CompileCacheTest, UncompilableSourceSurfacesCompilerStderr) {
  CompilerDriver driver;
  try {
    driver.compile("int main() { return not_a_symbol; }", "broken", "-O0");
    FAIL() << "expected CompileError";
  } catch (const ModelError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("compiler output"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not_a_symbol"), std::string::npos)
        << "compiler stderr not surfaced: " << msg;
  }
  // A failed compilation must not poison the cache.
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
}

TEST_F(CompileCacheTest, MissingBinaryRunFails) {
  CompilerDriver driver;
  EXPECT_THROW(driver.run((fs::path(driver.dir()) / "nonexistent").string(),
                          {"1", "0", "1"}),
               CompileError);
}

// Scoped environment override (same idiom as test_fault_containment.cpp).
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

// In-process single-flight: N workers constructing engines for one cold
// model (the campaign cold-start race) compile it once.
TEST_F(CompileCacheTest, SingleFlightDeduplicatesConcurrentEngineBuilds) {
  EnvGuard fault("ACCMOS_FAULT", "slow-compile:300");
  auto t = gainModel(3.0);
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  TestCaseSpec tests;

  const uint64_t before = CompilerDriver::compilerInvocations();
  std::unique_ptr<AccMoSEngine> e1, e2;
  std::thread w1([&] { e1 = std::make_unique<AccMoSEngine>(
                           sim.flatModel(), opt, tests); });
  std::thread w2([&] { e2 = std::make_unique<AccMoSEngine>(
                           sim.flatModel(), opt, tests); });
  w1.join();
  w2.join();
  EXPECT_EQ(CompilerDriver::compilerInvocations() - before, 1u)
      << "two racing engine builds must share one compiler run";

  SimulationResult r1 = e1->run();
  SimulationResult r2 = e2->run();
  test::expectSameOutputs(r1, r2, "single-flight engines");
}

// The failure side of single-flight: a request that joins a failing
// compile receives the producer's CompileError, not a compiler run of its
// own. The compiler output names the producer's directory, so equal texts
// also show that only one driver compiled.
TEST_F(CompileCacheTest, SingleFlightSharesACompileFailure) {
  EnvGuard fault("ACCMOS_FAULT", "slow-compile:300");
  const std::string bad = "int main() { this is not C++; }\n";
  const uint64_t before = CompilerDriver::compilerInvocations();
  std::string what1, what2;
  auto attempt = [&bad](std::string* what) {
    CompilerDriver driver;
    try {
      driver.compile(bad, "broken", "-O0");
    } catch (const CompileError& e) {
      *what = e.what();
    }
  };
  std::thread w1(attempt, &what1);
  std::thread w2(attempt, &what2);
  w1.join();
  w2.join();
  EXPECT_NE(what1.find("compilation of generated simulation code failed"),
            std::string::npos)
      << what1;
  EXPECT_EQ(what1, what2);
  EXPECT_EQ(CompilerDriver::compilerInvocations() - before, 1u)
      << "the joiner must not run the compiler again";
}

// Cross-process single-flight: two separate processes cold-compile the
// SAME model against ONE shared cache directory at the same time. The
// lockfile claim in CompilerDriver must hold the pair to exactly one
// compiler invocation — the loser waits on the winner's publication and
// loads the published artifact instead of duplicating the compile. This
// is the guarantee the shard coordinator (src/dist) leans on for its
// "one compile fleet-wide" cold path.
//
// The compiler is $CXX (part of the cache key), so a wrapper script that
// appends a line per invocation — identical in both processes, keeping
// their keys equal — makes the fleet-wide invocation count observable.
TEST_F(CompileCacheTest, CrossProcessColdCompileIsSingleFlight) {
  // The model both processes will compile, stimulus embedded.
  auto t = gainModel(2.0);
  const fs::path modelPath = dir_ / "race_model.xml";
  TestCaseSpec stimulus;
  writeModelToFile(t->model(), modelPath.string(), &stimulus);

  // A $CXX wrapper that logs each invocation, then runs the real thing.
  const fs::path log = dir_ / "cxx_invocations.log";
  const fs::path wrapper = dir_ / "cxx_wrapper.sh";
  {
    std::ofstream w(wrapper);
    w << "#!/bin/sh\n"
      << "echo invoked >> " << log.string() << "\n"
      << "exec c++ \"$@\"\n";
  }
  fs::permissions(wrapper, fs::perms::owner_all | fs::perms::group_read |
                               fs::perms::others_read);
  EnvGuard cxx("CXX", wrapper.string().c_str());
  // Stretch the winner's compile so the loser reliably lands in the
  // wait-on-lock path rather than slipping in after publication.
  EnvGuard fault("ACCMOS_FAULT", "slow-compile:400");

  // Two concurrent CLI processes, both cold against the shared store
  // (ACCMOS_CACHE_DIR from the fixture is inherited).
  auto spawnRun = [&](const fs::path& out) {
    pid_t pid = ::fork();
    if (pid == 0) {
      int fd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execl(ACCMOS_CLI_PATH, ACCMOS_CLI_PATH, "run", modelPath.c_str(),
              "--engine=accmos", "--steps=50", "--opt=-O0",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    return pid;
  };
  const pid_t a = spawnRun(dir_ / "race_a.out");
  const pid_t b = spawnRun(dir_ / "race_b.out");
  ASSERT_GT(a, 0);
  ASSERT_GT(b, 0);

  int statusA = 0, statusB = 0;
  ASSERT_EQ(::waitpid(a, &statusA, 0), a);
  ASSERT_EQ(::waitpid(b, &statusB, 0), b);
  EXPECT_TRUE(WIFEXITED(statusA) && WEXITSTATUS(statusA) == 0)
      << "first racer failed, status " << statusA;
  EXPECT_TRUE(WIFEXITED(statusB) && WEXITSTATUS(statusB) == 0)
      << "second racer failed, status " << statusB;

  // Exactly one compiler invocation between the two processes.
  size_t invocations = 0;
  {
    std::ifstream in(log);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) ++invocations;
    }
  }
  EXPECT_EQ(invocations, 1u)
      << "cold racers must share one compile via the cross-process claim";

  // The artifact was published (sidecar included) and the claim lockfile
  // did not leak.
  bool sawBin = false, sawLock = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bin") sawBin = true;
    if (entry.path().extension() == ".lock") sawLock = true;
  }
  EXPECT_TRUE(sawBin);
  EXPECT_FALSE(sawLock) << "claim lockfile left behind after publication";

  // Both racers ran to completion off the one artifact: their simulation
  // output (steps, coverage, diagnostics — everything but timing lines)
  // must be identical.
  auto observationLines = [](const fs::path& p) {
    std::vector<std::string> lines;
    std::ifstream in(p);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("codegen", 0) == 0) continue;  // timing line
      if (line.rfind("exec", 0) == 0) continue;
      lines.push_back(line);
    }
    return lines;
  };
  EXPECT_EQ(observationLines(dir_ / "race_a.out"),
            observationLines(dir_ / "race_b.out"));
}

}  // namespace
}  // namespace accmos
