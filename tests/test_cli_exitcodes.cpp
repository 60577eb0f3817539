// The CLI's documented exit-code contract, asserted end to end against
// the real binary (ACCMOS_CLI_PATH): scripts and CI distinguish "the
// model has findings" from "the tool broke" from "the run was contained"
// purely by exit status, so each code is pinned by a test.
//
//   0  success            1  internal error     2  usage error
//   3  diagnostics found  4  model load failed  5  compile failed
//   6  model crashed      7  run timed out      8  contained failures
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace accmos {
namespace {

namespace fs = std::filesystem;

// Scoped environment override (the CLI child inherits this process's
// environment through std::system).
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

class CliExitCodes : public ::testing::Test {
 protected:
  CliExitCodes()
      : cacheDir_(fs::temp_directory_path() /
                  ("accmos_cli_test_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter_++))),
        cacheEnv_("ACCMOS_CACHE_DIR", cacheDir_.string().c_str()),
        faultEnv_("ACCMOS_FAULT", nullptr),
        execEnv_("ACCMOS_EXEC_MODE", nullptr) {}
  ~CliExitCodes() override {
    std::error_code ec;
    fs::remove_all(cacheDir_, ec);
  }

  // Runs the CLI through the shell, returning its exit status (or the
  // negated terminating signal — which no test expects to see).
  static int runCli(const std::string& argsAndRedirect) {
    std::string cmd = std::string("'") + ACCMOS_CLI_PATH + "' " +
                      argsAndRedirect + " >/dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    if (rc == -1) return -1;
    if (WIFEXITED(rc)) return WEXITSTATUS(rc);
    return WIFSIGNALED(rc) ? -WTERMSIG(rc) : -1;
  }

  static std::string model(const char* name) {
    return std::string("'") + ACCMOS_MODELS_DIR + "/" + name + "'";
  }

 private:
  fs::path cacheDir_;
  EnvGuard cacheEnv_;
  EnvGuard faultEnv_;
  EnvGuard execEnv_;
  static int counter_;
};

int CliExitCodes::counter_ = 0;

TEST_F(CliExitCodes, UsageErrorsExitTwo) {
  EXPECT_EQ(runCli("bogus-subcommand"), 2);
  EXPECT_EQ(runCli("run"), 2);
  EXPECT_EQ(runCli("run " + model("Sample.xml") + " --engine=warp9"), 2);
  // Numeric flags take the whole value as an in-range number.
  const std::string fmtm = model("FMTM.xml");
  EXPECT_EQ(runCli("run " + fmtm + " --engine=sse --steps=abc"), 2);
  EXPECT_EQ(runCli("campaign " + fmtm + " --seeds=3x"), 2);
  EXPECT_EQ(runCli("campaign " + fmtm + " --workers=-1"), 2);
  EXPECT_EQ(runCli("run " + fmtm + " --timeout=abc"), 2);
  EXPECT_EQ(runCli("campaign " + fmtm + " --seeds=-5"), 2);
  EXPECT_EQ(runCli("gen " + fmtm + " --budget=abc"), 2);
}

TEST_F(CliExitCodes, ModelLoadFailureExitsFour) {
  EXPECT_EQ(runCli("run /nonexistent/model.xml --steps=10"), 4);
}

TEST_F(CliExitCodes, CleanRunExitsZero) {
  EXPECT_EQ(
      runCli("run " + model("Sample.xml") + " --steps=100 --opt=-O0 "
             "--no-diagnosis"),
      0);
}

TEST_F(CliExitCodes, DiagnosticsExitThree) {
  // The injected-fault CSEV variant triggers diagnostics under its own
  // stimulus: findings in the model are reported distinctly from tool
  // failures.
  EXPECT_EQ(
      runCli("run " + model("CSEV_injected.xml") + " --steps=500 --opt=-O0"),
      3);
}

TEST_F(CliExitCodes, CompileFailureExitsFive) {
  EnvGuard fault("ACCMOS_FAULT", "compile-fail:exit=2");
  EXPECT_EQ(runCli("run " + model("Sample.xml") + " --steps=50 --opt=-O0"),
            5);
}

TEST_F(CliExitCodes, ModelCrashExitsSix) {
  EnvGuard fault("ACCMOS_FAULT", "crash@5");
  EXPECT_EQ(runCli("run " + model("Sample.xml") + " --steps=50 --opt=-O0"),
            6);
}

TEST_F(CliExitCodes, RetiredRunExitsSeven) {
  // A step budget marks the run timedOut exactly like a wall-clock
  // deadline would, deterministically; 7 outranks the diagnostics code.
  EXPECT_EQ(runCli("run " + model("Sample.xml") +
                   " --steps=100000 --step-budget=10 --opt=-O0"),
            7);
}

TEST_F(CliExitCodes, ContainedCampaignFailuresExitEight) {
  // CLI campaigns seed 1000 + 37k; crash the middle seed of three. The
  // campaign completes (containment), and the exit code says "finished,
  // with recorded failures".
  EnvGuard fault("ACCMOS_FAULT", "crash@5:seed=1037");
  EXPECT_EQ(runCli("campaign " + model("Sample.xml") +
                   " --seeds=3 --steps=100 --timeout=5"),
            8);
}

}  // namespace
}  // namespace accmos
