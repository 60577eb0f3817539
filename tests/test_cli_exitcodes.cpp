// The CLI's documented exit-code contract, asserted end to end against
// the real binary (ACCMOS_CLI_PATH): scripts and CI distinguish "the
// model has findings" from "the tool broke" from "the run was contained"
// purely by exit status, so each code is pinned by a test. A faulting run
// served by a daemon (`accmos client run`) exits with the same code and
// prints the same report as the local `accmos run`.
//
//   0  success            1  internal error     2  usage error
//   3  diagnostics found  4  model/tests load   5  compile failed
//   6  model crashed      7  run timed out      8  contained failures
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.h"

namespace accmos {
namespace {

namespace fs = std::filesystem;
using test::EnvGuard;

class CliExitCodes : public ::testing::Test {
 protected:
  CliExitCodes()
      : cacheDir_(fs::temp_directory_path() /
                  ("accmos_cli_test_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter_++))),
        cacheEnv_("ACCMOS_CACHE_DIR", cacheDir_.string().c_str()),
        faultEnv_("ACCMOS_FAULT", nullptr) {}
  ~CliExitCodes() override {
    std::error_code ec;
    fs::remove_all(cacheDir_, ec);
  }

  // Runs the CLI through the shell, returning its exit status (or the
  // negated terminating signal — which no test expects to see).
  static int runCli(const std::string& argsAndRedirect) {
    std::string cmd = std::string("'") + ACCMOS_CLI_PATH + "' " +
                      argsAndRedirect + " >/dev/null 2>&1";
    return exitStatus(std::system(cmd.c_str()));
  }

  // Same, capturing stdout into *out.
  static int runCliOutput(const std::string& args, std::string* out) {
    return capture(
        std::string("'") + ACCMOS_CLI_PATH + "' " + args + " 2>/dev/null",
        out);
  }

  // Same, capturing stderr into *err instead (stdout is discarded).
  static int runCliErrors(const std::string& args, std::string* err) {
    return capture(std::string("'") + ACCMOS_CLI_PATH + "' " + args +
                       " 2>&1 >/dev/null",
                   err);
  }

  // Runs `cmd` through the shell, capturing its stdout into *out.
  static int capture(const std::string& cmd, std::string* out) {
    FILE* p = ::popen(cmd.c_str(), "r");
    if (p == nullptr) return -1;
    out->clear();
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out->append(buf, n);
    return exitStatus(::pclose(p));
  }

  static int exitStatus(int rc) {
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
  // The compiler flag is one of four levels; shell syntax never reaches
  // the compiler's command line.
  EXPECT_EQ(runCli("run " + fmtm + " '--opt=-O2; true'"), 2);
  // The backend is the engine's choice: there is no flag to pick it.
  EXPECT_EQ(runCli("run " + fmtm + " --exec-mode=process"), 2);
  EXPECT_EQ(runCli("campaign " + fmtm + " --exec-mode=process"), 2);
  EXPECT_EQ(runCli("gen " + fmtm + " --budget=4 --exec-mode=process"), 2);
  // Only generated code observes --timeout: other engines refuse it.
  EXPECT_EQ(runCli("run " + fmtm + " --engine=sse --timeout=1"), 2);
  EXPECT_EQ(runCli("run " + fmtm + " --timeout=1 --engine=sserac"), 2);
  EXPECT_EQ(runCli("campaign " + fmtm + " --engine=sse --timeout=1"), 2);
  EXPECT_EQ(runCli("gen " + fmtm + " --budget=4 --engine=sse --timeout=1"),
            2);
  // The daemon serves coverage-instrumented runs only; refused before
  // any connection is attempted.
  EXPECT_EQ(runCli("client run " + fmtm +
                   " --socket=/nonexistent/accmosd.sock --no-coverage"),
            2);
}

// A --tests CSV that is missing, ragged, holds a cell that is not a number
// or has a column count other than the model's root-Inport count is bad
// input, like a model that does not load: nothing runs.
TEST_F(CliExitCodes, ModelLoadFailureExitsFour) {
  EXPECT_EQ(runCli("run /nonexistent/model.xml --steps=10"), 4);
  const std::string dir = testing::TempDir();
  auto csv = [&](const char* name, const char* body) {
    const std::string path = dir + "accmos_cli_" + name + ".csv";
    std::ofstream(path) << body;
    return "'" + path + "'";
  };
  const std::string run = "run " + model("FMTM.xml") + " --engine=sse " +
                          "--steps=10 --tests=";
  // FMTM has six root Inports.
  EXPECT_EQ(runCli(run + csv("good", "1.5,2,0,1,-1,3\n2,0.5,1,0,4,2\n")), 0);
  const std::string seven = csv("seven", "1,2,3,4,5,6,7\n7,6,5,4,3,2,1\n");
  const std::string one = csv("one", "1.5\n2\n");
  std::string err;
  EXPECT_EQ(runCliErrors(run + seven, &err), 4);
  EXPECT_NE(err.find("has 7 column(s), but the model has 6 root Inport(s)"),
            std::string::npos)
      << err;
  EXPECT_EQ(runCliErrors(run + one, &err), 4);
  EXPECT_NE(err.find("has 1 column(s), but the model has 6 root Inport(s)"),
            std::string::npos)
      << err;
  // `accmos client run` checks the CSV against the model before it
  // contacts a daemon.
  const std::string client = "client run " + model("FMTM.xml") +
                             " --socket=/nonexistent/accmosd.sock --tests=";
  EXPECT_EQ(runCli(client + seven), 4);
  EXPECT_EQ(runCli(client + one), 4);
  EXPECT_EQ(runCli(run + csv("word", "1.5\nabc\n")), 4);
  EXPECT_EQ(runCli(run + csv("suffix", "1.5\n2x\n")), 4);
  EXPECT_EQ(runCli(run + csv("empty_cell", "1,2\n,4\n")), 4);
  EXPECT_EQ(runCli(run + csv("ragged", "1,2\n3\n")), 4);
  EXPECT_EQ(runCli(run + "/nonexistent/tests.csv"), 4);
}

// Models that parse but do not flatten or validate are bad input too: an
// integer literal out of its type's range, an unknown actor type, a shift
// beyond 63 bits, and saturate on an actor that cannot clamp. Each exits 4
// from every command, locally and through a daemon, whose failure to
// build a pool entry for the model is a model-load error.
TEST_F(CliExitCodes, InvalidModelsExitFour) {
  const std::string dir = testing::TempDir();
  auto xml = [&](const char* name, const std::string& actors,
                 const char* from) {
    const std::string path = dir + "accmos_cli_" + name + ".xml";
    std::ofstream(path)
        << "<model name=\"" << name << "\"><system name=\"root\">"
        << actors
        << "<actor name=\"Out1\" type=\"Outport\">"
           "<param name=\"port\" value=\"1\"/></actor>"
        << "<line from=\"" << from << "\" fromPort=\"1\" to=\"Out1\" "
           "toPort=\"1\"/></system></model>";
    return "'" + path + "'";
  };
  const std::string c100 =
      "<actor name=\"C\" type=\"Constant\"><param name=\"dtype\" "
      "value=\"i8\"/><param name=\"value\" value=\"100\"/></actor>";
  auto fedByC = [&](const std::string& actor) {
    return c100 + actor +
           "<line from=\"C\" fromPort=\"1\" to=\"X\" toPort=\"1\"/>";
  };
  const std::vector<std::string> models = {
      xml("literal",
          "<actor name=\"C\" type=\"Constant\"><param name=\"dtype\" "
          "value=\"i8\"/><param name=\"value\" value=\"128\"/></actor>",
          "C"),
      xml("unknown", fedByC("<actor name=\"X\" type=\"NoSuchActor\"/>"), "X"),
      xml("shift",
          fedByC("<actor name=\"X\" type=\"ShiftArithmetic\"><param "
                 "name=\"bits\" value=\"70\"/></actor>"),
          "X"),
      xml("satgain",
          fedByC("<actor name=\"X\" type=\"Gain\"><param name=\"dtype\" "
                 "value=\"i8\"/><param name=\"gain\" value=\"2\"/><param "
                 "name=\"saturate\" value=\"1\"/></actor>"),
          "X"),
  };
  const fs::path sock =
      fs::temp_directory_path() /
      ("accmosd_cli_invalid_" + std::to_string(::getpid()) + ".sock");
  serve::ServeOptions so;
  so.socketPath = sock.string();
  so.requestWorkers = 1;
  test::DaemonRunner daemon(so);
  const std::string client = " --socket='" + sock.string() + "'";
  for (const std::string& m : models) {
    EXPECT_EQ(runCli("run " + m + " --steps=5"), 4) << m;
    EXPECT_EQ(runCli("info " + m), 4) << m;
    EXPECT_EQ(runCli("campaign " + m + " --seeds=2 --steps=5"), 4) << m;
    EXPECT_EQ(runCli("client run " + m + " --steps=5" + client), 4) << m;
    EXPECT_EQ(runCli("client campaign " + m + " --seeds=2 --steps=5" + client),
              4)
        << m;
  }
  std::string err;
  EXPECT_EQ(runCliErrors("run " + models[3] + " --steps=5", &err), 4);
  EXPECT_NE(err.find("cannot saturate"), std::string::npos) << err;
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
  // The run wedges at step 5 and retires at its deadline, in-process and
  // again on its retry in the child; 7 outranks the diagnostics code.
  EnvGuard fault("ACCMOS_FAULT", "hang@5");
  EXPECT_EQ(runCli("run " + model("Sample.xml") +
                   " --steps=100000 --timeout=1 --opt=-O0"),
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

// The lines a local run and a daemon run must share: everything except
// the timing (exec, codegen) and service-status lines, with the failure
// line cut at its message. The seed, kind, signal, backend and retries
// before the " — " are the contract; the message after it is free text
// naming the files the process that ran the model used.
std::vector<std::string> observations(const std::string& out) {
  std::vector<std::string> lines;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("exec", 0) == 0 || line.rfind("codegen", 0) == 0 ||
        line.rfind("service", 0) == 0) {
      continue;
    }
    if (line.rfind("failure", 0) == 0) {
      line = line.substr(0, line.find(" — "));
    }
    lines.push_back(line);
  }
  return lines;
}

// A daemon started with ACCMOS_FAULT set (in this process, so its runs
// see the fault) serves a faulting run, and the local `accmos run` of the
// same request must exit and print the same.
class CliFaultedDaemon : public CliExitCodes {
 protected:
  // Runs `args` on Sample.xml through a daemon and locally. Both must exit
  // with `wantCode` and print the same observations, which are returned.
  std::vector<std::string> sameOnBothPaths(const std::string& args,
                                           int wantCode) {
    const fs::path sock =
        fs::temp_directory_path() /
        ("accmosd_cli_test_" + std::to_string(::getpid()) + ".sock");
    serve::ServeOptions so;
    so.socketPath = sock.string();
    so.requestWorkers = 1;
    std::string clientOut;
    std::string localOut;
    {
      test::DaemonRunner daemon(so);
      EXPECT_EQ(runCliOutput("client run " + model("Sample.xml") +
                                 " --socket='" + sock.string() + "' " + args,
                             &clientOut),
                wantCode)
          << clientOut;
    }
    EXPECT_EQ(runCliOutput("run " + model("Sample.xml") + " " + args,
                           &localOut),
              wantCode)
        << localOut;
    const std::vector<std::string> got = observations(clientOut);
    EXPECT_EQ(got, observations(localOut))
        << "client:\n" << clientOut << "local:\n" << localOut;
    return got;
  }

  // Both paths print only the engine, optimize and one failure line
  // naming `wantFailure` — no observation.
  void expectSameAsLocal(const std::string& args, int wantCode,
                         const std::string& wantFailure) {
    const std::vector<std::string> got = sameOnBothPaths(args, wantCode);
    ASSERT_EQ(got.size(), 3u) << ::testing::PrintToString(got);
    EXPECT_EQ(got[0].rfind("engine", 0), 0u) << got[0];
    EXPECT_EQ(got[1].rfind("optimize", 0), 0u) << got[1];
    EXPECT_EQ(got[2].rfind("failure", 0), 0u) << got[2];
    EXPECT_NE(got[2].find(wantFailure), std::string::npos) << got[2];
  }
};

TEST_F(CliFaultedDaemon, CrashedRunExitsSixOnBothPaths) {
  EnvGuard fault("ACCMOS_FAULT", "crash@5");
  expectSameAsLocal("--steps=50 --opt=-O0", 6, "Crash (signal 11)");
}

TEST_F(CliFaultedDaemon, TimedOutRunExitsSevenOnBothPaths) {
  EnvGuard fault("ACCMOS_FAULT", "hang@5");
  expectSameAsLocal("--steps=50 --opt=-O0 --timeout=1", 7,
                    "Timeout on process after 1 retry");
}

// A simulator that fails to compile is one report on both paths. The
// fixture's cache directory is fresh, so the injected compiler failure
// reaches a real compile. The failure message carries the compiler's
// output on the lines after the failure line, so there are more than 3.
TEST_F(CliFaultedDaemon, CompileFailureExitsFiveOnBothPaths) {
  EnvGuard fault("ACCMOS_FAULT", "compile-fail:exit=2");
  const std::vector<std::string> got =
      sameOnBothPaths("--steps=50 --opt=-O0", 5);
  ASSERT_GE(got.size(), 3u);
  EXPECT_EQ(got[0].rfind("engine", 0), 0u) << got[0];
  EXPECT_EQ(got[1].rfind("optimize", 0), 0u) << got[1];
  EXPECT_EQ(got[2].rfind("failure", 0), 0u) << got[2];
  EXPECT_NE(got[2].find("CompileError"), std::string::npos) << got[2];
}

}  // namespace
}  // namespace accmos
