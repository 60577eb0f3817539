// Shared helpers for the test suite: tiny-model construction, scoped
// environment overrides, an in-process daemon and cross-engine result
// comparison.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "actors/spec.h"
#include "bench_models/modelgen.h"
#include "graph/flatten.h"
#include "interp/interpreter.h"
#include "ir/arith.h"
#include "ir/model.h"
#include "serve/daemon.h"
#include "sim/simulator.h"

namespace accmos::test {

// Sets (or, with nullptr, clears) an environment variable for the
// enclosing scope; the previous value is restored on exit. Child processes
// the test spawns inherit the override.
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

// Runs Daemon::run() on its own thread; the constructor has already bound
// and listened, so clients may connect as soon as this returns.
class DaemonRunner {
 public:
  explicit DaemonRunner(const serve::ServeOptions& opt)
      : daemon_(opt), thread_([this] { daemon_.run(); }) {}
  ~DaemonRunner() { stop(); }

  // Waits for run() to return WITHOUT asking for shutdown — for tests
  // where the stop came from the protocol (`client shutdown`).
  void join() {
    if (thread_.joinable()) thread_.join();
  }
  void stop() {
    daemon_.shutdown();
    join();
  }
  serve::Daemon& daemon() { return daemon_; }

 private:
  serve::Daemon daemon_;
  std::thread thread_;
};

// Fluent builder for small test models.
class Tiny {
 public:
  explicit Tiny(const std::string& name = "T") : model_(name) {}

  // Adds an actor, returns a param-setting handle.
  Actor& actor(const std::string& name, const std::string& type,
               System* sys = nullptr) {
    return (sys != nullptr ? *sys : model_.root()).addActor(name, type);
  }

  Actor& inport(const std::string& name, int port,
                DataType t = DataType::F64) {
    Actor& a = actor(name, "Inport");
    a.params().setInt("port", port);
    a.setDtype(t);
    return a;
  }

  Actor& outport(const std::string& name, int port) {
    Actor& a = actor(name, "Outport");
    a.params().setInt("port", port);
    return a;
  }

  void wire(const std::string& from, int fromPort, const std::string& to,
            int toPort) {
    model_.root().connect(from, fromPort, to, toPort);
  }
  void wire(const std::string& from, const std::string& to, int toPort = 1) {
    model_.root().connect(from, 1, to, toPort);
  }

  Model& model() { return model_; }

  FlatModel flatten() { return accmos::flatten(model_, Registry::instance()); }

 private:
  Model model_;
};

// Constant -> op -> Outport scaffold for single-actor semantics tests.
// Returns the model; the op actor is named "Op".
inline std::unique_ptr<Tiny> unaryConstModel(const std::string& type,
                                             double input,
                                             DataType inType = DataType::F64) {
  auto t = std::make_unique<Tiny>();
  Actor& c = t->actor("C", "Constant");
  c.params().setDouble("value", input);
  c.setDtype(inType);
  t->actor("Op", type);
  t->outport("Out1", 1);
  t->wire("C", "Op");
  t->wire("Op", "Out1");
  return t;
}

// A structurally random model from the pattern library, the fuzz
// differentials' input: 3-5 f64 Inports, 3-8 computational, logic, state,
// lookup or enabled subsystems, and 1-2 Outports.
inline std::unique_ptr<Model> randomModel(uint64_t seed) {
  SplitMix64 rng(seed);
  ModelBuilder b("Fuzz" + std::to_string(seed), seed);
  int inports = 3 + static_cast<int>(rng.next() % 3);
  for (int k = 0; k < inports; ++k) b.addInport(DataType::F64);
  int subsystems = 3 + static_cast<int>(rng.next() % 6);
  for (int k = 0; k < subsystems; ++k) {
    int inner = 6 + static_cast<int>(rng.next() % 12);
    switch (rng.next() % 5) {
      case 0: b.addCompSubsystem(inner); break;
      case 1: b.addLogicSubsystem(std::max(inner, ModelBuilder::kMinLogic));
        break;
      case 2: b.addStateSubsystem(std::max(inner, ModelBuilder::kMinState));
        break;
      case 3: b.addLookupSubsystem(inner); break;
      default:
        b.addEnabledCompSubsystem(inner, 0.3 + rng.nextUnit() * 0.6);
        break;
    }
  }
  int outports = 1 + static_cast<int>(rng.next() % 2);
  for (int k = 0; k < outports; ++k) b.addOutport(b.pool());
  return b.take();
}

// Expects the model to be rejected by flatten-time or validation-time
// structural checks.
inline void expectInvalid(Tiny& t) {
  EXPECT_THROW(
      {
        FlatModel fm = t.flatten();
        validateFlatModel(fm);
      },
      ModelError);
}

// Default options for `steps` on `engine`; the fast modes, which reject
// instrumentation, run without it.
inline SimOptions engineOptions(Engine engine, uint64_t steps) {
  SimOptions opt;
  opt.engine = engine;
  opt.maxSteps = steps;
  if (engine == Engine::SSEac || engine == Engine::SSErac) {
    opt.coverage = false;
    opt.diagnosis = false;
  }
  return opt;
}

// Runs the model on the given engine for `steps` with default options.
inline SimulationResult runOn(Model& m, Engine engine, uint64_t steps,
                              const TestCaseSpec& tests = TestCaseSpec{}) {
  return simulate(m, engineOptions(engine, steps), tests);
}

// The unoptimized reference the optimizer's differentials compare
// against: the SSE interpreter on flatten(m) exactly as given, without the
// optimization pipeline the Simulator facade applies. opt.engine is not
// read.
inline SimulationResult runUnoptimized(const Model& m, const SimOptions& opt,
                                       const TestCaseSpec& tests) {
  return runInterpreter(flatten(m, Registry::instance()), opt, tests);
}

// Asserts two output vectors are identical (bit-exact).
inline void expectSameOutputs(const SimulationResult& a,
                              const SimulationResult& b,
                              const std::string& label) {
  ASSERT_EQ(a.finalOutputs.size(), b.finalOutputs.size()) << label;
  for (size_t k = 0; k < a.finalOutputs.size(); ++k) {
    EXPECT_EQ(a.finalOutputs[k], b.finalOutputs[k])
        << label << " output " << k << ": " << a.finalOutputs[k].toString()
        << " vs " << b.finalOutputs[k].toString();
  }
}

// The whole-result comparison for two runs of one compiled model, wherever
// each executed: everything the result buffers carry must agree
// bit-exactly; only the timing fields and execMode may differ.
inline void expectIdenticalResults(const SimulationResult& a,
                                   const SimulationResult& b,
                                   const std::string& label) {
  EXPECT_EQ(a.stepsExecuted, b.stepsExecuted) << label;
  EXPECT_EQ(a.stoppedEarly, b.stoppedEarly) << label;
  expectSameOutputs(a, b, label);
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

// One seeded mutation of `text`, for the mutation fuzzers over untrusted
// input: a bit flip, a truncation, a deletion of up to 16 bytes, or an
// insertion of a run of 1-20 digits (half the time signed, half the time
// next to an existing digit), which drives parsers into their overflow
// and huge-count paths. The caller's fixed `rng` makes the run repeatable.
inline std::string mutateOnce(std::string text, SplitMix64& rng) {
  if (text.empty()) return text;
  auto below = [&rng](uint64_t n) { return rng.next() % n; };
  switch (below(4)) {
    case 0:  // bit flip
      text[below(text.size())] ^= static_cast<char>(1u << below(8));
      break;
    case 1:  // truncation
      text.resize(below(text.size()));
      break;
    case 2:  // deletion
      text.erase(below(text.size()), below(16) + 1);
      break;
    default: {  // digit run
      size_t at = below(text.size() + 1);
      if (below(2) == 0) {
        // Land next to a number, so the run extends it.
        while (at < text.size() &&
               !std::isdigit(static_cast<unsigned char>(text[at]))) {
          ++at;
        }
      }
      std::string run = below(2) == 0 ? "-" : "";
      for (uint64_t k = below(20) + 1; k > 0; --k) {
        run.push_back(static_cast<char>('0' + below(10)));
      }
      text.insert(at, run);
      break;
    }
  }
  return text;
}

}  // namespace accmos::test
