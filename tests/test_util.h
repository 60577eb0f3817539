// Shared helpers for the test suite: tiny-model construction and
// cross-engine result comparison.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "actors/spec.h"
#include "graph/flatten.h"
#include "ir/arith.h"
#include "ir/model.h"
#include "sim/simulator.h"

namespace accmos::test {

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

// Runs the model on the given engine for `steps` with default options.
inline SimulationResult runOn(Model& m, Engine engine, uint64_t steps,
                              const TestCaseSpec& tests = TestCaseSpec{}) {
  SimOptions opt;
  opt.engine = engine;
  opt.maxSteps = steps;
  if (engine == Engine::SSEac || engine == Engine::SSErac) {
    opt.coverage = false;
    opt.diagnosis = false;
  }
  return simulate(m, opt, tests);
}

// Same, with explicit control over the pre-engine optimization pipeline —
// the opt-mode differential tests compare optimize=true against the
// optimize=false baseline.
inline SimulationResult runOn(Model& m, Engine engine, uint64_t steps,
                              bool optimize, const TestCaseSpec& tests) {
  SimOptions opt;
  opt.engine = engine;
  opt.maxSteps = steps;
  opt.optimize = optimize;
  if (engine == Engine::SSEac || engine == Engine::SSErac) {
    opt.coverage = false;
    opt.diagnosis = false;
  }
  return simulate(m, opt, tests);
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
