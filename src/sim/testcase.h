// Test-case import (paper §3.3: "the main function initializes them before
// simulation and acquires the corresponding values for each input port
// during the simulation loop").
//
// A TestCaseSpec is declarative so the same stimulus can be replayed by the
// interpreters and handed to generated code as run data: a seeded
// SplitMix64 stream per port, or explicit cycled sequences, or a CSV file
// (materialized into sequences at load time).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/flat_model.h"
#include "ir/arith.h"
#include "ir/value.h"

namespace accmos {

struct PortStimulus {
  // Uniform random in [min, max) when `sequence` is empty; otherwise the
  // explicit sequence cycled over steps.
  double min = 0.0;
  double max = 1.0;
  std::vector<double> sequence;

  // Rejects stimulus that would generate garbage values: a reversed or
  // non-finite range when the range is what will be drawn from, or
  // non-finite sequence elements. `what` names the port in the ModelError.
  void validate(const std::string& what) const;
};

struct TestCaseSpec {
  uint64_t seed = 1;
  // Per root-inport stimulus; ports beyond the list use `defaultPort`.
  std::vector<PortStimulus> ports;
  PortStimulus defaultPort;

  const PortStimulus& port(int idx) const {
    return idx < static_cast<int>(ports.size())
               ? ports[static_cast<size_t>(idx)]
               : defaultPort;
  }

  // Validates every listed port plus the default — the engines call this
  // before a spec is first used, so malformed stimulus fails fast as a
  // ModelError instead of producing silent garbage values.
  void validate() const;

  // Loads explicit sequences from a CSV file (one column per root inport,
  // '#' comments allowed). Throws a line-numbered ModelError on malformed
  // input: ragged rows, empty files, and a cell that is not wholly one
  // number apart from surrounding whitespace (named by line and column).
  static TestCaseSpec fromCsv(const std::string& path);

  // Inverse of fromCsv: writes one column per port. Every port must carry
  // an explicit sequence and all sequences must have the same length (the
  // shape fromCsv produces); throws ModelError otherwise. Values are
  // written with enough precision to round-trip doubles exactly.
  void toCsv(const std::string& path) const;
  std::string toCsvString() const;
};

// The test cases of one batch, each held once: either explicit specs, or
// one base spec run under each seed of a list (a seeds campaign, which thus
// keeps no spec per seed). A view, like std::span: the specs, base spec
// and seeds it refers to must outlive it. It converts implicitly from a
// vector or a braced list of specs, so a call such as evaluate({spec})
// may pass a temporary, which lives until the call returns.
class SpecBatch {
 public:
  SpecBatch(const std::vector<TestCaseSpec>& specs)  // NOLINT: implicit
      : specs_(specs) {}
  SpecBatch(std::initializer_list<TestCaseSpec> specs)  // NOLINT: implicit
      : specs_(specs.begin(), specs.size()) {}
  SpecBatch(const TestCaseSpec& base, const std::vector<uint64_t>& seeds)
      : base_(&base), seeds_(seeds) {}

  size_t size() const {
    return base_ != nullptr ? seeds_.size() : specs_.size();
  }
  bool empty() const { return size() == 0; }

  // Test case k's ports and default port. Its seed is seed(k), whatever
  // the seed field of the stimulus holds.
  const TestCaseSpec& stimulus(size_t k) const {
    return base_ != nullptr ? *base_ : specs_[k];
  }
  uint64_t seed(size_t k) const {
    return base_ != nullptr ? seeds_[k] : specs_[k].seed;
  }

  // Test case k whole: the explicit spec, or `scratch` holding the base
  // spec under seed k. An empty scratch takes a copy of the base spec;
  // after that only its seed changes.
  const TestCaseSpec& spec(size_t k,
                           std::optional<TestCaseSpec>& scratch) const;

  // validate() on each stimulus: every explicit spec, or the base spec
  // once.
  void validate() const;

  // Input iteration over the test cases, each whole: spec(k, scratch)
  // with one scratch per pass.
  class Iterator {
   public:
    Iterator(const SpecBatch* batch, size_t k) : batch_(batch), k_(k) {}
    const TestCaseSpec& operator*() { return batch_->spec(k_, scratch_); }
    Iterator& operator++() {
      ++k_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return k_ != other.k_; }

   private:
    const SpecBatch* batch_;
    size_t k_;
    std::optional<TestCaseSpec> scratch_;
  };
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size()}; }

 private:
  std::span<const TestCaseSpec> specs_;  // explicit specs, when base_ is null
  const TestCaseSpec* base_ = nullptr;
  std::span<const uint64_t> seeds_;
};

// The shortest text that parses back to exactly `v` (%.17g at worst): the
// number format of test-case CSVs and corpus spec files.
std::string fmtExact(double v);

// The runtime generator all in-process engines use; generated code embeds
// the same runtime core (ir/arith_core.h), so every engine sees the same
// stimulus for a given spec.
class StimulusStream {
 public:
  StimulusStream(const TestCaseSpec& spec, const FlatModel& fm);

  // Writes step `step`'s values into the root-inport output signals.
  void fill(uint64_t step, std::vector<Value>& signals);

 private:
  struct PortState {
    int signalId;
    PortStimulus stim;
    SplitMix64 rng{0};
  };
  std::vector<PortState> ports_;
};

}  // namespace accmos
