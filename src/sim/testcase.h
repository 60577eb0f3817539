// Test-case import (paper §3.3: "the main function initializes them before
// simulation and acquires the corresponding values for each input port
// during the simulation loop").
//
// A TestCaseSpec is declarative so the same stimulus can be replayed by the
// in-process engines and baked into generated code: a seeded SplitMix64
// stream per port, or explicit cycled sequences, or a CSV file
// (materialized into sequences at load time).
#pragma once

#include <cstdint>
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
  // input (ragged rows, unparsable cells, empty files).
  static TestCaseSpec fromCsv(const std::string& path);

  // Inverse of fromCsv: writes one column per port. Every port must carry
  // an explicit sequence and all sequences must have the same length (the
  // shape fromCsv produces); throws ModelError otherwise. Values are
  // written with enough precision to round-trip doubles exactly.
  void toCsv(const std::string& path) const;
  std::string toCsvString() const;

  // Canonical text form of the stimulus *shape* — ports, ranges and
  // sequences with the seed excluded. The campaign layer caches compiled
  // AccMoS simulators under this key: the generated code bakes the
  // stimulus but takes the seed as a runtime argument, so seed-only
  // variants of a spec share one compiled binary.
  std::string shapeKey() const;

  // True when `other` carries a bitwise-identical stimulus (every port,
  // the default port; the seed is ignored). Implies equal shapeKey()s at a
  // fraction of the cost, so callers comparing neighbouring specs can skip
  // the key. Bitwise means +0.0 and -0.0 bounds differ, as their keys do.
  bool sameShapeAs(const TestCaseSpec& other) const;
};

// The runtime generator all in-process engines use; the generated runtime
// preamble contains the byte-identical algorithm, so every engine sees the
// same stimulus for a given spec.
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
