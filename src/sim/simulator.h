// The user-facing simulation facade: pick an engine, provide test cases,
// get a SimulationResult. This is the API the examples and benches use.
#pragma once

#include <memory>

#include "graph/flat_model.h"
#include "ir/model.h"
#include "sim/options.h"
#include "sim/result.h"
#include "sim/testcase.h"

namespace accmos {

class Simulator {
 public:
  // Preprocesses (flattens, schedules, validates) the model once; the
  // Model must outlive the Simulator.
  explicit Simulator(const Model& model);
  // The flat model points into `model`, so a temporary would dangle.
  Simulator(Model&&) = delete;

  const FlatModel& flatModel() const { return fm_; }

  // Runs one simulation. Throws ModelError when the options are invalid
  // for the chosen engine — the fast modes cannot collect coverage,
  // diagnose, monitor signals, or run custom diagnostics (paper §2), and
  // only AccMoS observes a run timeout (checkRunTimeout).
  SimulationResult run(const SimOptions& opt, const TestCaseSpec& tests) const;

 private:
  FlatModel fm_;
};

// Throws ModelError when opt sets a run timeout (runTimeoutSec > 0) for
// an engine other than AccMoS: only generated code observes the deadline,
// so any other engine would silently ignore it.
void checkRunTimeout(const SimOptions& opt);

// One-shot convenience.
SimulationResult simulate(const Model& model, const SimOptions& opt,
                          const TestCaseSpec& tests);

}  // namespace accmos
