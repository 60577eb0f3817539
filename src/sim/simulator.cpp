#include "sim/simulator.h"

#include "actors/spec.h"
#include "codegen/accmos_engine.h"
#include "graph/flatten.h"
#include "interp/compiled.h"
#include "interp/interpreter.h"
#include "opt/pipeline.h"

namespace accmos {
namespace {

SimulationResult dispatch(const FlatModel& fm, const SimOptions& opt,
                          const TestCaseSpec& tests) {
  switch (opt.engine) {
    case Engine::AccMoS:
      return runAccMoS(fm, opt, tests);
    case Engine::SSE:
      return runInterpreter(fm, opt, tests);
    case Engine::SSEac:
      return runAccelerator(fm, opt, tests);
    case Engine::SSErac:
      return runRapidAccelerator(fm, opt, tests);
  }
  throw ModelError("unknown engine");
}

}  // namespace

void checkRunTimeout(const SimOptions& opt) {
  if (opt.runTimeoutSec > 0.0 && opt.engine != Engine::AccMoS) {
    throw ModelError(
        "a run timeout needs the AccMoS engine: only generated code "
        "observes the deadline, and " +
        std::string(engineName(opt.engine)) + " would ignore it");
  }
}

Simulator::Simulator(const Model& model)
    : fm_(flatten(model, Registry::instance())) {
  validateFlatModel(fm_);
}

SimulationResult Simulator::run(const SimOptions& opt,
                                const TestCaseSpec& tests) const {
  bool fastMode = opt.engine == Engine::SSEac || opt.engine == Engine::SSErac;
  if (fastMode) {
    if (opt.coverage || opt.diagnosis) {
      throw ModelError(std::string(engineName(opt.engine)) +
                       " cannot perform error diagnosis or coverage "
                       "collection; set coverage=false and diagnosis=false");
    }
    if (!opt.collectList.empty() || !opt.customDiagnostics.empty()) {
      throw ModelError(std::string(engineName(opt.engine)) +
                       " cannot monitor signals or run custom diagnoses");
    }
    if (opt.stopOnDiagnostic) {
      throw ModelError(std::string(engineName(opt.engine)) +
                       " cannot stop on diagnostics (none are produced)");
    }
  }
  checkRunTimeout(opt);
  OptStats st;
  FlatModel optimized = optimizeModel(fm_, opt, &st);
  SimulationResult res = dispatch(optimized, opt, tests);
  res.optStats = st;
  return res;
}

SimulationResult simulate(const Model& model, const SimOptions& opt,
                          const TestCaseSpec& tests) {
  return Simulator(model).run(opt, tests);
}

}  // namespace accmos
