// Effect of the pre-engine optimization pipeline (src/opt) on the step
// loop: a model with a deep constant region (folds to one Constant) and a
// large dead region (eliminated outright) is swept across every engine, on
// the optimized model (Simulator::run) and on the flattened model as given
// (the engine entry point itself). Instrumentation is off — that is the
// configuration where folding and dead-code elimination may rewrite (with
// coverage on, instrumented actors pin the model by design).
//
// Knobs: ACCMOS_BENCH_STEPS (default 100000).
#include "bench_common.h"
#include "codegen/accmos_engine.h"
#include "interp/compiled.h"
#include "interp/interpreter.h"

namespace {

// Live path: In1 -> GL -> Sum(live, constRegion) -> Out1.
// Constant region: Constant -> 40 chained Gains (all fold into the Sum's
// second operand). Dead region: In1 -> 40 chained Gains, the tail unread.
std::unique_ptr<accmos::Model> optDemoModel(int chain) {
  using namespace accmos;
  auto model = std::make_unique<Model>("OptDemo");
  System& root = model->root();

  Actor& in = root.addActor("In1", "Inport");
  in.params().setInt("port", 1);

  Actor& c = root.addActor("C", "Constant");
  c.params().setDouble("value", 1.001);
  std::string prev = "C";
  for (int k = 0; k < chain; ++k) {
    std::string name = "CG" + std::to_string(k);
    Actor& g = root.addActor(name, "Gain");
    g.params().setDouble("gain", 1.0001);
    root.connect(prev, 1, name, 1);
    prev = name;
  }

  std::string dprev = "In1";
  for (int k = 0; k < chain; ++k) {
    std::string name = "DG" + std::to_string(k);
    Actor& g = root.addActor(name, "Gain");
    g.params().setDouble("gain", 0.999);
    root.connect(dprev, 1, name, 1);
    dprev = name;
  }

  Actor& gl = root.addActor("GL", "Gain");
  gl.params().setDouble("gain", 0.5);
  root.connect("In1", 1, "GL", 1);
  root.addActor("S", "Sum");
  root.connect("GL", 1, "S", 1);
  root.connect(prev, 1, "S", 2);
  Actor& out = root.addActor("Out1", "Outport");
  out.params().setInt("port", 1);
  root.connect("S", 1, "Out1", 1);
  return model;
}

}  // namespace

int main() {
  using namespace accmos;
  const uint64_t steps = bench::benchSteps();
  const int chain = 40;
  auto model = optDemoModel(chain);
  Simulator sim(*model);
  TestCaseSpec tests;
  tests.seed = 9;

  std::printf("Optimization pipeline: step-loop effect (%llu steps, "
              "%d-actor constant region + %d-actor dead region)\n",
              static_cast<unsigned long long>(steps), chain + 1, chain);
  bench::hr(92);
  std::printf("%-7s %10s %10s %9s | %s\n", "engine", "no-opt(s)", "opt(s)",
              "speedup", "pass statistics");
  bench::hr(92);

  bench::JsonReporter json("opt_passes");
  using EngineFn = SimulationResult (*)(const FlatModel&, const SimOptions&,
                                        const TestCaseSpec&);
  const std::pair<Engine, EngineFn> engines[] = {
      {Engine::SSE, runInterpreter},
      {Engine::SSEac, runAccelerator},
      {Engine::SSErac, runRapidAccelerator},
      {Engine::AccMoS, runAccMoS}};
  for (const auto& [e, runAsGiven] : engines) {
    SimOptions opt = bench::engineOptions(e, steps);
    opt.coverage = false;
    opt.diagnosis = false;

    auto plain = runAsGiven(sim.flatModel(), opt, tests);
    auto opted = sim.run(opt, tests);

    double speedup = plain.execSeconds / opted.execSeconds;
    const OptStats& st = opted.optStats;
    std::printf("%-7s %9.3fs %9.3fs %8.2fx | %s\n",
                std::string(engineName(e)).c_str(), plain.execSeconds,
                opted.execSeconds, speedup, st.summary().c_str());
    json.row()
        .str("engine", std::string(engineName(e)))
        .count("steps", steps)
        .num("noopt_exec_s", plain.execSeconds)
        .num("opt_exec_s", opted.execSeconds)
        .num("speedup", speedup)
        .num("noopt_ns_per_step", 1e9 * plain.execSeconds /
                                      static_cast<double>(steps))
        .num("opt_ns_per_step", 1e9 * opted.execSeconds /
                                    static_cast<double>(steps))
        .count("actors_before", static_cast<uint64_t>(st.actorsBefore))
        .count("actors_after", static_cast<uint64_t>(st.actorsAfter))
        .count("actors_folded", static_cast<uint64_t>(st.actorsFolded))
        .count("identities_bypassed",
               static_cast<uint64_t>(st.identitiesBypassed))
        .count("actors_eliminated",
               static_cast<uint64_t>(st.actorsEliminated))
        .count("signals_eliminated",
               static_cast<uint64_t>(st.signalsEliminated))
        .count("state_updates_hoisted",
               static_cast<uint64_t>(st.stateUpdatesHoisted));
  }
  bench::hr(92);
  std::printf(
      "\nExpected shape: the interpreting engines (SSE/SSEac/SSErac) gain\n"
      "roughly in proportion to the removed actors; AccMoS gains less —\n"
      "the C++ compiler already folds some of the constant region — but\n"
      "compiles a much smaller translation unit.\n");
  json.write();
  return 0;
}
