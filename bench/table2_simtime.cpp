// Reproduces Table 2: comparison of simulation time across AccMoS, SSE,
// SSEac and SSErac on the ten benchmark models.
//
// The paper runs 50 million steps; this harness runs ACCMOS_BENCH_STEPS
// (default 100k — all engines are step-linear, so the improvement ratios
// are directly comparable). AccMoS/SSE run fully instrumented (coverage +
// diagnosis); the fast modes run without, since they cannot (paper §2).
// AccMoS's code generation/compilation time is reported separately, as in
// the paper (Table 2 measures simulation time; the generated simulator is
// compiled once per model).
#include <cmath>

#include "bench_common.h"
#include "codegen/accmos_engine.h"

int main() {
  using namespace accmos;
  const uint64_t steps = bench::benchSteps();
  std::printf("Table 2: Comparison of simulation time (%llu steps per run; "
              "paper used 50M)\n",
              static_cast<unsigned long long>(steps));
  bench::hr(108);
  std::printf("%-7s %9s %9s %9s %9s | %9s %9s %9s | %9s %9s %6s\n",
              "Model", "AccMoS", "SSE", "SSEac", "SSErac", "xSSE", "xSSEac",
              "xSSErac", "gen(s)", "compile(s)", "cache");
  bench::hr(108);

  bench::JsonReporter json("table2_simtime");
  double sumRatio[3] = {0, 0, 0};
  int count = 0;
  for (const auto& info : benchmarkSuite()) {
    auto model = buildBenchmarkModel(info.name);
    Simulator sim(*model);
    TestCaseSpec tests = benchStimulus(info.name);

    AccMoSEngine engine(sim.flatModel(),
                        bench::engineOptions(Engine::AccMoS, steps), tests);
    const SimulationResult acc = engine.run();
    const double genSeconds = engine.generateSeconds();
    const double compileSeconds = engine.compileSeconds();
    const bool cacheHit = engine.compileCacheHit();

    auto sse = sim.run(bench::engineOptions(Engine::SSE, steps), tests);
    auto ac = sim.run(bench::engineOptions(Engine::SSEac, steps), tests);
    auto rac = sim.run(bench::engineOptions(Engine::SSErac, steps), tests);

    double r1 = sse.execSeconds / acc.execSeconds;
    double r2 = ac.execSeconds / acc.execSeconds;
    double r3 = rac.execSeconds / acc.execSeconds;
    sumRatio[0] += r1;
    sumRatio[1] += r2;
    sumRatio[2] += r3;
    ++count;

    std::printf(
        "%-7s %8.3fs %8.3fs %8.3fs %8.3fs | %8.1fx %8.1fx %8.1fx | "
        "%9.3f %9.3f %6s\n",
        info.name.c_str(), acc.execSeconds, sse.execSeconds, ac.execSeconds,
        rac.execSeconds, r1, r2, r3, genSeconds, compileSeconds,
        cacheHit ? "hit" : "miss");
    json.row()
        .str("model", info.name)
        .count("steps", steps)
        .num("accmos_exec_s", acc.execSeconds)
        .num("accmos_load_s", acc.loadSeconds)
        .num("sse_exec_s", sse.execSeconds)
        .num("sseac_exec_s", ac.execSeconds)
        .num("sserac_exec_s", rac.execSeconds)
        .num("speedup_vs_sse", r1)
        .num("speedup_vs_sseac", r2)
        .num("speedup_vs_sserac", r3)
        .num("generate_s", genSeconds)
        .num("compile_s", compileSeconds)
        .flag("compile_cache_hit", cacheHit);
  }
  bench::hr(108);
  std::printf("%-7s %9s %9s %9s %9s | %8.1fx %8.1fx %8.1fx   (paper "
              "avg: 215.3x / 76.3x / 19.8x)\n",
              "AVG", "", "", "", "", sumRatio[0] / count, sumRatio[1] / count,
              sumRatio[2] / count);
  std::printf(
      "\nExpected shape: AccMoS fastest on every model; SSE slowest;\n"
      "computation-heavy models (LANS, LEDLC, SPV, TCP) show the largest\n"
      "AccMoS-vs-SSE ratios (paper §4 analysis). Absolute ratios are\n"
      "smaller than the paper's because the SSE stand-in is a lean\n"
      "in-process interpreter rather than a full Simulink engine.\n");
  json.write();
  return 0;
}
