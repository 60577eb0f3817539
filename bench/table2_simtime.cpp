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
//
// AccMoS is measured under both execution backends (docs/EXECUTION.md):
// the in-process dlopen backend and the subprocess backend. At Table 2
// scale the per-step cost is identical generated code, so the columns
// mostly differ by the per-run overhead the dlopen backend removes.
#include <cmath>

#include "bench_common.h"
#include "codegen/accmos_engine.h"

int main() {
  using namespace accmos;
  const uint64_t steps = bench::benchSteps();
  std::printf("Table 2: Comparison of simulation time (%llu steps per run; "
              "paper used 50M)\n",
              static_cast<unsigned long long>(steps));
  bench::hr(118);
  std::printf("%-7s %9s %9s %9s %9s %9s | %9s %9s %9s | %9s %9s %6s\n",
              "Model", "Acc-dl", "Acc-pr", "SSE", "SSEac", "SSErac", "xSSE",
              "xSSEac", "xSSErac", "gen(s)", "compile(s)", "cache");
  bench::hr(118);

  bench::JsonReporter json("table2_simtime");
  double sumRatio[3] = {0, 0, 0};
  int count = 0;
  for (const auto& info : benchmarkSuite()) {
    auto model = buildBenchmarkModel(info.name);
    Simulator sim(*model);
    TestCaseSpec tests = benchStimulus(info.name);

    // One engine per exec backend; the generated source (and thus the
    // per-step cost) is identical, only the run transport differs.
    SimulationResult acc[2];
    double genSeconds = 0.0;
    double compileSeconds = 0.0;
    bool cacheHit = false;
    const ExecMode modes[2] = {ExecMode::Dlopen, ExecMode::Process};
    for (int m = 0; m < 2; ++m) {
      SimOptions accOpt = bench::engineOptions(Engine::AccMoS, steps);
      accOpt.execMode = modes[m];
      AccMoSEngine engine(sim.flatModel(), accOpt, tests);
      acc[m] = engine.run();
      if (modes[m] == ExecMode::Dlopen) {
        genSeconds = engine.generateSeconds();
        compileSeconds = engine.compileSeconds();
        cacheHit = engine.compileCacheHit();
      }
    }

    auto sse = sim.run(bench::engineOptions(Engine::SSE, steps), tests);
    auto ac = sim.run(bench::engineOptions(Engine::SSEac, steps), tests);
    auto rac = sim.run(bench::engineOptions(Engine::SSErac, steps), tests);

    // Headline ratios use the default (dlopen) backend.
    double r1 = sse.execSeconds / acc[0].execSeconds;
    double r2 = ac.execSeconds / acc[0].execSeconds;
    double r3 = rac.execSeconds / acc[0].execSeconds;
    sumRatio[0] += r1;
    sumRatio[1] += r2;
    sumRatio[2] += r3;
    ++count;

    std::printf(
        "%-7s %8.3fs %8.3fs %8.3fs %8.3fs %8.3fs | %8.1fx %8.1fx %8.1fx | "
        "%9.3f %9.3f %6s\n",
        info.name.c_str(), acc[0].execSeconds, acc[1].execSeconds,
        sse.execSeconds, ac.execSeconds, rac.execSeconds, r1, r2, r3,
        genSeconds, compileSeconds, cacheHit ? "hit" : "miss");
    for (int m = 0; m < 2; ++m) {
      json.row()
          .str("model", info.name)
          .str("exec_mode", std::string(execModeName(modes[m])))
          .count("steps", steps)
          .num("accmos_exec_s", acc[m].execSeconds)
          .num("accmos_load_s", acc[m].loadSeconds)
          .num("sse_exec_s", sse.execSeconds)
          .num("sseac_exec_s", ac.execSeconds)
          .num("sserac_exec_s", rac.execSeconds)
          .num("speedup_vs_sse", sse.execSeconds / acc[m].execSeconds)
          .num("speedup_vs_sseac", ac.execSeconds / acc[m].execSeconds)
          .num("speedup_vs_sserac", rac.execSeconds / acc[m].execSeconds)
          .num("generate_s", genSeconds)
          .num("compile_s", compileSeconds)
          // Every engine builds before its first run, so the run blocks
          // for the whole compile.
          .num("compile_wait_s", compileSeconds)
          .flag("compile_cache_hit", cacheHit);
    }
  }
  bench::hr(118);
  std::printf("%-7s %9s %9s %9s %9s %9s | %8.1fx %8.1fx %8.1fx   (paper "
              "avg: 215.3x / 76.3x / 19.8x)\n",
              "AVG", "", "", "", "", "", sumRatio[0] / count,
              sumRatio[1] / count, sumRatio[2] / count);
  std::printf(
      "\nExpected shape: AccMoS fastest on every model; SSE slowest;\n"
      "computation-heavy models (LANS, LEDLC, SPV, TCP) show the largest\n"
      "AccMoS-vs-SSE ratios (paper §4 analysis). Absolute ratios are\n"
      "smaller than the paper's because the SSE stand-in is a lean\n"
      "in-process interpreter rather than a full Simulink engine.\n"
      "Acc-dl vs Acc-pr isolates per-run transport overhead; it matters\n"
      "little at Table 2 scale and a lot for many short runs (see the\n"
      "campaign_scaling bench).\n");
  json.write();
  return 0;
}
