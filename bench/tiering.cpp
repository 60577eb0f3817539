// Tiered execution (docs/EXECUTION.md): cold-start elimination by starting
// a campaign on the interpreter tier while the native simulator compiles in
// the background, then hot-swapping mid-campaign.
//
// Two claims are measured and enforced:
//   1. Identity — merged campaign results under --tier=auto and
//      --tier=interp are bit-identical to --tier=native for every swept
//      worker count (the swap point moves timing only).
//   2. Cold-start — on a cold cache, time-to-first-completed-seed under
//      --tier=auto is >= 5x lower than --tier=native, while total campaign
//      wall-clock stays within 1.2x of pure native on a long campaign.
//
// The process exits non-zero when either claim fails, so CI can gate on it.
// Exception: the wall-clock bound assumes the background compile can
// actually overlap with execution, i.e. at least two hardware threads. On a
// single-core host the compiler and the interpreter tier time-share one
// core, so the ratio is reported (and archived in the JSON) but not
// enforced — the same caveat campaign_scaling prints for worker scaling.
//
// Knobs: ACCMOS_TIER_BENCH_SEEDS (default 96) and ACCMOS_TIER_BENCH_STEPS
// (default 500) size the timed campaign; ACCMOS_TIER_BENCH_MIN_TTFR_SPEEDUP
// (default 5) and ACCMOS_TIER_BENCH_MAX_WALL_RATIO (default 1.2) are the
// acceptance thresholds.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_models/modelgen.h"
#include "sim/campaign.h"

namespace {

namespace fs = std::filesystem;
using namespace accmos;

// The cold-start regime the tiered engine targets: a model big enough that
// compiling its generated simulator takes whole seconds, while one
// interpreted seed finishes in tens of milliseconds. (On a model that
// compiles faster than one interpreted run, tiering has nothing to win —
// the identity sweep above still covers correctness there via CSEV.)
std::unique_ptr<Model> tierDemoModel(uint64_t seed) {
  ModelBuilder b("TierDemo", seed);
  for (int k = 0; k < 4; ++k) b.addInport(DataType::F64);
  for (int k = 0; k < 40; ++k) {
    switch (k % 4) {
      case 0: b.addCompSubsystem(14); break;
      case 1: b.addLogicSubsystem(15); break;
      case 2: b.addStateSubsystem(12); break;
      default: b.addLookupSubsystem(10); break;
    }
  }
  b.addOutport(b.pool());
  return b.take();
}

// Everything the seed-order merge carries except timing and tier
// bookkeeping — the fields the determinism contract covers.
bool sameObservations(const CampaignResult& a, const CampaignResult& b) {
  if (a.cumulative.toString() != b.cumulative.toString()) return false;
  if (a.perSeed.size() != b.perSeed.size()) return false;
  for (size_t k = 0; k < a.perSeed.size(); ++k) {
    if (a.perSeed[k].failed != b.perSeed[k].failed) return false;
    if (a.perSeed[k].steps != b.perSeed[k].steps) return false;
    if (a.perSeed[k].coverage.toString() != b.perSeed[k].coverage.toString())
      return false;
    if (a.perSeed[k].cumulative.toString() !=
        b.perSeed[k].cumulative.toString())
      return false;
    if (a.perSeed[k].diagnosticKinds != b.perSeed[k].diagnosticKinds)
      return false;
  }
  if (a.diagnostics.size() != b.diagnostics.size()) return false;
  for (size_t k = 0; k < a.diagnostics.size(); ++k) {
    if (a.diagnostics[k].actorPath != b.diagnostics[k].actorPath ||
        a.diagnostics[k].kind != b.diagnostics[k].kind ||
        a.diagnostics[k].firstStep != b.diagnostics[k].firstStep ||
        a.diagnostics[k].count != b.diagnostics[k].count)
      return false;
  }
  for (CovMetric m : kAllCovMetrics) {
    if (a.mergedBitmaps.bits(m) != b.mergedBitmaps.bits(m)) return false;
  }
  return true;
}

}  // namespace

int main() {
  // Private compile cache so "cold" below means cold, and clearing it does
  // not evict anyone else's entries.
  fs::path cacheDir = fs::temp_directory_path() /
                      ("accmos-tiering-bench-" + std::to_string(::getpid()));
  ::setenv("ACCMOS_CACHE_DIR", cacheDir.c_str(), 1);
  auto clearCache = [&] {
    std::error_code ec;
    fs::remove_all(cacheDir, ec);
    fs::create_directories(cacheDir);
  };
  clearCache();

  auto model = buildBenchmarkModel("CSEV");
  Simulator sim(*model);
  TestCaseSpec base = benchStimulus("CSEV");
  bench::JsonReporter json("tiering");
  int violations = 0;

  // ---- 1. Identity sweep --------------------------------------------------
  // Short campaigns (identity needs coverage of the swap machinery, not
  // scale): auto starts cold, so its early seeds run interpreted and the
  // rest native — whatever the mix, the merge must equal the pure-native
  // reference.
  {
    std::vector<uint64_t> seeds;
    for (size_t k = 0; k < 16; ++k) seeds.push_back(1000 + 37 * k);
    const uint64_t steps = 2000;

    SimOptions refOpt = bench::engineOptions(Engine::AccMoS, steps);
    refOpt.tier = Tier::Native;
    CampaignResult ref = runCampaign(sim.flatModel(), refOpt, base, seeds);

    std::printf("Tier identity: CSEV, %zu seeds x %llu steps, merged "
                "results vs --tier=native\n",
                seeds.size(), static_cast<unsigned long long>(steps));
    bench::hr(96);
    std::printf("%-8s %8s | %7s %7s %5s | %s\n", "tier", "workers",
                "interp", "native", "swap", "identical");
    bench::hr(96);
    for (Tier tier : {Tier::Auto, Tier::Interp}) {
      if (tier == Tier::Auto) clearCache();  // cold start
      for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
        SimOptions opt = bench::engineOptions(Engine::AccMoS, steps);
        opt.tier = tier;
        opt.campaign.workers = workers;
        CampaignResult cr = runCampaign(sim.flatModel(), opt, base, seeds);
        bool same = cr.failures.empty() && sameObservations(cr, ref);
        if (!same) ++violations;
        std::printf("%-8s %8zu | %7zu %7zu %5lld | %s\n",
                    std::string(tierName(tier)).c_str(), workers,
                    cr.interpSeeds, cr.nativeSeeds, cr.tierSwapIndex,
                    same ? "yes" : "NO — VIOLATION");
        json.row()
            .str("phase", "identity")
            .str("tier", std::string(tierName(tier)))
            .count("workers", workers)
            .count("seeds", seeds.size())
            .count("steps", steps)
            .count("interp_seeds", cr.interpSeeds)
            .count("native_seeds", cr.nativeSeeds)
            .num("tier_swap_index", static_cast<double>(cr.tierSwapIndex))
            .flag("identical_to_native", same);
      }
    }
    bench::hr(96);
  }

  // ---- 2. Cold-start elimination ------------------------------------------
  // The long campaign. Both sides start on a cold cache; the native side
  // pays generate + compile before seed 0 can answer, the auto side
  // answers seed 0 on the interpreter while the same compile runs behind
  // it.
  const size_t numSeeds =
      static_cast<size_t>(bench::envSteps("ACCMOS_TIER_BENCH_SEEDS", 96));
  // Few steps per seed: the tiered win lives where the one-off compile
  // dwarfs a single run, and an interpreted seed must stay much cheaper
  // than the compile for the first result to land early.
  const uint64_t steps = bench::envSteps("ACCMOS_TIER_BENCH_STEPS", 500);
  const double minTtfrSpeedup =
      bench::envDouble("ACCMOS_TIER_BENCH_MIN_TTFR_SPEEDUP", 5.0);
  const double maxWallRatio =
      bench::envDouble("ACCMOS_TIER_BENCH_MAX_WALL_RATIO", 1.2);
  std::vector<uint64_t> seeds;
  for (size_t k = 0; k < numSeeds; ++k) seeds.push_back(4000 + 11 * k);

  auto demo = tierDemoModel(7);
  Simulator demoSim(*demo);

  std::printf("\nCold start: TierDemo (%d actors), %zu seeds x %llu steps, "
              "2 workers, cold cache\n",
              demo->countActors(), numSeeds,
              static_cast<unsigned long long>(steps));
  bench::hr(96);
  std::printf("%-8s | %12s %9s %12s | %7s %7s %5s\n", "tier",
              "first-result", "wall(s)", "compile-wait", "interp", "native",
              "swap");
  bench::hr(96);

  auto timed = [&](Tier tier) {
    clearCache();
    SimOptions opt = bench::engineOptions(Engine::AccMoS, steps);
    opt.tier = tier;
    opt.campaign.workers = 2;
    CampaignResult cr =
        runCampaign(demoSim.flatModel(), opt, TestCaseSpec{}, seeds);
    std::printf("%-8s | %11.3fs %9.3f %11.3fs | %7zu %7zu %5lld\n",
                std::string(tierName(tier)).c_str(),
                cr.timeToFirstResultSeconds, cr.wallSeconds,
                cr.compileWaitSeconds, cr.interpSeeds, cr.nativeSeeds,
                cr.tierSwapIndex);
    json.row()
        .str("phase", "cold_start")
        .str("tier", std::string(tierName(tier)))
        .count("seeds", numSeeds)
        .count("steps", steps)
        .num("time_to_first_result_s", cr.timeToFirstResultSeconds)
        .num("wall_s", cr.wallSeconds)
        .num("compile_s", cr.compileSeconds)
        .num("compile_wait_s", cr.compileWaitSeconds)
        .count("interp_seeds", cr.interpSeeds)
        .count("native_seeds", cr.nativeSeeds)
        .num("tier_swap_index", static_cast<double>(cr.tierSwapIndex));
    return cr;
  };

  CampaignResult native = timed(Tier::Native);
  CampaignResult tiered = timed(Tier::Auto);
  bench::hr(96);

  if (!sameObservations(tiered, native)) {
    std::printf("VIOLATION: tiered cold-start campaign is not bit-identical "
                "to native\n");
    ++violations;
  }
  double ttfrSpeedup =
      native.timeToFirstResultSeconds / tiered.timeToFirstResultSeconds;
  double wallRatio = tiered.wallSeconds / native.wallSeconds;
  const bool canOverlap = std::thread::hardware_concurrency() >= 2;
  std::printf("time-to-first-result speedup: %.1fx (need >= %.1fx)\n",
              ttfrSpeedup, minTtfrSpeedup);
  std::printf("wall-clock ratio vs native:   %.2fx (need <= %.2fx)\n",
              wallRatio, maxWallRatio);
  if (ttfrSpeedup < minTtfrSpeedup) {
    std::printf("VIOLATION: first result not fast enough\n");
    ++violations;
  }
  if (wallRatio > maxWallRatio) {
    if (canOverlap) {
      std::printf("VIOLATION: tiered campaign too slow overall\n");
      ++violations;
    } else {
      std::printf("NOTE: single-core host — the background compile cannot "
                  "overlap with execution,\nso the wall-clock bound is "
                  "reported but not enforced.\n");
    }
  }
  json.row()
      .str("phase", "cold_start_summary")
      .num("ttfr_speedup", ttfrSpeedup)
      .num("wall_ratio_vs_native", wallRatio)
      .num("min_ttfr_speedup", minTtfrSpeedup)
      .num("max_wall_ratio", maxWallRatio)
      .flag("wall_bound_enforced", canOverlap)
      .flag("accepted", violations == 0);
  json.write();

  std::error_code ec;
  fs::remove_all(cacheDir, ec);
  if (violations > 0) {
    std::printf("\n%d violation(s) — tiering contract broken\n", violations);
    return 1;
  }
  std::printf("\nAll tiering contracts hold.\n");
  return 0;
}
