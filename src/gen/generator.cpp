#include "gen/generator.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "actors/spec.h"
#include "gen/mutate.h"
#include "opt/pipeline.h"

namespace accmos::gen {
namespace {

// Bitmap slots of `cand` set for the first time relative to `global`, over
// the enabled metrics only. This is the greedy acceptance signal: > 0 means
// the candidate reached somewhere no accepted case has.
size_t countNewBits(const CoverageRecorder& cand,
                    const CoverageRecorder& global,
                    const std::vector<CovMetric>& metrics) {
  size_t n = 0;
  for (CovMetric m : metrics) {
    const auto& c = cand.bits(m);
    const auto& g = global.bits(m);
    for (size_t k = 0; k < c.size(); ++k) {
      if (c[k] && (k >= g.size() || !g[k])) ++n;
    }
  }
  return n;
}

bool allCovered(const CoveragePlan& plan, const CoverageRecorder& global,
                const std::vector<CovMetric>& metrics) {
  for (CovMetric m : metrics) {
    const auto& g = global.bits(m);
    if (static_cast<int>(g.size()) < plan.totalSlots(m)) return false;
    for (int k = 0; k < plan.totalSlots(m); ++k) {
      if (!g[static_cast<size_t>(k)]) return false;
    }
  }
  return true;
}

}  // namespace

GenResult runGeneration(const FlatModel& fm, const SimOptions& opt,
                        const GenOptions& gopt) {
  if (gopt.budget == 0) {
    throw ModelError("test-case generation needs a non-zero budget");
  }
  if (gopt.batch == 0) {
    throw ModelError("test-case generation needs a non-zero batch size");
  }
  gopt.base.validate();

  auto wall0 = std::chrono::steady_clock::now();
  GenResult out;

  // Optimize once up front, like a campaign: every candidate evaluates the
  // same model, so the pipeline cost amortizes across the whole search.
  FlatModel optimized;
  const FlatModel* model = &fm;
  if (opt.optimize) {
    optimized = optimizeModel(fm, opt, &out.optStats);
    model = &optimized;
  }

  CoveragePlan plan = CoveragePlan::build(
      *model, [](const FlatActor& fa) { return covTraitsFor(fa); });
  out.mergedBitmaps = CoverageRecorder(plan);

  std::vector<CovMetric> metrics;
  if (gopt.targetMetric) {
    metrics.push_back(*gopt.targetMetric);
  } else {
    metrics.assign(std::begin(kAllCovMetrics), std::end(kAllCovMetrics));
  }

  // The evaluator (and its per-shape compiled simulators / per-worker
  // interpreters) persists across iterations, so only genuinely new
  // stimulus shapes pay generation + compilation.
  SpecEvaluator evaluator(*model, opt);

  MutationContext ctx;
  ctx.numPorts = std::max<size_t>(model->rootInports.size(), 1);
  ctx.stepsPerRun = opt.maxSteps;

  SplitMix64 rng(gopt.genSeed);
  std::set<std::pair<int, DiagKind>> diagSeen;

  size_t iteration = 0;
  bool saturated = allCovered(plan, out.mergedBitmaps, metrics);
  while (!saturated && out.evaluations < gopt.budget) {
    size_t room = gopt.budget - out.evaluations;
    std::vector<Mutant> cands;
    if (iteration == 0 || out.corpus.empty()) {
      // Bootstrap (or re-bootstrap if nothing has been accepted yet): the
      // base spec plus seed-rerolled variants of it.
      size_t n = std::min(std::max<size_t>(gopt.bootstrap, 1), room);
      for (size_t k = 0; k < n; ++k) {
        Mutant m;
        m.spec = gopt.base;
        m.mutation = "bootstrap";
        if (k > 0 || iteration > 0) m.spec.seed = rng.next();
        cands.push_back(std::move(m));
      }
    } else {
      size_t n = std::min(gopt.batch, room);
      for (size_t k = 0; k < n; ++k) {
        // Parent selection biased toward recent entries: newer corpus
        // members tend to sit closer to the coverage frontier.
        size_t a = rng.next() % out.corpus.size();
        size_t b = rng.next() % out.corpus.size();
        cands.push_back(mutate(out.corpus, std::max(a, b), ctx, rng));
      }
    }

    std::vector<TestCaseSpec> specs;
    specs.reserve(cands.size());
    for (const auto& c : cands) specs.push_back(c.spec);
    std::vector<SimulationResult> results = evaluator.evaluate(specs);
    out.evaluations += specs.size();

    // Acceptance is judged strictly in candidate order against the global
    // state, and only ACCEPTED candidates update it — both are load-bearing
    // for the determinism contract (worker count must not matter) and for
    // the invariant that replaying the corpus reproduces mergedBitmaps.
    size_t accepted = 0;
    size_t failed = 0;
    for (size_t k = 0; k < cands.size(); ++k) {
      const SimulationResult& res = results[k];
      if (res.failed) {
        // Contained failure: record and reject. The candidate's bitmaps
        // are empty, so this branch only makes the rejection explicit
        // (and bookkept) rather than accidental.
        RunFailure f = res.failure;
        f.seed = specs[k].seed;
        f.index = out.evaluations - specs.size() + k;
        out.failures.push_back(std::move(f));
        ++failed;
        continue;
      }
      size_t newBits = countNewBits(res.bitmaps, out.mergedBitmaps, metrics);
      std::vector<std::pair<int, DiagKind>> newPairs;
      if (gopt.keepDiagFinders) {
        for (const auto& d : res.diagnostics) {
          std::pair<int, DiagKind> key{d.actorId, d.kind};
          if (!diagSeen.count(key) &&
              std::find(newPairs.begin(), newPairs.end(), key) ==
                  newPairs.end()) {
            newPairs.push_back(key);
          }
        }
      }
      if (newBits == 0 && newPairs.empty()) continue;

      out.mergedBitmaps.merge(res.bitmaps);
      diagSeen.insert(newPairs.begin(), newPairs.end());
      CorpusEntry e;
      e.parent = cands[k].parent;
      e.mutation = cands[k].mutation;
      e.iteration = iteration;
      e.spec = cands[k].spec;
      e.coverage = res.coverage;
      e.newBits = newBits;
      e.newDiagKinds = newPairs.size();
      out.corpus.add(std::move(e));
      ++accepted;
    }

    GenIteration it;
    it.iteration = iteration;
    it.evaluated = specs.size();
    it.accepted = accepted;
    it.failed = failed;
    it.corpusSize = out.corpus.size();
    it.diagKinds = diagSeen.size();
    it.cumulative = makeReport(plan, out.mergedBitmaps);
    out.trajectory.push_back(std::move(it));

    saturated = allCovered(plan, out.mergedBitmaps, metrics);
    ++iteration;
  }

  out.saturated = saturated;
  out.finalCoverage = makeReport(plan, out.mergedBitmaps);
  out.uncovered = listUncovered(*model, plan, out.mergedBitmaps);
  out.diagKinds = diagSeen.size();
  out.enginesBuilt = evaluator.enginesBuilt();
  out.compileWaitSeconds = evaluator.compileSeconds();

  if (!gopt.corpusDir.empty()) {
    bool scalarPorts = true;
    for (int id : model->rootInports) {
      const FlatActor& fa = model->actor(id);
      if (fa.outputs.empty() ||
          model->signal(fa.outputs[0]).width != 1) {
        scalarPorts = false;
        break;
      }
    }
    writeCorpusDir(out.corpus, gopt.corpusDir, model->rootInports.size(),
                   opt.maxSteps, scalarPorts);
  }

  auto wall1 = std::chrono::steady_clock::now();
  out.wallSeconds = std::chrono::duration<double>(wall1 - wall0).count();
  return out;
}

}  // namespace accmos::gen
