// Coverage-guided test-case generation: the greedy feedback loop that
// closes the circle from coverage bitmaps back to stimulus search.
//
// The paper motivates coverage collection as the way to "validate that
// test cases are comprehensive enough to cover different parts of models"
// (§3.2.A); with AccMoS making per-case runs nearly free (one compiled
// binary re-executed per candidate) the bitmaps can *drive* the search:
// mutate corpus specs, batch-evaluate candidates through the campaign
// worker pool, keep any candidate that sets a previously-unset bitmap slot
// in an enabled metric — or, optionally, triggers a new distinct
// (actor, diagnostic kind) event.
//
// Determinism contract: a fixed generator seed (plus fixed budget, batch
// size, base spec and model) reproduces the whole search bit-exactly —
// final corpus, per-iteration trajectory and merged bitmaps — for ANY
// worker count. Candidates are derived from one SplitMix64 stream on the
// driving thread, every engine is deterministic per spec, and acceptance
// is judged strictly in candidate order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gen/corpus.h"
#include "opt/stats.h"
#include "sim/campaign.h"

namespace accmos::gen {

struct GenOptions {
  uint64_t genSeed = 1;
  size_t budget = 128;    // total candidate evaluations, bootstrap included
  size_t batch = 8;       // candidates per iteration (one evaluator batch)
  size_t bootstrap = 4;   // round-0 seed variants of `base`
  // When set, acceptance judges only this metric's bitmap (the CLI's
  // --target-metric); otherwise any enabled metric counts.
  std::optional<CovMetric> targetMetric;
  // Treat a new distinct (actor, diagnostic kind) pair as interesting even
  // without new coverage — the generator then also hunts error states.
  bool keepDiagFinders = true;
  TestCaseSpec base;      // starting stimulus (e.g. the model's embedded one)
  std::string corpusDir;  // when set, export the final corpus here
};

struct GenIteration {
  size_t iteration = 0;   // 0 = bootstrap round
  size_t evaluated = 0;   // candidates evaluated in this iteration
  size_t accepted = 0;
  size_t failed = 0;      // candidates whose run was contained as a failure
  size_t corpusSize = 0;  // after this iteration
  size_t diagKinds = 0;   // distinct (actor, kind) pairs after this iteration
  CoverageReport cumulative;
};

struct GenResult {
  Corpus corpus;
  std::vector<GenIteration> trajectory;
  CoverageReport finalCoverage;
  // Union over accepted corpus entries — replaying the corpus reproduces
  // exactly these bitmaps (rejected candidates by definition contributed
  // no new target-metric bits).
  CoverageRecorder mergedBitmaps;
  std::vector<UncoveredPoint> uncovered;  // what remains, as a target list
  size_t evaluations = 0;
  size_t diagKinds = 0;
  bool saturated = false;  // every enabled point covered before the budget
  double wallSeconds = 0.0;
  OptStats optStats;
  size_t enginesBuilt = 0;  // AccMoS: distinct stimulus shapes compiled
  // Wall seconds the search blocked on the compiler: the per-shape
  // compile time, since every engine compiles before its first run.
  double compileWaitSeconds = 0.0;
  // Contained per-candidate failures (timeouts, crashes, compile
  // failures), in evaluation order; RunFailure::index is the global
  // candidate index. A faulting candidate is simply never accepted — the
  // search carries on, and the determinism contract still holds as long
  // as the faults themselves are deterministic (which injected ones are).
  std::vector<RunFailure> failures;
};

// Runs the feedback loop on `fm` for gopt.budget candidate evaluations of
// opt.maxSteps steps each. Requires an instrumented engine (SSE or AccMoS)
// with coverage enabled; the optimization pipeline runs once up front when
// opt.optimize is set. opt.campaign.workers fans each candidate batch over
// the worker pool.
GenResult runGeneration(const FlatModel& fm, const SimOptions& opt,
                        const GenOptions& gopt);

}  // namespace accmos::gen
