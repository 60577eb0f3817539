// Unit tests for the pre-engine optimization pipeline (src/opt): constant
// folding with runtime-exact wrap semantics, instrumentation-aware dead
// actor elimination, algebraic identity bypasses with their float-domain
// guards, and dense schedule compaction with delay-class hoisting. The
// broad observation-equivalence property is covered by the fuzz
// differential suite; these tests pin down each pass's structural effect.
#include <gtest/gtest.h>

#include "opt/passes.h"
#include "opt/pipeline.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

// Instrumentation off: the configuration where every pass may rewrite.
SimOptions bare() {
  SimOptions o;
  o.coverage = false;
  o.diagnosis = false;
  return o;
}

int countType(const FlatModel& fm, const std::string& type) {
  int n = 0;
  for (const auto& fa : fm.actors) n += fa.type() == type ? 1 : 0;
  return n;
}

const FlatActor* findType(const FlatModel& fm, const std::string& type) {
  for (const auto& fa : fm.actors) {
    if (fa.type() == type) return &fa;
  }
  return nullptr;
}

// ---- constant folding -----------------------------------------------------

TEST(ConstFold, WrapsExactlyLikeRuntime) {
  // int8 100 + 100 wraps to -56; folding must evaluate through the same
  // ir/arith.h semantics the engines use, not plain C arithmetic.
  Tiny t;
  Actor& c1 = t.actor("C1", "Constant");
  c1.params().setDouble("value", 100);
  c1.setDtype(DataType::I8);
  Actor& c2 = t.actor("C2", "Constant");
  c2.params().setDouble("value", 100);
  c2.setDtype(DataType::I8);
  Actor& s = t.actor("S", "Sum");
  s.setDtype(DataType::I8);
  t.outport("Out1", 1);
  t.wire("C1", "S", 1);
  t.wire("C2", "S", 2);
  t.wire("S", "Out1");

  OptStats st;
  FlatModel fm = optimizeModel(t.flatten(), bare(), &st);
  EXPECT_EQ(st.actorsFolded, 1);
  // The Sum became a Constant; its now-dead inputs were swept.
  ASSERT_EQ(fm.actors.size(), 2u);
  const FlatActor* folded = findType(fm, "Constant");
  ASSERT_NE(folded, nullptr);
  EXPECT_EQ(folded->src->params().getDouble("value", 0.0), -56.0);
  EXPECT_TRUE(folded->inputs.empty());

  auto base = test::runUnoptimized(
      t.model(), test::engineOptions(Engine::SSE, 10), TestCaseSpec{});
  auto opt = test::runOn(t.model(), Engine::SSE, 10);
  test::expectSameOutputs(base, opt, "i8 wrap fold");
  ASSERT_EQ(opt.finalOutputs.size(), 1u);
  EXPECT_EQ(opt.finalOutputs[0].asInt(0), -56);
}

TEST(ConstFold, PropagatesThroughChains) {
  // Constant -> Gain -> Gain folds transitively in one schedule-order walk.
  Tiny t;
  Actor& c = t.actor("C", "Constant");
  c.params().setDouble("value", 3.0);
  Actor& g1 = t.actor("G1", "Gain");
  g1.params().setDouble("gain", 2.0);
  Actor& g2 = t.actor("G2", "Gain");
  g2.params().setDouble("gain", 5.0);
  t.outport("Out1", 1);
  t.wire("C", "G1");
  t.wire("G1", "G2");
  t.wire("G2", "Out1");

  OptStats st;
  FlatModel fm = optimizeModel(t.flatten(), bare(), &st);
  EXPECT_EQ(st.actorsFolded, 2);
  ASSERT_EQ(fm.actors.size(), 2u);  // folded G2 + Outport
  const FlatActor* folded = findType(fm, "Constant");
  ASSERT_NE(folded, nullptr);
  EXPECT_EQ(folded->src->params().getDouble("value", 0.0), 30.0);
}

TEST(ConstFold, SkipsDiagnosableActorsWhenDiagnosisOn) {
  // Product with a '/' op carries a division-by-zero check; folding it away
  // would lose the diagnostic, so with diagnosis on it must survive.
  Tiny t;
  Actor& c1 = t.actor("C1", "Constant");
  c1.params().setDouble("value", 10.0);
  Actor& c2 = t.actor("C2", "Constant");
  c2.params().setDouble("value", 2.0);
  Actor& p = t.actor("P", "Product");
  p.params().set("ops", "*/");
  t.outport("Out1", 1);
  t.wire("C1", "P", 1);
  t.wire("C2", "P", 2);
  t.wire("P", "Out1");

  SimOptions withDiag = bare();
  withDiag.diagnosis = true;
  OptStats st;
  FlatModel fm = optimizeModel(t.flatten(), withDiag, &st);
  EXPECT_EQ(st.actorsFolded, 0);
  EXPECT_EQ(countType(fm, "Product"), 1);

  // Without diagnosis the same model folds to a single Constant.
  OptStats st2;
  FlatModel fm2 = optimizeModel(t.flatten(), bare(), &st2);
  EXPECT_EQ(st2.actorsFolded, 1);
  EXPECT_EQ(countType(fm2, "Product"), 0);
}

TEST(ConstFold, FoldedActorKeepsPathAndStillEvaluates) {
  // The synthesized Constant takes over the folded actor's flat slot: same
  // path, same output signal — observation-equivalence bookkeeping.
  Tiny t;
  Actor& c = t.actor("C", "Constant");
  c.params().setDouble("value", 4.0);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 3.0);
  t.outport("Out1", 1);
  t.wire("C", "G");
  t.wire("G", "Out1");

  FlatModel before = t.flatten();
  const FlatActor* orig = nullptr;
  for (const auto& fa : before.actors) {
    if (fa.type() == "Gain") orig = &fa;
  }
  ASSERT_NE(orig, nullptr);

  OptStats st;
  FlatModel fm = optimizeModel(before, bare(), &st);
  const FlatActor* folded = findType(fm, "Constant");
  ASSERT_NE(folded, nullptr);
  EXPECT_EQ(folded->path, orig->path);
}

// ---- dead-actor elimination ----------------------------------------------

// In1 feeds both a live Gain -> Out1 chain and a dead Gain nobody reads.
std::unique_ptr<Tiny> deadRegionModel() {
  auto t = std::make_unique<Tiny>();
  t->inport("In1", 1);
  Actor& g = t->actor("G", "Gain");
  g.params().setDouble("gain", 2.0);
  Actor& d = t->actor("Gdead", "Gain");
  d.params().setDouble("gain", 7.0);
  t->actor("T", "Gain").params().setDouble("gain", 1.5);
  t->outport("Out1", 1);
  t->wire("In1", "G");
  t->wire("G", "Out1");
  t->wire("In1", "Gdead");
  t->wire("Gdead", "T");
  return t;
}

TEST(DeadCode, RemovesUnobservedRegionWhenUninstrumented) {
  auto t = deadRegionModel();
  OptStats st;
  FlatModel fm = optimizeModel(t->flatten(), bare(), &st);
  EXPECT_EQ(st.actorsEliminated, 2);  // Gdead and T
  EXPECT_EQ(fm.actors.size(), 3u);    // In1, G, Out1
  EXPECT_EQ(countType(fm, "Inport"), 1);  // stimulus position pinned
}

TEST(DeadCode, CoverageInstrumentationPinsEveryActor) {
  // With coverage on, every actor that counts toward a metric is an
  // observation root — the bitmap layout must not change.
  auto t = deadRegionModel();
  SimOptions cov = bare();
  cov.coverage = true;
  OptStats st;
  FlatModel fm = optimizeModel(t->flatten(), cov, &st);
  EXPECT_EQ(st.actorsEliminated, 0);
  EXPECT_EQ(fm.actors.size(), 5u);
}

TEST(DeadCode, CollectListPinsMonitoredActor) {
  auto t = deadRegionModel();
  FlatModel before = t->flatten();
  const FlatActor* dead = nullptr;
  for (const auto& fa : before.actors) {
    if (fa.path.find("Gdead") != std::string::npos) dead = &fa;
  }
  ASSERT_NE(dead, nullptr);

  SimOptions opts = bare();
  opts.collectList.push_back(dead->path);
  OptStats st;
  FlatModel fm = optimizeModel(before, opts, &st);
  EXPECT_EQ(st.actorsEliminated, 1);  // only T goes; Gdead is monitored
  EXPECT_NE(fm.findByPath(dead->path), nullptr);
}

// ---- identity simplification ---------------------------------------------

TEST(Identity, IntSumPlusZeroBypassed) {
  Tiny t;
  t.inport("In1", 1, DataType::I32);
  Actor& z = t.actor("Z", "Constant");
  z.params().setDouble("value", 0.0);
  z.setDtype(DataType::I32);
  Actor& s = t.actor("S", "Sum");
  s.setDtype(DataType::I32);
  t.outport("Out1", 1);
  t.wire("In1", "S", 1);
  t.wire("Z", "S", 2);
  t.wire("S", "Out1");

  OptStats st;
  FlatModel fm = optimizeModel(t.flatten(), bare(), &st);
  EXPECT_EQ(st.identitiesBypassed, 1);
  // Sum and its zero operand are unreferenced after the rewire.
  EXPECT_EQ(fm.actors.size(), 2u);  // In1, Out1
  const FlatActor* out = findType(fm, "Outport");
  ASSERT_NE(out, nullptr);
  const FlatActor* in = findType(fm, "Inport");
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(fm.signal(out->inputs[0]).producerActor, in->id);
}

TEST(Identity, FloatSumPlusZeroNotBypassed) {
  // (-0.0) + 0.0 == +0.0: dropping the add would flip a sign bit, so the
  // float Sum survives even though the int version is bypassed.
  Tiny t;
  t.inport("In1", 1, DataType::F64);
  Actor& z = t.actor("Z", "Constant");
  z.params().setDouble("value", 0.0);
  t.actor("S", "Sum");
  t.outport("Out1", 1);
  t.wire("In1", "S", 1);
  t.wire("Z", "S", 2);
  t.wire("S", "Out1");

  OptStats st;
  FlatModel fm = optimizeModel(t.flatten(), bare(), &st);
  EXPECT_EQ(st.identitiesBypassed, 0);
  EXPECT_EQ(countType(fm, "Sum"), 1);
}

TEST(Identity, GainOfOneBypassedForFloats) {
  // x * 1.0 is exact for every double (including -0.0, inf, nan).
  Tiny t;
  t.inport("In1", 1, DataType::F64);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 1.0);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");

  OptStats st;
  FlatModel fm = optimizeModel(t.flatten(), bare(), &st);
  EXPECT_EQ(st.identitiesBypassed, 1);
  EXPECT_EQ(countType(fm, "Gain"), 0);
}

TEST(Identity, BypassChainsCollapse) {
  // Gain(1) -> Gain(1) -> Out: both bypass; the consumer resolves straight
  // to the inport through the forwarding chain.
  Tiny t;
  t.inport("In1", 1, DataType::F64);
  t.actor("G1", "Gain").params().setDouble("gain", 1.0);
  t.actor("G2", "Gain").params().setDouble("gain", 1.0);
  t.outport("Out1", 1);
  t.wire("In1", "G1");
  t.wire("G1", "G2");
  t.wire("G2", "Out1");

  OptStats st;
  FlatModel fm = optimizeModel(t.flatten(), bare(), &st);
  EXPECT_EQ(st.identitiesBypassed, 2);
  EXPECT_EQ(fm.actors.size(), 2u);
  const FlatActor* out = findType(fm, "Outport");
  const FlatActor* in = findType(fm, "Inport");
  ASSERT_NE(out, nullptr);
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(fm.signal(out->inputs[0]).producerActor, in->id);
}

// ---- compaction + schedule ------------------------------------------------

TEST(Compact, RenumbersDenselyAndKeepsScheduleValid) {
  auto t = deadRegionModel();
  FlatModel fm = optimizeModel(t->flatten(), bare(), nullptr);
  // Dense ids, schedule a permutation of them, signal indices in range.
  for (size_t k = 0; k < fm.actors.size(); ++k) {
    EXPECT_EQ(fm.actors[k].id, static_cast<int>(k));
  }
  ASSERT_EQ(fm.schedule.size(), fm.actors.size());
  std::vector<char> seen(fm.actors.size(), 0);
  for (int id : fm.schedule) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, static_cast<int>(fm.actors.size()));
    EXPECT_EQ(seen[static_cast<size_t>(id)], 0);
    seen[static_cast<size_t>(id)] = 1;
  }
  for (const auto& fa : fm.actors) {
    for (int s : fa.inputs) {
      ASSERT_GE(s, 0);
      ASSERT_LT(s, static_cast<int>(fm.signals.size()));
    }
  }
  validateFlatModel(fm);  // the engines' structural invariants all hold
}

TEST(Compact, HoistsUngatedDelayActors) {
  // In1 -> Gain -> UnitDelay -> Out1: the delay's eval reads state only, so
  // compaction moves it to the front of the step schedule.
  Tiny t;
  t.inport("In1", 1);
  t.actor("G", "Gain").params().setDouble("gain", 2.0);
  t.actor("D", "UnitDelay");
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "D");
  t.wire("D", "Out1");

  OptStats st;
  FlatModel fm = optimizeModel(t.flatten(), bare(), &st);
  EXPECT_EQ(st.stateUpdatesHoisted, 1);
  ASSERT_FALSE(fm.schedule.empty());
  EXPECT_TRUE(fm.actor(fm.schedule[0]).delayClass);

  // And hoisting keeps results identical.
  auto base = test::runUnoptimized(
      t.model(), test::engineOptions(Engine::SSE, 50), TestCaseSpec{});
  auto opt = test::runOn(t.model(), Engine::SSE, 50);
  test::expectSameOutputs(base, opt, "delay hoist");
}

TEST(Pipeline, SimulateReportsThePassesWork) {
  // Every run through the facade optimizes and reports what the passes
  // did.
  auto t = deadRegionModel();
  SimOptions opts;
  opts.engine = Engine::SSE;
  opts.maxSteps = 10;
  opts.coverage = false;  // instrumentation would pin the dead region
  opts.diagnosis = false;
  auto res = simulate(t->model(), opts, TestCaseSpec{});
  EXPECT_GT(res.optStats.actorsBefore, res.optStats.actorsAfter);
}

}  // namespace
}  // namespace accmos
