// The actor template library (paper §3.3 "Actor Translation" and §3.4:
// "specialized code template libraries have been crafted for over fifty
// commonly used actors").
//
// Each actor type is described by one ActorSpec with three backends:
//   - eval():   boxed-value semantics for the interpreting engine (SSE),
//   - emit():   the C++ code template AccMoS expands into simulation code,
// plus structural metadata (ports, output types, state), coverage traits
// (Algorithm 1's isBranchActor / containBooleanLogic / isCombinationCondition)
// and diagnosis traits (which checks apply to a given type+operator — e.g.
// Product '/' needs division-by-zero, '*' does not).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cov/coverage.h"
#include "diag/diagnosis.h"
#include "graph/catalog.h"
#include "graph/flat_model.h"
#include "ir/arith.h"
#include "ir/value.h"

namespace accmos {

// `name` mapped to a valid C identifier fragment: alphanumerics kept,
// everything else '_', 'm' prefixed when empty or digit-leading. Lossy —
// distinct names can sanitize identically ("A.B" and "A_B"), so generated
// symbols built from user-controlled names must also carry a unique index.
std::string sanitizeIdent(const std::string& name);

// The generated-code global for data store `index`. The index makes the
// symbol collision-free even when two store names sanitize identically; the
// sanitized name keeps the source readable.
std::string dataStoreSymbol(int index, const std::string& name);

// Per-actor persistent state (delay lines, integrator accumulators,
// hysteresis flags, RNG streams).
struct StateSpec {
  DataType type = DataType::F64;
  int width = 1;
  std::vector<double> initial;  // broadcast when shorter than width
};

// ---------------------------------------------------------------------------
// Interpreter-side evaluation context.
// ---------------------------------------------------------------------------

class EvalContext {
 public:
  EvalContext(const FlatModel& fm, std::vector<Value>& signals,
              std::vector<Value>& stores)
      : fm_(&fm), signals_(&signals), stores_(&stores) {}

  // Per-actor cursor, set by the engine before each eval/update call.
  void setActor(const FlatActor* fa, Value* state) {
    fa_ = fa;
    state_ = state;
  }
  void setStep(uint64_t step) { step_ = step; }
  void setInstrumentation(const CoveragePlan* covPlan, CoverageRecorder* cov,
                          const DiagnosisPlan* diagPlan, DiagnosticSink* diag) {
    covPlan_ = covPlan;
    cov_ = cov;
    diagPlan_ = diagPlan;
    diag_ = diag;
  }
  void setStopFlag(bool* stop) { stop_ = stop; }

  const FlatModel& fm() const { return *fm_; }
  const FlatActor& fa() const { return *fa_; }
  uint64_t step() const { return step_; }

  const Value& in(int port) const {
    return (*signals_)[static_cast<size_t>(fa_->inputs[static_cast<size_t>(port)])];
  }
  Value& out(int port = 0) {
    return (*signals_)[static_cast<size_t>(fa_->outputs[static_cast<size_t>(port)])];
  }
  Value& state() { return *state_; }
  Value& store() { return (*stores_)[static_cast<size_t>(fa_->dataStore)]; }

  int numInputs() const { return static_cast<int>(fa_->inputs.size()); }

  // Coverage marks (no-ops when coverage collection is off — the fast
  // simulation modes the paper compares against cannot collect coverage).
  void decision(int outcome) {
    if (cov_ != nullptr) cov_->markDecision(covPlan_->info(fa_->id), outcome);
  }
  void condition(int idx, bool value) {
    if (cov_ != nullptr) {
      cov_->markCondition(covPlan_->info(fa_->id), idx, value);
    }
  }
  void mcdc(int idx, bool value) {
    if (cov_ != nullptr) cov_->markMcdc(covPlan_->info(fa_->id), idx, value);
  }

  // Calculation diagnosis; filtered by the diagnosis plan.
  bool diagOn(DiagKind kind) const {
    return diag_ != nullptr && diagPlan_->enabled(fa_->id, kind);
  }
  void reportDiag(DiagKind kind, const std::string& message = "") {
    if (diagOn(kind)) diag_->report(fa_->id, fa_->path, kind, step_, message);
  }

  void requestStop() {
    if (stop_ != nullptr) *stop_ = true;
  }

 private:
  const FlatModel* fm_;
  std::vector<Value>* signals_;
  std::vector<Value>* stores_;
  const FlatActor* fa_ = nullptr;
  Value* state_ = nullptr;
  uint64_t step_ = 0;
  const CoveragePlan* covPlan_ = nullptr;
  CoverageRecorder* cov_ = nullptr;
  const DiagnosisPlan* diagPlan_ = nullptr;
  DiagnosticSink* diag_ = nullptr;
  bool* stop_ = nullptr;
};

// ---------------------------------------------------------------------------
// Codegen-side emission context.
// ---------------------------------------------------------------------------

// Implemented by codegen::Emitter; specs talk to it through this interface
// so the actor library does not depend on the codegen module.
class EmitSink {
 public:
  virtual ~EmitSink() = default;

  // Appends one statement line to the current actor's compute code.
  virtual void line(const std::string& stmt) = 0;

  // Appends a statement to the current actor's state-update section, which
  // the synthesized model function runs after all actors computed their
  // outputs (the two-phase step of delay-class actors). updateLinePre
  // prepends to the section (declarations that must precede loops already
  // emitted). diagCallInUpdate mirrors diagCall but places the call in the
  // update section.
  virtual void updateLine(const std::string& stmt) = 0;
  virtual void updateLinePre(const std::string& stmt) = 0;
  virtual void diagCallInUpdate(
      const std::vector<std::pair<DiagKind, std::string>>& flags) = 0;

  // Registers a per-actor diagnostic function (the paper's Fig. 4 shape:
  // implementation elsewhere, call at a specific location) and emits the
  // call. `flags` pairs a diagnostic kind with the int variable holding
  // whether it fired this step.
  virtual void diagCall(
      const std::vector<std::pair<DiagKind, std::string>>& flags) = 0;

  // Instrumentation statements (empty strings when the metric is off).
  // Decision: `outcomeExpr` is an int expression selecting the outcome slot.
  // Condition: marks the true/false slot of condition `condIdx` from the
  // runtime value of `boolExpr`. MC/DC: marks independence of condition
  // `condIdx` shown with value `valExpr`; the caller guards the statement
  // with the masking condition.
  virtual std::string covDecisionStmt(const std::string& outcomeExpr) = 0;
  virtual std::string covConditionStmt(int condIdx,
                                       const std::string& boolExpr) = 0;
  virtual std::string covMcdcStmt(int condIdx, const std::string& valExpr) = 0;

  virtual bool covOn() const = 0;
  virtual bool diagOn(DiagKind kind) const = 0;

  // Fresh local variable name unique within the model function.
  virtual std::string freshVar(const std::string& hint) = 0;
};

class EmitContext {
 public:
  EmitContext(const FlatModel& fm, const FlatActor& fa, EmitSink& sink)
      : fm_(&fm), fa_(&fa), sink_(&sink) {}

  const FlatModel& fm() const { return *fm_; }
  const FlatActor& fa() const { return *fa_; }
  EmitSink& sink() { return *sink_; }

  // Variable names used by the emitter's declarations.
  std::string in(int port) const {
    return std::string("s").append(
        std::to_string(fa_->inputs[static_cast<size_t>(port)]));
  }
  std::string out(int port = 0) const {
    return std::string("s").append(
        std::to_string(fa_->outputs[static_cast<size_t>(port)]));
  }
  std::string state() const { return "st" + std::to_string(fa_->id); }
  std::string store() const {
    return dataStoreSymbol(
        fa_->dataStore,
        fm_->dataStores[static_cast<size_t>(fa_->dataStore)].name);
  }

  DataType inType(int port) const {
    return fm_->signal(fa_->inputs[static_cast<size_t>(port)]).type;
  }
  int inWidth(int port) const {
    return fm_->signal(fa_->inputs[static_cast<size_t>(port)]).width;
  }
  DataType outType(int port = 0) const {
    return fm_->signal(fa_->outputs[static_cast<size_t>(port)]).type;
  }
  int outWidth(int port = 0) const {
    return fm_->signal(fa_->outputs[static_cast<size_t>(port)]).width;
  }
  int numInputs() const { return static_cast<int>(fa_->inputs.size()); }

  void line(const std::string& stmt) { sink_->line(stmt); }

  // Reads input `port` element `idx` in the compute domain of type
  // `domain`: a double for a float domain, else the element's exact value
  // as an __int128 (floats truncate through accmos_f2i).
  std::string inElem(int port, const std::string& idx, DataType domain) const;

  // `expr` is a value in the compute domain; emits the statement storing it
  // into output element `idx`, appending wrap/precision flag updates to the
  // given flag variables when non-empty.
  std::string storeOutStmt(const std::string& idx, const std::string& expr,
                           const std::string& wrapFlagVar,
                           const std::string& precFlagVar, int port = 0) const;

 private:
  const FlatModel* fm_;
  const FlatActor* fa_;
  EmitSink* sink_;
};

// The one emitted fold: a statement that stores `expr` (an exact __int128,
// or a double for a real-to-int store) into `dst` of type `t` through the
// runtime core's accmos_fold — a wrap, or a clamp when `sat` — and ORs the
// fold's wrap/clamp and precision flags into the named int variables when
// they are non-empty.
std::string foldStmt(DataType t, const std::string& dst,
                     const std::string& expr, bool sat,
                     const std::string& flagVar = "",
                     const std::string& precVar = "");

// ---------------------------------------------------------------------------
// The spec itself.
// ---------------------------------------------------------------------------

class ActorSpec {
 public:
  virtual ~ActorSpec() = default;

  virtual std::string type() const = 0;

  // Structure.
  virtual ActorCatalog::PortLayout ports(const Actor& a) const = 0;
  virtual bool isDelayClass(const Actor&) const { return false; }
  virtual DataType outputType(const Actor& a, int /*port*/) const {
    return a.dtype();
  }
  virtual int outputWidth(const Actor& a, int /*port*/) const {
    return a.width();
  }
  virtual std::optional<StateSpec> state(const FlatModel&,
                                         const FlatActor&) const {
    return std::nullopt;
  }
  // Post-flatten structural validation (width/type consistency, parameter
  // sanity). Throws ModelError.
  virtual void validate(const FlatModel&, const FlatActor&) const;
  // Honours the "saturate" parameter (Simulink's saturate on integer
  // overflow) by clamping instead of wrapping. validateFlatModel rejects
  // the parameter on every type that does not.
  virtual bool canSaturate() const { return false; }

  // Coverage traits (Algorithm 1 lines 4-10).
  virtual bool countsForActorCoverage(const Actor&) const { return true; }
  virtual int decisionOutcomes(const Actor&) const { return 0; }
  virtual int numConditions(const Actor&) const { return 0; }
  virtual bool isCombinationCondition(const Actor&) const { return false; }
  virtual bool isBranchActor(const Actor&) const { return false; }

  // Diagnosis traits: which checks apply to this instance (depends on type,
  // operator and port types — Algorithm 1 line 15 / §3.2.B).
  virtual std::vector<DiagKind> diagnostics(const FlatModel&,
                                            const FlatActor&) const {
    return {};
  }

  // Interpreter semantics.
  virtual void eval(EvalContext& ctx) const = 0;
  // State latch phase for delay-class / stateful actors.
  virtual void update(EvalContext&) const {}

  // Code template expansion (paper §3.3).
  virtual void emit(EmitContext& ctx) const = 0;
};

// ---------------------------------------------------------------------------
// Registry of all built-in actor specs; doubles as the flattener's catalog.
// ---------------------------------------------------------------------------

class Registry : public ActorCatalog {
 public:
  static const Registry& instance();

  const ActorSpec* find(const std::string& type) const;
  const ActorSpec& get(const std::string& type) const;  // throws ModelError
  const ActorSpec& get(const FlatActor& fa) const { return get(fa.type()); }

  // ActorCatalog.
  PortLayout ports(const Actor& actor) const override;
  bool isDelayClass(const Actor& actor) const override;
  DataType outputType(const Actor& actor, int port) const override;
  int outputWidth(const Actor& actor, int port) const override;

 private:
  Registry();
  std::vector<std::unique_ptr<ActorSpec>> specs_;
  const ActorSpec* lookup(const std::string& type) const;
};

// Trait adaptors used to build the plans from the registry.
CovTraits covTraitsFor(const FlatActor& fa);
std::vector<DiagKind> diagKindsFor(const FlatModel& fm, const FlatActor& fa);

// Validates every actor of a flattened model against its spec.
void validateFlatModel(const FlatModel& fm);

// Registration hook used by the per-category translation units.
void registerSourceActors(std::vector<std::unique_ptr<ActorSpec>>& out);
void registerSinkActors(std::vector<std::unique_ptr<ActorSpec>>& out);
void registerMathActors(std::vector<std::unique_ptr<ActorSpec>>& out);
void registerLogicActors(std::vector<std::unique_ptr<ActorSpec>>& out);
void registerRoutingActors(std::vector<std::unique_ptr<ActorSpec>>& out);
void registerDiscreteActors(std::vector<std::unique_ptr<ActorSpec>>& out);
void registerDiscontinuityActors(std::vector<std::unique_ptr<ActorSpec>>& out);
void registerLookupActors(std::vector<std::unique_ptr<ActorSpec>>& out);
void registerConversionActors(std::vector<std::unique_ptr<ActorSpec>>& out);
void registerContinuousActors(std::vector<std::unique_ptr<ActorSpec>>& out);

}  // namespace accmos
