#include "codegen/emitter.h"

#include <algorithm>
#include <cctype>

#include "actors/common.h"
#include "codegen/runtime_preamble.h"
#include "sim/collect.h"

namespace accmos {
namespace {

std::string cpp(DataType t) { return std::string(dataTypeCpp(t)); }

// Packs one element for the binary result ABI: float-typed signals cross
// the boundary as IEEE-754 double bits, integer-typed ones pre-widened to
// two's-complement int64.
std::string packExpr(DataType t, const std::string& elem) {
  if (isFloatType(t)) return "accmos_pack_f((double)" + elem + ")";
  if (t == DataType::U64) return "(uint64_t)" + elem;
  return "(uint64_t)(int64_t)" + elem;
}

// Reads one element widened to double (u64 goes through unsigned).
std::string asDoubleExpr(DataType t, const std::string& elem) {
  if (t == DataType::U64) return "(double)(uint64_t)" + elem;
  return "(double)" + elem;
}

// Trigger condition of one injected step-loop fault: fires from `step`
// onward, optionally only for one seed.
std::string faultCond(const FaultPlan::SiteFault& f) {
  std::string c = "step >= " + std::to_string(f.step) + "ULL";
  if (f.hasSeed) c += " && seed == " + std::to_string(f.seed) + "ULL";
  return c;
}

// Cap on the step-private signal bytes Model_Exe keeps on the stack; the
// signals past it stay members. The largest Table 1 model (LANS) needs
// 2.9 KB, while one f64 signal at kMaxDimParam is 256 KiB and campaign
// and daemon workers run on 8 MiB thread stacks.
constexpr size_t kMaxLocalBytes = 64 * 1024;

// One declaration line: C++ element type, unqualified name, array suffix
// (e.g. "[3]"; empty for scalars) and trailing comment.
void declare(std::ostringstream& os, const std::string& type,
             const std::string& name, const std::string& dims,
             const std::string& comment) {
  os << "  " << type << " " << name << dims << ";";
  if (!comment.empty()) os << "  // " << comment;
  os << "\n";
}

void declareSignal(std::ostringstream& os, const FlatModel& fm, size_t id) {
  const SignalInfo& sig = fm.signals[id];
  declare(os, cpp(sig.type), "s" + std::to_string(id),
          "[" + std::to_string(sig.width) + "]", sig.name);
}

}  // namespace

Emitter::Emitter(const FlatModel& fm, const SimOptions& opt,
                 const CoveragePlan* covPlan, const DiagnosisPlan* diagPlan)
    : fm_(fm),
      opt_(opt),
      covPlan_(covPlan),
      diagPlan_(diagPlan),
      faults_(faultPlanFromEnv()) {
  collectSignals_ = monitoredSignals(fm_, opt_.collectList);
  classifyLocals();
}

void Emitter::classifyLocals() {
  // Model_Exe runs every actor's eval section in schedule order, then the
  // update sections, the signal monitors and the custom diagnoses, which
  // all read at kAfterEval.
  const int kAfterEval = static_cast<int>(fm_.schedule.size());
  std::vector<int> pos(fm_.actors.size());
  for (size_t k = 0; k < fm_.schedule.size(); ++k) {
    pos[static_cast<size_t>(fm_.schedule[k])] = static_cast<int>(k);
  }
  local_.assign(fm_.signals.size(), false);
  for (size_t s = 0; s < local_.size(); ++s) {
    local_[s] = fm_.signals[s].producerActor >= 0;
  }
  // accmos_fill_inputs writes the root Inports' signals, and accmos_run
  // copies the root Outports' after the loop.
  for (int id : fm_.rootInports) {
    local_[static_cast<size_t>(fm_.actor(id).outputs[0])] = false;
  }
  for (int id : fm_.rootOutports) {
    local_[static_cast<size_t>(fm_.actor(id).inputs[0])] = false;
  }
  // A read of signal `s` at schedule position `at`, made only while enable
  // signal `en` is set (-1: every step), sees this step's value only when
  // the producer ran earlier in the step and runs whenever the read does.
  // A producer a disabled enable skips holds its last output, which must
  // outlive the step.
  auto read = [&](int s, int at, int en) {
    if (!local_[static_cast<size_t>(s)]) return;
    const FlatActor& p = fm_.actor(fm_.signal(s).producerActor);
    if (at <= pos[static_cast<size_t>(p.id)] ||
        (p.enableSignal >= 0 && p.enableSignal != en)) {
      local_[static_cast<size_t>(s)] = false;
    }
  };
  for (const FlatActor& fa : fm_.actors) {
    // A delay-class actor's eval only copies its state out; it reads its
    // inputs in the update phase, which is why the schedule does not order
    // it after their producers.
    const int at =
        fa.delayClass ? kAfterEval : pos[static_cast<size_t>(fa.id)];
    for (int s : fa.inputs) read(s, at, fa.enableSignal);
    // The `if (sE[0] != 0)` guard itself is evaluated every step.
    if (fa.enableSignal >= 0) {
      read(fa.enableSignal, pos[static_cast<size_t>(fa.id)], -1);
    }
  }
  for (int s : collectSignals_) read(s, kAfterEval, -1);
  for (const CustomDiagnostic& cd : opt_.customDiagnostics) {
    const FlatActor* fa = fm_.findByPath(cd.actorPath);
    if (fa != nullptr && !fa->outputs.empty()) {
      read(fa->outputs[0], kAfterEval, -1);
    }
  }
  size_t bytes = 0;
  for (size_t s = 0; s < local_.size(); ++s) {
    if (!local_[s]) continue;
    const SignalInfo& sig = fm_.signals[s];
    const size_t size = static_cast<size_t>(sig.width) *
                        static_cast<size_t>(dataTypeSize(sig.type));
    if (bytes + size > kMaxLocalBytes) {
      local_[s] = false;
    } else {
      bytes += size;
    }
  }
}

std::string Emitter::sanitize(const std::string& name) {
  return sanitizeIdent(name);
}

// ---- EmitSink -------------------------------------------------------------

void Emitter::line(const std::string& stmt) { body_.push_back(stmt); }

void Emitter::updateLine(const std::string& stmt) { upd_.push_back(stmt); }

void Emitter::updateLinePre(const std::string& stmt) {
  updPre_.push_back(stmt);
}

bool Emitter::diagOn(DiagKind kind) const {
  return diagPlan_ != nullptr && current_ != nullptr &&
         diagPlan_->enabled(current_->id, kind);
}

std::string Emitter::freshVar(const std::string& hint) {
  return hint + std::to_string(varCounter_++);
}

std::string Emitter::makeDiagFunction(
    const std::vector<std::pair<DiagKind, std::string>>& flags) {
  // One generated diagnostic function per actor (paper Fig. 4/Fig. 5:
  // "the instrumented code involves the function calls at specific
  // locations, while the actual implementation is defined elsewhere").
  std::string fname =
      "diagnose_" + sanitize(current_->path) + "_" +
      std::to_string(current_->id) + "_" + std::to_string(varCounter_++);
  std::ostringstream def;
  def << "void " << fname << "(uint64_t step";
  for (size_t k = 0; k < flags.size(); ++k) def << ", int f" << k;
  def << ") {\n";
  for (size_t k = 0; k < flags.size(); ++k) {
    def << "  if (f" << k << ") accmos_diag(" << current_->id << ", "
        << static_cast<int>(flags[k].first) << ", step);  // "
        << diagKindName(flags[k].first) << "\n";
  }
  def << "}\n";
  diagFuncs_.push_back(def.str());
  std::string call = fname + "(step";
  for (const auto& [kind, expr] : flags) call += ", " + expr;
  call += ");";
  return call;
}

void Emitter::diagCall(
    const std::vector<std::pair<DiagKind, std::string>>& flags) {
  if (flags.empty() || diagPlan_ == nullptr) return;
  body_.push_back(makeDiagFunction(flags));
}

void Emitter::diagCallInUpdate(
    const std::vector<std::pair<DiagKind, std::string>>& flags) {
  if (flags.empty() || diagPlan_ == nullptr) return;
  upd_.push_back(makeDiagFunction(flags));
}

std::string Emitter::covDecisionStmt(const std::string& outcomeExpr) {
  if (covPlan_ == nullptr) return ";";
  const ActorCovInfo& info = covPlan_->info(current_->id);
  if (info.decisionBase < 0) return ";";
  return "accmos_cov_dec[" + std::to_string(info.decisionBase) + " + (" +
         outcomeExpr + ")] = 1;";
}

std::string Emitter::covConditionStmt(int condIdx,
                                      const std::string& boolExpr) {
  if (covPlan_ == nullptr) return ";";
  const ActorCovInfo& info = covPlan_->info(current_->id);
  if (info.conditionBase < 0) return ";";
  return "accmos_cov_cond[" +
         std::to_string(info.conditionBase + 2 * condIdx) + " + ((" +
         boolExpr + ") ? 0 : 1)] = 1;";
}

std::string Emitter::covMcdcStmt(int condIdx, const std::string& valExpr) {
  if (covPlan_ == nullptr) return "";
  const ActorCovInfo& info = covPlan_->info(current_->id);
  if (info.mcdcBase < 0) return "";
  return "accmos_cov_mcdc[" + std::to_string(info.mcdcBase + 2 * condIdx) +
         " + ((" + valExpr + ") ? 0 : 1)] = 1;";
}

// ---- sections --------------------------------------------------------------

void Emitter::emitDeclarations(std::ostringstream& os) {
  os << "  // ---- model data --------------------------------------------\n";
  auto member = [&os](const std::string& type, const std::string& name,
                      const std::string& dims, const std::string& comment) {
    declare(os, type, name, dims, comment);
  };
  // Diagnostic aggregation tables (first/count per actor x kind).
  const std::string diagDim = "[" + std::to_string(fm_.actors.size()) +
                              " * " + std::to_string(kNumDiagKinds) + "]";
  member("uint64_t", "accmos_diag_first", diagDim, "");
  member("uint64_t", "accmos_diag_count", diagDim, "");
  // Signals that outlive a step; the step-private rest are locals of
  // Model_Exe.
  for (size_t s = 0; s < fm_.signals.size(); ++s) {
    if (!local_[s]) declareSignal(os, fm_, s);
  }
  // Actor states.
  const Registry& reg = Registry::instance();
  for (const auto& fa : fm_.actors) {
    auto st = reg.get(fa).state(fm_, fa);
    if (st) {
      member(cpp(st->type), "st" + std::to_string(fa.id),
             "[" + std::to_string(st->width) + "]", "state of " + fa.path);
    }
  }
  // Data stores.
  for (size_t d = 0; d < fm_.dataStores.size(); ++d) {
    const auto& ds = fm_.dataStores[d];
    member(cpp(ds.type), dataStoreSymbol(static_cast<int>(d), ds.name),
           "[" + std::to_string(ds.width) + "]",
           "data store '" + ds.name + "'");
  }
  // Each root Inport's stimulus for this run, copied from the run's port
  // table: a range draws from its SplitMix64 stream, a sequence is read
  // through a cursor that equals step % tc_len.
  for (size_t k = 0; k < fm_.rootInports.size(); ++k) {
    const std::string n = std::to_string(k);
    member("uint64_t", "tc_state_" + n, "", "");
    member("double", "tc_min_" + n, "", "");
    member("double", "tc_span_" + n, "", "");
    member("const double*", "tc_seq_" + n, "", "");
    member("uint64_t", "tc_len_" + n, "", "");
    member("uint64_t", "tc_pos_" + n, "", "");
  }
  // Coverage bitmaps, declared bool: a store through uint8_t, a char type,
  // may alias every member, which slows GCC's alias analysis of the step.
  // accmos_run copies out the same 0/1 bytes (the preamble asserts
  // sizeof(bool) == 1).
  if (covPlan_ != nullptr) {
    const std::pair<const char*, CovMetric> maps[] = {
        {"accmos_cov_actor", CovMetric::Actor},
        {"accmos_cov_cond", CovMetric::Condition},
        {"accmos_cov_dec", CovMetric::Decision},
        {"accmos_cov_mcdc", CovMetric::MCDC}};
    for (const auto& [name, metric] : maps) {
      member("bool", name,
             "[" + std::to_string(std::max(1, covPlan_->totalSlots(metric))) +
                 "]",
             "");
    }
  }
  // Signal monitor buffers (paper Fig. 3 outputCollect repository).
  for (size_t k = 0; k < collectSignals_.size(); ++k) {
    const SignalInfo& sig = fm_.signal(collectSignals_[k]);
    member(cpp(sig.type), "col" + std::to_string(k),
           "[" + std::to_string(sig.width) + "]", "");
    member("uint64_t", "colcnt" + std::to_string(k), "", "");
  }
  // Custom diagnosis slots.
  for (size_t k = 0; k < opt_.customDiagnostics.size(); ++k) {
    member("double", "cd_prev_" + std::to_string(k), "", "");
    member("int", "cd_has_" + std::to_string(k), "", "");
    member("uint64_t", "cd_first_" + std::to_string(k), "", "");
    member("uint64_t", "cd_count_" + std::to_string(k), "", "");
  }
  member("int", "accmos_stop", "", "");
  member("int", "accmos_diag_fired", "", "");
  os << "\n";
}

void Emitter::emitDiagFn(std::ostringstream& os) {
  // One out-of-line copy: the diagnose_* functions inline into Model_Exe
  // as branches to it, which `cold` lays out as unlikely.
  os << "  __attribute__((noinline, cold))\n"
     << "  void accmos_diag(int actor, int kind, uint64_t step) {\n"
     << "    int idx = actor * " << kNumDiagKinds << " + kind;\n"
     << "    if (accmos_diag_count[idx] == 0) accmos_diag_first[idx] = "
        "step;\n"
     << "    accmos_diag_count[idx] += 1;\n"
     << "    accmos_diag_fired = 1;\n"
     << "  }\n\n";
}

void Emitter::emitFillInputs(std::ostringstream& os) {
  os << "void accmos_fill_inputs() {\n";
  for (size_t k = 0; k < fm_.rootInports.size(); ++k) {
    const FlatActor& fa = fm_.actor(fm_.rootInports[k]);
    const SignalInfo& sig = fm_.signal(fa.outputs[0]);
    const std::string n = std::to_string(k);
    const std::string store = storeFromDouble(
        sig.type,
        std::string("s").append(std::to_string(fa.outputs[0])).append("[i]"),
        "v");
    os << "  // Inport " << fa.path << "\n"
       << "  if (tc_len_" << n << " != 0) {\n"
       << "    double v = tc_seq_" << n << "[tc_pos_" << n << "];\n"
       << "    if (++tc_pos_" << n << " == tc_len_" << n << ") tc_pos_" << n
       << " = 0;\n"
       << "    for (int i = 0; i < " << sig.width << "; ++i) " << store
       << "\n"
       << "  } else {\n"
       << "    for (int i = 0; i < " << sig.width << "; ++i) {\n"
       << "      double v = tc_min_" << n << " + accmos_sm64_unit(&tc_state_"
       << n << ") * tc_span_" << n << ";\n"
       << "      " << store << "\n"
       << "    }\n"
       << "  }\n";
  }
  os << "}\n\n";
}

std::string Emitter::storeFromDouble(DataType t, const std::string& dst,
                                     const std::string& expr) const {
  if (t == DataType::F64) return dst + " = (" + expr + ");";
  if (t == DataType::F32) return dst + " = (float)(" + expr + ");";
  return foldStmt(t, dst, "(double)(" + expr + ")", false);
}

void Emitter::emitModelInit(std::ostringstream& os) {
  const Registry& reg = Registry::instance();
  os << "void Model_Init(uint64_t accmos_seed, "
        "const AccmosPortStim* accmos_ports) {\n";
  os << "  (void)accmos_seed;\n";
  os << "  (void)accmos_ports;\n";
  for (const auto& fa : fm_.actors) {
    auto st = reg.get(fa).state(fm_, fa);
    if (!st) continue;
    for (int i = 0; i < st->width; ++i) {
      double init =
          st->initial.empty()
              ? 0.0
              : st->initial[std::min(st->initial.size() - 1,
                                     static_cast<size_t>(i))];
      os << "  "
         << storeFromDouble(st->type,
                            "st" + std::to_string(fa.id) + "[" +
                                std::to_string(i) + "]",
                            fmtD(init))
         << "\n";
    }
  }
  for (size_t d = 0; d < fm_.dataStores.size(); ++d) {
    const auto& ds = fm_.dataStores[d];
    os << "  for (int i = 0; i < " << ds.width << "; ++i) "
       << storeFromDouble(
              ds.type,
              dataStoreSymbol(static_cast<int>(d), ds.name) + "[i]",
              fmtD(ds.initial))
       << "\n";
  }
  for (size_t k = 0; k < fm_.rootInports.size(); ++k) {
    const std::string n = std::to_string(k);
    const std::string port = "accmos_ports[" + n + "]";
    os << "  tc_state_" << n << " = accmos_portseed(accmos_seed, " << n
       << ");\n"
       << "  tc_min_" << n << " = " << port << ".min;\n"
       << "  tc_span_" << n << " = " << port << ".max - " << port
       << ".min;\n"
       << "  tc_seq_" << n << " = " << port << ".seq;\n"
       << "  tc_len_" << n << " = " << port << ".seqLen;\n"
       << "  tc_pos_" << n << " = 0;\n";
  }
  os << "}\n\n";
}

void Emitter::emitModelExe(std::ostringstream& os) {
  os << "void Model_Exe(uint64_t step) {\n";
  os << "  (void)step;\n";
  // Step-private signals: every read this step follows this step's write.
  for (size_t s = 0; s < fm_.signals.size(); ++s) {
    if (local_[s]) declareSignal(os, fm_, s);
  }
  os << evalSection_.str();
  os << "  // ---- state update phase ----\n";
  os << updateSection_.str();
  // Signal monitor (paper Fig. 3).
  for (size_t k = 0; k < collectSignals_.size(); ++k) {
    os << "  memcpy(col" << k << ", s" << collectSignals_[k] << ", sizeof(col"
       << k << ")); colcnt" << k << " += 1;\n";
  }
  // Custom signal diagnoses (paper §3.2.B).
  for (size_t k = 0; k < opt_.customDiagnostics.size(); ++k) {
    const CustomDiagnostic& cd = opt_.customDiagnostics[k];
    const FlatActor* fa = fm_.findByPath(cd.actorPath);
    if (fa == nullptr || fa->outputs.empty()) continue;
    const SignalInfo& sig = fm_.signal(fa->outputs[0]);
    os << "  { double cur = "
       << asDoubleExpr(sig.type, "s" + std::to_string(fa->outputs[0]) + "[0]")
       << ";\n    double prev = cd_has_" << k << " ? cd_prev_" << k
       << " : 0.0; (void)prev;\n    int fire = 0;\n";
    switch (cd.kind) {
      case CustomDiagnostic::Kind::Range:
        os << "    fire = (cur < " << fmtD(cd.minValue) << " || cur > "
           << fmtD(cd.maxValue) << ");\n";
        break;
      case CustomDiagnostic::Kind::SuddenChange:
        os << "    fire = cd_has_" << k << " && fabs(cur - prev) > "
           << fmtD(cd.maxDelta) << ";\n";
        break;
      case CustomDiagnostic::Kind::Expression:
        if (!cd.cppCondition.empty()) {
          os << "    fire = (" << cd.cppCondition << ");\n";
        }
        break;
    }
    os << "    if (fire) { if (cd_count_" << k << " == 0) cd_first_" << k
       << " = step; cd_count_" << k << " += 1; accmos_diag_fired = 1; }\n"
       << "    cd_prev_" << k << " = cur; cd_has_" << k << " = 1; }\n";
  }
  os << "}\n\n";
}

void Emitter::emitSimLoop(std::ostringstream& os) {
  os << "  // One full simulation on this state instance. Returns the steps\n"
     << "  // executed; the loop's wall time lands in *execNs. deadline is\n"
     << "  // an absolute accmos_now_s() point (0 = none) polled every 256\n"
     << "  // steps; passing it retires the run with *timedOut set.\n"
     << "  uint64_t accmos_sim_run(uint64_t maxSteps, double budget,\n"
     << "                          uint64_t seed,\n"
     << "                          const AccmosPortStim* ports,\n"
     << "                          double deadline, int* stoppedEarly,\n"
     << "                          unsigned long long* execNs,\n"
     << "                          int* timedOut) {\n"
     << "    Model_Init(seed, ports);\n"
     << "    int stopped = 0;\n"
     << "    *timedOut = 0;\n"
     << "    const int64_t t0 = accmos_now_ns();\n"
     << "    uint64_t step = 0;\n"
     << "    for (; step < maxSteps; ++step) {\n";
  if (faults_.hang.armed) {
    os << "      // ACCMOS_FAULT hang: cooperative wedge — spins until the\n"
       << "      // deadline passes (or forever when none was set, which is\n"
       << "      // what the host watchdog exists for).\n"
       << "      if (" << faultCond(faults_.hang) << ") {\n"
       << "        while (!(deadline > 0.0 && accmos_now_s() >= deadline))\n"
       << "          accmos_pause_ms(1);\n"
       << "        *timedOut = 1; break;\n"
       << "      }\n";
  }
  if (faults_.crash.armed) {
    os << "      // ACCMOS_FAULT crash: a genuine fatal signal.\n"
       << "      if (" << faultCond(faults_.crash) << ") raise(SIGSEGV);\n";
  }
  os << "      accmos_fill_inputs();\n"
     << "      Model_Exe(step);\n"
     << "      if (accmos_stop) { ++step; stopped = 1; break; }\n";
  if (opt_.stopOnDiagnostic) {
    os << "      if (accmos_diag_fired) { ++step; stopped = 1; break; }\n";
  }
  os << "      if (budget > 0.0 && (step & 1023) == 1023 &&\n"
     << "          (double)(accmos_now_ns() - t0) / 1e9 >= budget) "
        "{ ++step; break; }\n"
     << "      if (deadline > 0.0 && (step & 255) == 255 &&\n"
     << "          accmos_now_s() >= deadline) { ++step; *timedOut = 1; "
        "break; }\n"
     << "    }\n";
  // The ungated actors' coverage, marked once: Model_Exe runs each of them
  // in every step it enters and has no early exit, and every stop (Stop
  // actor, stop-on-diagnostic, budget, deadline) falls between whole
  // steps, so such an actor ran exactly when a step did. A run retired at
  // its deadline reports no observations.
  if (!ungatedSlots_.empty()) {
    const size_t n = ungatedSlots_.size();
    os << "    if (step > 0) {\n"
       << "      static const int slots[" << n << "] = {";
    for (size_t k = 0; k < n; ++k) {
      os << (k % 16 == 0 ? "\n          " : " ") << ungatedSlots_[k]
         << (k + 1 < n ? "," : "};\n");
    }
    os << "      for (int k = 0; k < " << n
       << "; ++k) accmos_cov_actor[slots[k]] = 1;\n"
       << "    }\n";
  }
  os << "    *execNs = (unsigned long long)(accmos_now_ns() - t0);\n"
     << "    *stoppedEarly = stopped;\n"
     << "    return step;\n"
     << "  }\n";
}

Emitter::AbiGeom Emitter::abiGeom() const {
  AbiGeom g;
  g.covLen[0] = covPlan_ != nullptr ? covPlan_->totalSlots(CovMetric::Actor) : 0;
  g.covLen[1] =
      covPlan_ != nullptr ? covPlan_->totalSlots(CovMetric::Condition) : 0;
  g.covLen[2] =
      covPlan_ != nullptr ? covPlan_->totalSlots(CovMetric::Decision) : 0;
  g.covLen[3] = covPlan_ != nullptr ? covPlan_->totalSlots(CovMetric::MCDC) : 0;
  g.covArr[0] = "accmos_cov_actor";
  g.covArr[1] = "accmos_cov_cond";
  g.covArr[2] = "accmos_cov_dec";
  g.covArr[3] = "accmos_cov_mcdc";
  g.collectValsLen = 0;
  for (int sid : collectSignals_) {
    g.collectValsLen += static_cast<size_t>(fm_.signal(sid).width);
  }
  g.outValsLen = 0;
  for (int oid : fm_.rootOutports) {
    g.outValsLen +=
        static_cast<size_t>(fm_.signal(fm_.actor(oid).inputs[0]).width);
  }
  g.numActors = fm_.actors.size();
  g.numCustom = opt_.customDiagnostics.size();
  return g;
}

void Emitter::emitResultChecks(std::ostringstream& os) {
  const std::string ref = "res->", ind = "  ";
  const AbiGeom g = abiGeom();
  for (int m = 0; m < 4; ++m) {
    os << ind << "if (" << ref << "covLen[" << m << "] != " << g.covLen[m]
       << "ULL";
    if (g.covLen[m] > 0) os << " || " << ref << "cov[" << m << "] == 0";
    os << ") return ACCMOS_ABI_EBUFFER;\n";
  }
  if (diagPlan_ != nullptr) {
    os << ind << "if (" << ref << "diagCap < " << g.numActors * kNumDiagKinds
       << "ULL || " << ref << "diags == 0) return ACCMOS_ABI_EBUFFER;\n";
  }
  if (g.numCustom > 0) {
    os << ind << "if (" << ref << "customCap < " << g.numCustom << "ULL || "
       << ref << "customs == 0) return ACCMOS_ABI_EBUFFER;\n";
  }
  os << ind << "if (" << ref << "numCollect != " << collectSignals_.size()
     << "ULL || " << ref << "collectValsLen != " << g.collectValsLen
     << "ULL || " << ref << "outValsLen != " << g.outValsLen
     << "ULL) return ACCMOS_ABI_EBUFFER;\n";
  if (!collectSignals_.empty()) {
    os << ind << "if (" << ref << "collectCounts == 0 || " << ref
       << "collectVals == 0) return ACCMOS_ABI_EBUFFER;\n";
  }
  if (g.outValsLen > 0) {
    os << ind << "if (" << ref << "outVals == 0) return ACCMOS_ABI_EBUFFER;\n";
  }
}

void Emitter::emitResultExtract(std::ostringstream& os) {
  const std::string ref = "res->", ind = "  ";
  auto acc = [](const std::string& member) { return "M->" + member; };
  const AbiGeom g = abiGeom();
  for (int m = 0; m < 4; ++m) {
    if (g.covLen[m] > 0) {
      os << ind << "memcpy(" << ref << "cov[" << m << "], " << acc(g.covArr[m])
         << ", " << g.covLen[m] << ");\n";
    }
  }
  if (diagPlan_ != nullptr) {
    os << ind << "{ uint64_t nd = 0;\n"
       << ind << "  for (int a = 0; a < " << g.numActors << "; ++a)\n"
       << ind << "    for (int k = 0; k < " << kNumDiagKinds << "; ++k) {\n"
       << ind << "      uint64_t c = " << acc("accmos_diag_count") << "[a * "
       << kNumDiagKinds << " + k];\n"
       << ind << "      if (c) { " << ref << "diags[nd].actorId = a; " << ref
       << "diags[nd].kind = k;\n"
       << ind << "        " << ref << "diags[nd].firstStep = "
       << acc("accmos_diag_first") << "[a * " << kNumDiagKinds << " + k];\n"
       << ind << "        " << ref << "diags[nd].count = c; ++nd; }\n"
       << ind << "    }\n"
       << ind << "  " << ref << "diagCount = nd; }\n";
  } else {
    os << ind << ref << "diagCount = 0;\n";
  }
  if (g.numCustom > 0) {
    os << ind << "{ uint64_t nc = 0;\n";
    for (size_t k = 0; k < g.numCustom; ++k) {
      std::string cnt = acc("cd_count_" + std::to_string(k));
      os << ind << "  if (" << cnt << ") { " << ref << "customs[nc].index = "
         << k << "ULL; " << ref << "customs[nc].firstStep = "
         << acc("cd_first_" + std::to_string(k)) << "; " << ref
         << "customs[nc].count = " << cnt << "; ++nc; }\n";
    }
    os << ind << "  " << ref << "customCount = nc; }\n";
  } else {
    os << ind << ref << "customCount = 0;\n";
  }
  size_t off = 0;
  for (size_t k = 0; k < collectSignals_.size(); ++k) {
    const SignalInfo& sig = fm_.signal(collectSignals_[k]);
    os << ind << ref << "collectCounts[" << k << "] = "
       << acc("colcnt" + std::to_string(k)) << ";\n"
       << ind << "for (int i = 0; i < " << sig.width << "; ++i) " << ref
       << "collectVals[" << off << " + i] = "
       << packExpr(sig.type, acc("col" + std::to_string(k)) + "[i]") << ";\n";
    off += static_cast<size_t>(sig.width);
  }
  off = 0;
  for (size_t k = 0; k < fm_.rootOutports.size(); ++k) {
    const FlatActor& fa = fm_.actor(fm_.rootOutports[k]);
    const SignalInfo& sig = fm_.signal(fa.inputs[0]);
    os << ind << "for (int i = 0; i < " << sig.width << "; ++i) " << ref
       << "outVals[" << off << " + i] = "
       << packExpr(sig.type, acc("s" + std::to_string(fa.inputs[0])) + "[i]")
       << ";\n";
    off += static_cast<size_t>(sig.width);
  }
}

void Emitter::emitAbi(std::ostringstream& os) {
  const AbiGeom g = abiGeom();

  os << "// ---- in-process execution ABI (see run_abi.h) -----------------\n"
     << "extern \"C\" int accmos_model_info(AccmosModelInfo* info) {\n"
     << "  if (!info || info->structSize != "
        "(uint32_t)sizeof(AccmosModelInfo)) return ACCMOS_ABI_EARG;\n"
     << "  info->abiVersion = ACCMOS_ABI_VERSION;\n";
  for (int m = 0; m < 4; ++m) {
    os << "  info->covLen[" << m << "] = " << g.covLen[m] << "ULL;\n";
  }
  os << "  info->numActors = " << g.numActors << "ULL;\n"
     << "  info->numDiagKinds = " << kNumDiagKinds << "ULL;\n"
     << "  info->numCustom = " << g.numCustom << "ULL;\n"
     << "  info->numCollect = " << collectSignals_.size() << "ULL;\n"
     << "  info->collectValsLen = " << g.collectValsLen << "ULL;\n"
     << "  info->outValsLen = " << g.outValsLen << "ULL;\n"
     << "  return ACCMOS_ABI_OK;\n"
     << "}\n\n";

  os << "extern \"C\" int accmos_run(const AccmosRunArgs* args, "
        "AccmosRunResult* res) {\n"
     << "  if (!args || !res ||\n"
     << "      args->structSize != (uint32_t)sizeof(AccmosRunArgs) ||\n"
     << "      res->structSize != (uint32_t)sizeof(AccmosRunResult)) "
        "return ACCMOS_ABI_EARG;\n"
     << "  if (args->abiVersion != ACCMOS_ABI_VERSION ||\n"
     << "      res->abiVersion != ACCMOS_ABI_VERSION) "
        "return ACCMOS_ABI_EVERSION;\n"
     << "  if (args->numPorts != " << fm_.rootInports.size() << "ULL";
  if (!fm_.rootInports.empty()) os << " || !args->ports";
  os << ") return ACCMOS_ABI_EARG;\n";
  if (!fm_.rootInports.empty()) {
    os << "  for (uint64_t k = 0; k < args->numPorts; ++k)\n"
       << "    if (args->ports[k].seqLen != 0 && !args->ports[k].seq) "
          "return ACCMOS_ABI_EARG;\n";
  }
  emitResultChecks(os);
  // `new accmos_model()` value-initializes: every member starts at zero.
  // Catching the failed allocation needs no <new>.
  os << "  accmos_model* M = 0;\n"
     << "  try { M = new accmos_model(); } "
        "catch (...) { return ACCMOS_ABI_EALLOC; }\n"
     << "  int stopped = 0;\n"
     << "  unsigned long long ns = 0;\n"
     << "  int timedOut = 0;\n"
     << "  res->stepsExecuted = M->accmos_sim_run(\n"
     << "      args->maxSteps, args->timeBudgetSec, args->seed, args->ports,\n"
     << "      args->deadlineSeconds, &stopped, &ns, &timedOut);\n"
     << "  res->stoppedEarly = (uint32_t)stopped;\n"
     << "  res->timedOut = (uint32_t)timedOut;\n"
     << "  res->execNs = ns;\n";
  emitResultExtract(os);
  os << "  delete M;\n"
     << "  return timedOut ? ACCMOS_ABI_ETIMEOUT : ACCMOS_ABI_OK;\n"
     << "}\n\n";
}

std::string Emitter::generate() {
  const Registry& reg = Registry::instance();

  // Pass 1: expand actor templates in execution order (Algorithm 1),
  // collecting eval/update code and diagnostic functions.
  for (int id : fm_.schedule) {
    const FlatActor& fa = fm_.actors[static_cast<size_t>(id)];
    current_ = &fa;
    body_.clear();
    upd_.clear();
    updPre_.clear();

    EmitContext ctx(fm_, fa, *this);
    reg.get(fa).emit(ctx);

    // Generic instrumentation appended by the pass: actor coverage
    // ("actorBitmap[actorID] = 1" in the paper). An ungated actor's mark
    // is written once, after the step loop (emitSimLoop).
    const int slot = covPlan_ != nullptr ? covPlan_->info(id).actorSlot : -1;
    if (slot >= 0 && fa.enableSignal < 0) {
      ungatedSlots_.push_back(slot);
    } else if (slot >= 0) {
      body_.push_back("accmos_cov_actor[" + std::to_string(slot) + "] = 1;");
    }

    std::string guard;
    if (fa.enableSignal >= 0) {
      guard = "if (s" + std::to_string(fa.enableSignal) + "[0] != 0) ";
    }
    evalSection_ << "  // -- " << fa.path << " (" << fa.type() << ")\n";
    if (!body_.empty()) {
      evalSection_ << "  " << guard << "{\n";
      for (const auto& l : body_) evalSection_ << "  " << l << "\n";
      evalSection_ << "  }\n";
    }
    if (!upd_.empty() || !updPre_.empty()) {
      updateSection_ << "  // -- update " << fa.path << "\n";
      updateSection_ << "  " << guard << "{\n";
      for (const auto& l : updPre_) updateSection_ << "  " << l << "\n";
      for (const auto& l : upd_) updateSection_ << "  " << l << "\n";
      updateSection_ << "  }\n";
    }
  }
  current_ = nullptr;

  // Pass 2: compose the program (paper Fig. 5). The model functions and
  // all state that outlives a step sit inside `struct accmos_model`, so
  // `new accmos_model()` gives every accmos_run() ABI call — concurrent
  // ones included — a private zero-initialized state instance. Signals
  // private to one step (classifyLocals) are uninitialized local arrays of
  // Model_Exe instead, which keeps GCC's alias analysis of that one large
  // function off them. The actor code names both kinds by the same
  // unqualified `sN`, so it is the same text either way.
  std::ostringstream os;
  os << "// Generated by AccMoS for model '" << fm_.modelName << "'\n";
  os << runtimePreamble();
  // The preamble includes C headers only. An armed crash fault calls
  // raise(), and a cppCondition may use <cmath> names.
  if (faults_.crash.armed) os << "#include <signal.h>\n";
  if (std::any_of(opt_.customDiagnostics.begin(),
                  opt_.customDiagnostics.end(),
                  [](const CustomDiagnostic& cd) {
                    return cd.kind == CustomDiagnostic::Kind::Expression &&
                           !cd.cppCondition.empty();
                  })) {
    os << "#include <cmath>\n";
  }
  os << runtimeCoreText();
  os << runAbiText();
  // The anonymous namespace is load-bearing: it gives the struct (and the
  // statics inside its inline member functions) internal linkage. Without
  // it the actor templates' function-local tables become STB_GNU_UNIQUE
  // symbols, and a process that dlopens several generated libraries would
  // silently resolve them all to the first library's data.
  os << "namespace {\n"
     << "struct accmos_model {\n";
  emitDeclarations(os);
  emitDiagFn(os);
  for (const auto& fn : diagFuncs_) os << fn << "\n";
  emitFillInputs(os);
  emitModelInit(os);
  emitModelExe(os);
  emitSimLoop(os);
  os << "};\n"
     << "}  // namespace\n\n";
  emitAbi(os);
  return os.str();
}

}  // namespace accmos
