#include "codegen/results_parser.h"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace accmos {
namespace {

// Reads one packed ABI element back into a Value slot; the exact inverse
// of the emitter's packExpr().
void unpackInto(Value& v, int i, DataType type, uint64_t u) {
  if (isFloatType(type)) {
    double d;
    std::memcpy(&d, &u, 8);
    v.setF(i, d);
  } else {
    v.setI(i, static_cast<int64_t>(u));
  }
}

}  // namespace

void readResultFrame(std::string_view frame, RunBuffers& out) {
  std::string err = decodeResultFrame(frame, out);
  if (!err.empty()) throw ResultParseError("result frame: " + err);
}

SimulationResult decodeBinaryResults(
    const AccmosRunResult& res, const FlatModel& fm,
    const CoveragePlan* covPlan, const std::vector<int>& collectSignals,
    const std::vector<CustomDiagnostic>& custom) {
  SimulationResult result;
  result.stepsExecuted = res.stepsExecuted;
  result.stoppedEarly = res.stoppedEarly != 0;
  result.timedOut = res.timedOut != 0;
  result.execSeconds = static_cast<double>(res.execNs) * 1e-9;

  if (covPlan != nullptr) {
    result.bitmaps = CoverageRecorder(*covPlan);
    // ABI cov index order (run_abi.h: actor, condition, decision, MC/DC)
    // matches kAllCovMetrics.
    for (int m = 0; m < 4; ++m) {
      auto& bm = result.bitmaps.bits(kAllCovMetrics[m]);
      if (res.covLen[m] != bm.size()) {
        throw ResultParseError(
            "binary result: coverage bitmap size mismatch for '" +
            std::string(covMetricName(kAllCovMetrics[m])) + "': got " +
            std::to_string(res.covLen[m]) + ", plan has " +
            std::to_string(bm.size()));
      }
      for (size_t k = 0; k < bm.size(); ++k) {
        bm[k] = res.cov[m][k] != 0 ? 1 : 0;
      }
    }
    result.hasCoverage = true;
  }

  if (res.diagCount > res.diagCap || res.customCount > res.customCap) {
    throw ResultParseError("binary result: record counts (" +
                           std::to_string(res.diagCount) + " diagnostic, " +
                           std::to_string(res.customCount) +
                           " custom) exceed their buffers");
  }
  std::vector<DiagRecord>& diags = result.diagnostics;
  for (uint64_t i = 0; i < res.diagCount; ++i) {
    const AccmosDiagRec& d = res.diags[i];
    if (d.actorId < 0 || d.actorId >= static_cast<int>(fm.actors.size())) {
      throw ResultParseError("binary result: diagnostic references bad "
                             "actor id " + std::to_string(d.actorId));
    }
    if (d.kind < 0 || d.kind >= kNumDiagKinds) {
      throw ResultParseError("binary result: diagnostic references bad "
                             "kind " + std::to_string(d.kind));
    }
    DiagRecord rec;
    rec.actorId = d.actorId;
    rec.actorPath = fm.actor(d.actorId).path;
    rec.kind = static_cast<DiagKind>(d.kind);
    rec.firstStep = d.firstStep;
    rec.count = d.count;
    diags.push_back(rec);
  }
  for (uint64_t i = 0; i < res.customCount; ++i) {
    const AccmosCustomRec& c = res.customs[i];
    if (c.index >= custom.size()) {
      throw ResultParseError("binary result: custom diagnostic index " +
                             std::to_string(c.index) + " out of range");
    }
    const CustomDiagnostic& cd = custom[static_cast<size_t>(c.index)];
    const FlatActor* fa = fm.findByPath(cd.actorPath);
    DiagRecord rec;
    rec.actorId = fa != nullptr ? fa->id : -1;
    rec.actorPath = cd.actorPath;
    rec.kind = DiagKind::Custom;
    rec.message = cd.name;
    rec.firstStep = c.firstStep;
    rec.count = c.count;
    diags.push_back(rec);
  }
  // Final ordering, like DiagnosticSink::sorted(). The records arrive in
  // (actor-major, kind) emission order; the sort is stable.
  std::sort(diags.begin(), diags.end(),
            [](const DiagRecord& a, const DiagRecord& b) {
              return std::tie(a.firstStep, a.actorPath) <
                     std::tie(b.firstStep, b.actorPath);
            });

  result.collected.resize(collectSignals.size());
  size_t off = 0;
  for (size_t k = 0; k < collectSignals.size(); ++k) {
    const SignalInfo& sig = fm.signal(collectSignals[k]);
    result.collected[k].path = sig.name;
    result.collected[k].last = Value(sig.type, sig.width);
    result.collected[k].count = res.collectCounts[k];
    for (int i = 0; i < sig.width; ++i) {
      unpackInto(result.collected[k].last, i, sig.type,
                 res.collectVals[off + static_cast<size_t>(i)]);
    }
    off += static_cast<size_t>(sig.width);
  }

  result.finalOutputs.resize(fm.rootOutports.size());
  off = 0;
  for (size_t k = 0; k < fm.rootOutports.size(); ++k) {
    const FlatActor& fa = fm.actor(fm.rootOutports[k]);
    const SignalInfo& sig = fm.signal(fa.inputs[0]);
    // In-place retype instead of constructing a fresh Value: this decoder
    // sits on the per-run hot path of campaigns, where an extra
    // allocation per outport is measurable.
    result.finalOutputs[k].resize(sig.type, sig.width);
    for (int i = 0; i < sig.width; ++i) {
      unpackInto(result.finalOutputs[k], i, sig.type,
                 res.outVals[off + static_cast<size_t>(i)]);
    }
    off += static_cast<size_t>(sig.width);
  }
  return result;
}

}  // namespace accmos
