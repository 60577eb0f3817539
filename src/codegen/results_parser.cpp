#include "codegen/results_parser.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <tuple>

namespace accmos {
namespace {

[[noreturn]] void fail(size_t lineNo, const std::string& msg) {
  throw ResultParseError("result protocol line " + std::to_string(lineNo) +
                         ": " + msg);
}

CovMetric metricFromName(size_t lineNo, const std::string& name) {
  for (CovMetric m : kAllCovMetrics) {
    if (covMetricName(m) == name) return m;
  }
  fail(lineNo, "unknown coverage metric '" + name + "'");
}

Value parseValue(std::istringstream& is, DataType type, int width,
                 size_t lineNo) {
  Value v(type, width);
  for (int i = 0; i < width; ++i) {
    std::string tok;
    if (!(is >> tok)) {
      fail(lineNo, "truncated value vector: expected " +
                       std::to_string(width) + " elements, got " +
                       std::to_string(i));
    }
    if (isFloatType(type)) {
      v.setF(i, std::strtod(tok.c_str(), nullptr));
    } else if (type == DataType::U64) {
      v.setI(i, static_cast<int64_t>(
                    std::strtoull(tok.c_str(), nullptr, 10)));
    } else {
      v.setI(i, std::strtoll(tok.c_str(), nullptr, 10));
    }
  }
  return v;
}

// Reads one packed ABI element back into a Value slot; the exact inverse
// of the emitter's packExpr(), so the binary path lands on the same bits
// the text path's %.17g/strtod round-trip produces.
void unpackInto(Value& v, int i, DataType type, uint64_t u) {
  if (isFloatType(type)) {
    double d;
    std::memcpy(&d, &u, 8);
    v.setF(i, d);
  } else {
    v.setI(i, static_cast<int64_t>(u));
  }
}

// Empty result with the per-model geometry both decoders start from.
SimulationResult makeSkeleton(const FlatModel& fm,
                              const CoveragePlan* covPlan,
                              const std::vector<int>& collectSignals) {
  SimulationResult result;
  if (covPlan != nullptr) {
    result.bitmaps = CoverageRecorder(*covPlan);
  }
  result.finalOutputs.resize(fm.rootOutports.size());
  result.collected.resize(collectSignals.size());
  for (size_t k = 0; k < collectSignals.size(); ++k) {
    const SignalInfo& sig = fm.signal(collectSignals[k]);
    result.collected[k].path = sig.name;
    result.collected[k].last = Value(sig.type, sig.width);
  }
  return result;
}

// Shared final ordering — like DiagnosticSink::sorted(). Both decoders
// build their raw lists in the same (actor-major, kind) emission order, so
// this stable sort yields the identical permutation.
void sortDiags(std::vector<DiagRecord>& diags) {
  std::sort(diags.begin(), diags.end(),
            [](const DiagRecord& a, const DiagRecord& b) {
              return std::tie(a.firstStep, a.actorPath) <
                     std::tie(b.firstStep, b.actorPath);
            });
}

DiagRecord customRecord(const FlatModel& fm, const CustomDiagnostic& cd,
                        uint64_t first, uint64_t count) {
  const FlatActor* fa = fm.findByPath(cd.actorPath);
  DiagRecord rec;
  rec.actorId = fa != nullptr ? fa->id : -1;
  rec.actorPath = cd.actorPath;
  rec.kind = DiagKind::Custom;
  rec.message = cd.name;
  rec.firstStep = first;
  rec.count = count;
  return rec;
}

}  // namespace

SimulationResult parseResults(const std::string& output, const FlatModel& fm,
                              const CoveragePlan* covPlan,
                              const DiagnosisPlan* diagPlan,
                              const std::vector<int>& collectSignals,
                              const std::vector<CustomDiagnostic>& custom) {
  (void)diagPlan;
  SimulationResult result = makeSkeleton(fm, covPlan, collectSignals);
  std::vector<DiagRecord> rawDiags;

  std::istringstream in(output);
  std::string line;
  size_t lineNo = 0;
  bool began = false;
  bool ended = false;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line == "ACCMOS_RESULT_BEGIN") {
      began = true;
      continue;
    }
    if (!began) continue;  // program may print diagnostics text first
    if (line == "ACCMOS_RESULT_END") {
      ended = true;
      break;
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "STEPS") {
      if (!(ls >> result.stepsExecuted)) fail(lineNo, "malformed STEPS");
    } else if (tag == "STOPPED_EARLY") {
      int v = 0;
      if (!(ls >> v)) fail(lineNo, "malformed STOPPED_EARLY");
      result.stoppedEarly = v != 0;
    } else if (tag == "TIMED_OUT") {
      int v = 0;
      if (!(ls >> v)) fail(lineNo, "malformed TIMED_OUT");
      result.timedOut = v != 0;
    } else if (tag == "EXEC_NS") {
      uint64_t ns = 0;
      if (!(ls >> ns)) fail(lineNo, "malformed EXEC_NS");
      result.execSeconds = static_cast<double>(ns) * 1e-9;
    } else if (tag == "COVMAP") {
      std::string metric;
      std::string bits;
      if (!(ls >> metric)) fail(lineNo, "COVMAP missing metric name");
      ls >> bits;  // may legitimately be empty (zero instrumented slots)
      if (covPlan == nullptr) continue;
      CovMetric m = metricFromName(lineNo, metric);
      auto& bm = result.bitmaps.bits(m);
      if (bits.size() != bm.size()) {
        fail(lineNo, "coverage bitmap size mismatch for '" + metric +
                         "': got " + std::to_string(bits.size()) +
                         ", plan has " + std::to_string(bm.size()));
      }
      for (size_t k = 0; k < bits.size(); ++k) bm[k] = bits[k] == '1' ? 1 : 0;
      result.hasCoverage = true;
    } else if (tag == "DIAG") {
      int actorId = 0;
      int kind = 0;
      uint64_t first = 0;
      uint64_t count = 0;
      if (!(ls >> actorId >> kind >> first >> count)) {
        fail(lineNo, "malformed DIAG record");
      }
      if (actorId < 0 || actorId >= static_cast<int>(fm.actors.size())) {
        fail(lineNo, "diagnostic references bad actor id " +
                         std::to_string(actorId));
      }
      if (kind < 0 || kind >= kNumDiagKinds) {
        fail(lineNo, "diagnostic references bad kind " +
                         std::to_string(kind));
      }
      DiagRecord rec;
      rec.actorId = actorId;
      rec.actorPath = fm.actor(actorId).path;
      rec.kind = static_cast<DiagKind>(kind);
      rec.firstStep = first;
      rec.count = count;
      rawDiags.push_back(rec);
    } else if (tag == "CUSTOM") {
      size_t idx = 0;
      uint64_t first = 0;
      uint64_t count = 0;
      if (!(ls >> idx >> first >> count)) {
        fail(lineNo, "malformed CUSTOM record");
      }
      if (idx >= custom.size()) {
        fail(lineNo, "custom diagnostic index " + std::to_string(idx) +
                         " out of range (have " +
                         std::to_string(custom.size()) + ")");
      }
      rawDiags.push_back(customRecord(fm, custom[idx], first, count));
    } else if (tag == "COLLECT") {
      size_t idx = 0;
      uint64_t count = 0;
      int width = 0;
      if (!(ls >> idx >> count >> width)) {
        fail(lineNo, "malformed COLLECT record");
      }
      if (idx >= result.collected.size()) {
        fail(lineNo, "collect index " + std::to_string(idx) +
                         " out of range (have " +
                         std::to_string(result.collected.size()) + ")");
      }
      const SignalInfo& sig = fm.signal(collectSignals[idx]);
      if (width != sig.width) {
        fail(lineNo, "collect width mismatch: got " + std::to_string(width) +
                         ", signal has " + std::to_string(sig.width));
      }
      result.collected[idx].count = count;
      result.collected[idx].last = parseValue(ls, sig.type, width, lineNo);
    } else if (tag == "OUT") {
      size_t idx = 0;
      int width = 0;
      if (!(ls >> idx >> width)) fail(lineNo, "malformed OUT record");
      if (idx >= result.finalOutputs.size()) {
        fail(lineNo, "output index " + std::to_string(idx) +
                         " out of range (have " +
                         std::to_string(result.finalOutputs.size()) + ")");
      }
      const FlatActor& fa = fm.actor(fm.rootOutports[idx]);
      const SignalInfo& sig = fm.signal(fa.inputs[0]);
      if (width != sig.width) {
        fail(lineNo, "output width mismatch: got " + std::to_string(width) +
                         ", signal has " + std::to_string(sig.width));
      }
      result.finalOutputs[idx] = parseValue(ls, sig.type, width, lineNo);
    } else if (!tag.empty()) {
      fail(lineNo, "unknown result tag '" + tag + "'");
    }
  }
  if (!began || !ended) {
    fail(lineNo, std::string(!began ? "ACCMOS_RESULT_BEGIN"
                                    : "ACCMOS_RESULT_END") +
                     " never seen — truncated result block:\n" +
                     output.substr(0, 2000));
  }
  sortDiags(rawDiags);
  result.diagnostics = std::move(rawDiags);
  return result;
}

SimulationResult decodeBinaryResults(
    const AccmosRunResult& res, const FlatModel& fm,
    const CoveragePlan* covPlan, const DiagnosisPlan* diagPlan,
    const std::vector<int>& collectSignals,
    const std::vector<CustomDiagnostic>& custom) {
  (void)diagPlan;
  SimulationResult result = makeSkeleton(fm, covPlan, collectSignals);
  std::vector<DiagRecord> rawDiags;

  result.stepsExecuted = res.stepsExecuted;
  result.stoppedEarly = res.stoppedEarly != 0;
  result.timedOut = res.timedOut != 0;
  result.execSeconds = static_cast<double>(res.execNs) * 1e-9;

  if (covPlan != nullptr) {
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

  for (uint64_t i = 0; i < res.diagCount; ++i) {
    const AccmosDiagRec& d = res.diags[i];
    if (d.actorId < 0 || d.actorId >= static_cast<int>(fm.actors.size())) {
      throw ResultParseError("binary result: diagnostic references bad "
                             "actor id " + std::to_string(d.actorId));
    }
    DiagRecord rec;
    rec.actorId = d.actorId;
    rec.actorPath = fm.actor(d.actorId).path;
    rec.kind = static_cast<DiagKind>(d.kind);
    rec.firstStep = d.firstStep;
    rec.count = d.count;
    rawDiags.push_back(rec);
  }
  for (uint64_t i = 0; i < res.customCount; ++i) {
    const AccmosCustomRec& c = res.customs[i];
    if (c.index >= custom.size()) {
      throw ResultParseError("binary result: custom diagnostic index " +
                             std::to_string(c.index) + " out of range");
    }
    rawDiags.push_back(customRecord(fm, custom[static_cast<size_t>(c.index)],
                                    c.firstStep, c.count));
  }

  size_t off = 0;
  for (size_t k = 0; k < collectSignals.size(); ++k) {
    const SignalInfo& sig = fm.signal(collectSignals[k]);
    result.collected[k].count = res.collectCounts[k];
    for (int i = 0; i < sig.width; ++i) {
      unpackInto(result.collected[k].last, i, sig.type,
                 res.collectVals[off + static_cast<size_t>(i)]);
    }
    off += static_cast<size_t>(sig.width);
  }

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

  sortDiags(rawDiags);
  result.diagnostics = std::move(rawDiags);
  return result;
}

}  // namespace accmos
