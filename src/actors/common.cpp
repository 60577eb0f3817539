#include "actors/common.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace accmos {

std::string fmtD(double v) {
  if (std::isnan(v)) return "(0.0/0.0)";
  if (std::isinf(v)) return v > 0 ? "(1.0/0.0)" : "(-1.0/0.0)";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s(buf);
  // Ensure the literal parses as double, not int.
  if (s.find_first_of(".eEnN") == std::string::npos) s += ".0";
  return s;
}

std::string fmtI(Int128 v) {
  if (v == std::numeric_limits<int64_t>::min()) {
    return "(-9223372036854775807LL - 1)";
  }
  if (v > std::numeric_limits<int64_t>::max()) {
    return std::to_string(static_cast<uint64_t>(v)) + "ULL";
  }
  return std::to_string(static_cast<int64_t>(v)) + "LL";
}

std::vector<Int128> intConstantValues(const Actor& a, DataType t, int width) {
  const Int128 lo = intTypeMin(t);
  const Int128 hi = uintTypeMax(t);
  std::vector<Int128> vals;
  std::istringstream is(a.params().getString("value", "0"));
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (tok.empty()) continue;
    const size_t b = tok.find_first_not_of(" \t");
    const size_t e = tok.find_last_not_of(" \t");
    const std::string lit =
        b == std::string::npos ? "" : tok.substr(b, e - b + 1);
    const size_t digits =
        !lit.empty() && (lit[0] == '-' || lit[0] == '+') ? 1 : 0;
    if (digits == lit.size() ||
        lit.find_first_not_of("0123456789", digits) != std::string::npos) {
      double d = std::strtod(tok.c_str(), nullptr);
      vals.push_back(storeDoubleAsInt(t, d).value);
      continue;
    }
    Int128 v = 0;
    bool huge = false;  // beyond every type's range; stop before Int128 would
    for (size_t k = digits; k < lit.size() && !huge; ++k) {
      v = v * 10 + (lit[k] - '0');
      huge = v > (Int128{1} << 65);
    }
    if (lit[0] == '-') v = -v;
    if (huge || v < lo || v > hi) {
      throw ModelError("actor '" + a.name() + "': value '" + lit +
                       "' is out of range for " +
                       std::string(dataTypeName(t)));
    }
    vals.push_back(v);
  }
  if (vals.empty()) vals.push_back(0);
  vals.resize(static_cast<size_t>(width), vals.back());
  return vals;
}

std::vector<DiagKind> arithDiags(const FlatModel& fm, const FlatActor& fa) {
  std::vector<DiagKind> kinds;
  if (fa.outputs.empty()) return kinds;
  DataType outT = fm.signal(fa.outputs[0]).type;
  if (isIntType(outT) || outT == DataType::Bool) {
    kinds.push_back(saturating(fa) ? DiagKind::SaturateOnOverflow
                                   : DiagKind::WrapOnOverflow);
  } else {
    kinds.push_back(DiagKind::NanInf);
  }
  bool downcast = false;
  bool precision = false;
  for (int sig : fa.inputs) {
    DataType inT = fm.signal(sig).type;
    downcast = downcast || isDowncast(inT, outT);
    precision = precision || losesPrecision(inT, outT);
  }
  if (downcast) kinds.push_back(DiagKind::Downcast);
  if (precision) kinds.push_back(DiagKind::PrecisionLoss);
  return kinds;
}

std::vector<std::pair<DiagKind, std::string>> EmitFlags::asDiagCall() const {
  std::vector<std::pair<DiagKind, std::string>> out;
  if (!wrap.empty()) out.emplace_back(DiagKind::WrapOnOverflow, wrap);
  if (!sat.empty()) out.emplace_back(DiagKind::SaturateOnOverflow, sat);
  if (!prec.empty()) out.emplace_back(DiagKind::PrecisionLoss, prec);
  if (!nan.empty()) out.emplace_back(DiagKind::NanInf, nan);
  return out;
}

EmitFlags declareArithFlags(EmitContext& ctx) {
  EmitFlags flags;
  EmitSink& sink = ctx.sink();
  if (sink.diagOn(DiagKind::WrapOnOverflow)) {
    flags.wrap = sink.freshVar("wf");
    ctx.line("int " + flags.wrap + " = 0;");
  }
  if (sink.diagOn(DiagKind::SaturateOnOverflow)) {
    flags.sat = sink.freshVar("sf");
    ctx.line("int " + flags.sat + " = 0;");
  }
  if (sink.diagOn(DiagKind::PrecisionLoss)) {
    flags.prec = sink.freshVar("pf");
    ctx.line("int " + flags.prec + " = 0;");
  }
  if (sink.diagOn(DiagKind::NanInf)) {
    flags.nan = sink.freshVar("nf");
    ctx.line("int " + flags.nan + " = 0;");
  }
  return flags;
}

std::string storeOutSat(EmitContext& ctx, const std::string& idx,
                        const std::string& expr, const EmitFlags& flags,
                        bool sat) {
  DataType t = ctx.outType();
  if (!sat || isFloatType(t)) {
    return ctx.storeOutStmt(idx, expr, flags.wrap, flags.prec);
  }
  return foldStmt(t, ctx.out() + "[" + idx + "]", expr, true, flags.sat,
                  flags.prec);
}

void beginElemLoop(EmitContext& ctx, int width) {
  // A one-pass loop costs the compiler a loop to analyze and peel; the
  // bodies use neither break nor continue, so a block computes the same.
  if (width == 1) {
    ctx.line("{ const int i = 0;");
  } else {
    ctx.line("for (int i = 0; i < " + std::to_string(width) + "; ++i) {");
  }
}

void endElemLoop(EmitContext& ctx) { ctx.line("}"); }

std::string nanCheckStmt(const EmitFlags& flags, const std::string& expr) {
  if (flags.nan.empty()) return "";
  return "if (!accmos_isfinite(" + expr + ")) " + flags.nan + " = 1;";
}

void finishEmit(EmitContext& ctx, const EmitFlags& flags) {
  auto call = flags.asDiagCall();
  if (ctx.sink().diagOn(DiagKind::Downcast)) {
    // Static property (paper Fig. 4 line 4): fires on every execution.
    call.emplace_back(DiagKind::Downcast, "1");
  }
  ctx.sink().diagCall(call);
}

std::vector<char> parseOps(const Actor& a, const std::string& def,
                           const std::string& allowed) {
  std::string ops = a.params().getString("ops", def);
  if (ops.empty()) ops = def;
  std::vector<char> out;
  for (char c : ops) {
    if (allowed.find(c) == std::string::npos) {
      throw ModelError("actor '" + a.name() + "': bad ops character '" +
                       std::string(1, c) + "' (allowed: " + allowed + ")");
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace accmos
