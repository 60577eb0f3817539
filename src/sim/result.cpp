#include "sim/result.h"

#include <sstream>

#include "sim/options.h"

namespace accmos {

const DiagRecord* SimulationResult::findDiag(const std::string& pathSubstr,
                                             DiagKind kind) const {
  for (const auto& rec : diagnostics) {
    if (rec.kind == kind &&
        rec.actorPath.find(pathSubstr) != std::string::npos) {
      return &rec;
    }
  }
  return nullptr;
}

std::string SimulationResult::summary() const {
  std::ostringstream os;
  os << "steps=" << stepsExecuted << " exec=" << execSeconds << "s";
  if (generateSeconds > 0.0 || compileSeconds > 0.0) {
    os << " gen=" << generateSeconds << "s compile=" << compileSeconds << "s";
  }
  if (loadSeconds > 0.0) os << " load=" << loadSeconds << "s";
  if (!execMode.empty()) os << " mode=" << execMode;
  if (hasCoverage) os << "\ncoverage: " << coverage.toString();
  os << "\ndiagnostics: " << diagnostics.size() << " kind(s)";
  for (const auto& rec : diagnostics) {
    os << "\n  [" << diagKindName(rec.kind) << "] " << rec.actorPath
       << " first@" << rec.firstStep << " x" << rec.count;
    if (!rec.message.empty()) os << " (" << rec.message << ")";
  }
  return os.str();
}

std::string_view engineName(Engine e) {
  switch (e) {
    case Engine::AccMoS: return "AccMoS";
    case Engine::SSE: return "SSE";
    case Engine::SSEac: return "SSEac";
    case Engine::SSErac: return "SSErac";
  }
  return "?";
}

std::string_view execModeName(ExecMode m) {
  switch (m) {
    case ExecMode::Dlopen: return "dlopen";
    case ExecMode::Process: return "process";
  }
  return "?";
}

}  // namespace accmos
