// The structured failure taxonomy of the fault-containment layer
// (docs/ROBUSTNESS.md has the narrative version).
//
// Containment turns "a generated model misbehaved" from a process-fatal
// event into data: campaigns and generation sessions record a RunFailure
// per affected seed and keep going, while single-run entry points
// (Simulator::run, the CLI) surface the same taxonomy as typed
// exceptions so callers can tell a hang from a crash from a compiler
// failure without string-matching messages.
#ifndef ACCMOS_SIM_FAILURE_H_
#define ACCMOS_SIM_FAILURE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "ir/model.h"

namespace accmos {

// Why a run produced no usable result. Timeout covers both cooperative
// retirement (deadline / step budget observed inside the generated step
// loop) and the host-side watchdog killing a wedged subprocess. Crash is
// death by signal (SIGSEGV/SIGBUS/SIGFPE/SIGILL in-process, or any fatal
// signal in a subprocess) or a nonzero exit of the generated program.
// CompileError is the compiler failing after retries. AbiMismatch is a
// loaded library rejecting the call or emitting an undecodable result.
enum class FailureKind : uint8_t {
  Timeout = 0,
  Crash = 1,
  CompileError = 2,
  AbiMismatch = 3,
};

const char* failureKindName(FailureKind kind);

// One contained per-run failure, recorded in seed order in
// CampaignResult::failures (and per-result in SimulationResult::failure).
struct RunFailure {
  FailureKind kind = FailureKind::Crash;
  uint64_t seed = 0;
  size_t index = 0;     // spec index within the campaign, when applicable
  int signal = 0;       // terminating signal, 0 when none applies
  int retries = 0;      // containment retries spent before giving up
  std::string backend;  // backend that produced the final verdict
  std::string message;  // human-readable detail (compiler stderr, ...)

  // "seed 1037: Timeout on process after 1 retry (...)" — the one-line
  // form the CLI prints and tests grep for.
  std::string summary() const;
};

// A run exceeded its wall-clock deadline or step budget.
class SimTimeoutError : public ModelError {
 public:
  explicit SimTimeoutError(const std::string& msg) : ModelError(msg) {}
};

// The generated model crashed (fatal signal or nonzero exit).
class SimCrashError : public ModelError {
 public:
  SimCrashError(const std::string& msg, int sig, int exitStatus = 0)
      : ModelError(msg), signal_(sig), exitStatus_(exitStatus) {}
  int terminatingSignal() const { return signal_; }
  // Status of a child process that exited nonzero; 0 otherwise.
  int exitStatus() const { return exitStatus_; }

 private:
  int signal_ = 0;
  int exitStatus_ = 0;
};

// The model file could not be loaded/parsed — distinct from compile and
// runtime failures so the CLI can exit with its own documented code.
class ModelLoadError : public ModelError {
 public:
  explicit ModelLoadError(const std::string& msg) : ModelError(msg) {}
};

}  // namespace accmos

#endif  // ACCMOS_SIM_FAILURE_H_
