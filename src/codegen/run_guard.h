// In-process crash containment for dlopen'd generated code: an ABI call
// is wrapped in a sigsetjmp guard so a fatal signal raised inside the
// generated step loop (SIGSEGV/SIGBUS/SIGFPE/SIGILL) longjmps back to
// the host instead of killing the whole campaign/gen process.
//
// Honesty note (docs/ROBUSTNESS.md): recovering a C++ process after
// SIGSEGV is best-effort — the generated model's heap state is abandoned
// (leaked, by design) and nothing re-enters the faulted library call.
// The guard exists to buy ONE orderly retry on the subprocess backend
// and to trip the quarantine counter; a model that faults twice is
// demoted to the subprocess rung, where the OS provides real isolation.
#ifndef ACCMOS_CODEGEN_RUN_GUARD_H_
#define ACCMOS_CODEGEN_RUN_GUARD_H_

#include <functional>

namespace accmos {

struct GuardedCallResult {
  int rc = 0;          // fn's return value when !crashed
  bool crashed = false;
  int signal = 0;      // the fatal signal caught when crashed
};

// Runs fn() with the fatal-signal guard armed on this thread. Handlers
// are installed process-wide once (SA_NODEFER|SA_ONSTACK, per-thread
// sigaltstack); a guarded thread that faults longjmps out, an unguarded
// thread re-raises with the default disposition — behavior outside
// guarded regions is unchanged. Always armed: a debugger stops on the
// fatal signal before the handler runs.
GuardedCallResult runGuarded(const std::function<int()>& fn);

}  // namespace accmos

#endif  // ACCMOS_CODEGEN_RUN_GUARD_H_
