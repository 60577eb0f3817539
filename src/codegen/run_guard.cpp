#include "codegen/run_guard.h"

#include <setjmp.h>
#include <signal.h>

#include <algorithm>
#include <mutex>
#include <vector>

namespace accmos {
namespace {

thread_local sigjmp_buf g_jmpBuf;
thread_local volatile sig_atomic_t g_guardActive = 0;
thread_local volatile sig_atomic_t g_caughtSignal = 0;

constexpr int kGuardedSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL};

void guardHandler(int sig) {
  if (g_guardActive) {
    g_caughtSignal = sig;
    g_guardActive = 0;
    siglongjmp(g_jmpBuf, 1);
  }
  // Fault outside any guarded region: restore the default disposition and
  // re-raise so the process dies exactly as it would have without us.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void installHandlersOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    sa.sa_handler = guardHandler;
    sigemptyset(&sa.sa_mask);
    // SA_NODEFER: the signal stays unblocked after the longjmp skips the
    // normal handler return. SA_ONSTACK: a stack-overflow SIGSEGV needs
    // the alternate stack to run the handler at all.
    sa.sa_flags = SA_NODEFER | SA_ONSTACK;
    for (int sig : kGuardedSignals) ::sigaction(sig, &sa, nullptr);
  });
}

// Per-thread alternate signal stack, installed lazily on first guarded
// call and torn down when the thread exits.
struct AltStack {
  std::vector<char> mem;
  AltStack() : mem(std::max<size_t>(static_cast<size_t>(SIGSTKSZ), 64 << 10)) {
    stack_t ss{};
    ss.ss_sp = mem.data();
    ss.ss_size = mem.size();
    ::sigaltstack(&ss, nullptr);
  }
  ~AltStack() {
    stack_t ss{};
    ss.ss_flags = SS_DISABLE;
    ::sigaltstack(&ss, nullptr);
  }
};

}  // namespace

GuardedCallResult runGuarded(const std::function<int()>& fn) {
  GuardedCallResult out;
  installHandlersOnce();
  thread_local AltStack altStack;
  g_caughtSignal = 0;
  // savemask=1: siglongjmp restores the pre-call signal mask, leaving the
  // thread able to catch the next fault.
  if (sigsetjmp(g_jmpBuf, 1) == 0) {
    g_guardActive = 1;
    out.rc = fn();
    g_guardActive = 0;
  } else {
    out.crashed = true;
    out.signal = static_cast<int>(g_caughtSignal);
  }
  return out;
}

}  // namespace accmos
