// Watchdogged fork/exec with resource limits — the containment substrate
// under both CompilerDriver paths (compiler invocations and generated
// subprocess runs). Replaces std::system()/popen(): those give the host
// no handle to kill a wedged child, no way to cap its resources, and no
// distinction between "timed out and we killed it" and "died of SIGKILL
// on its own" (the OOM-killer signature the retry loop needs to see).
#ifndef ACCMOS_CODEGEN_SUBPROCESS_H_
#define ACCMOS_CODEGEN_SUBPROCESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace accmos {

// Limits applied to the child. All default off (0). Wall-clock timeout is
// enforced by the parent: on expiry the whole child PROCESS GROUP gets
// SIGKILL (the child setpgid()s itself, so compiler driver scripts and
// cc1plus die with it). The rlimits are enforced by the kernel in the
// child before exec.
struct SpawnLimits {
  double timeoutSec = 0.0;     // wall-clock watchdog
  double cpuSeconds = 0.0;     // RLIMIT_CPU (rounded up to whole seconds)
  uint64_t memoryBytes = 0;    // RLIMIT_AS
  uint64_t fileSizeBytes = 0;  // RLIMIT_FSIZE
};

struct SpawnResult {
  bool launchFailed = false;  // fork/pipe failed; see launchErrno
  int launchErrno = 0;
  bool timedOut = false;  // watchdog fired; status reflects our SIGKILL
  int status = 0;         // raw waitpid status (WIFEXITED/WIFSIGNALED)
  std::string output;     // stdout, plus stderr when merged
  std::string errors;     // stderr when not merged

  bool exitedOk() const;
};

// Runs argv[0] with the given argv (no shell involved), capturing stdout
// and stderr through pipes — into one string when `mergeStderr`, else
// apart, so a binary stdout stays clean. Never throws; every failure mode
// is in the returned struct. The child is always fully reaped before
// return — a deadline-exceeded run can never linger and block process
// exit.
SpawnResult spawnAndCapture(const std::vector<std::string>& argv,
                            const SpawnLimits& limits,
                            bool mergeStderr = true);

// "exited with status N" / "killed by signal N (SIGSEGV)" — shared by
// CompilerDriver diagnostics and the failure taxonomy.
std::string describeWaitStatus(int status);

// True when the wait status says "killed by exactly this signal".
bool statusKilledBy(int status, int sig);

}  // namespace accmos

#endif  // ACCMOS_CODEGEN_SUBPROCESS_H_
