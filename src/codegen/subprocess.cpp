#include "codegen/subprocess.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

namespace accmos {

namespace {

using Clock = std::chrono::steady_clock;

void applyChildLimits(const SpawnLimits& limits) {
  // Runs between fork and exec: async-signal-safe calls only.
  if (limits.cpuSeconds > 0.0) {
    rlimit rl;
    rl.rlim_cur = static_cast<rlim_t>(std::ceil(limits.cpuSeconds));
    rl.rlim_max = rl.rlim_cur + 2;  // SIGXCPU first, hard SIGKILL shortly after
    ::setrlimit(RLIMIT_CPU, &rl);
  }
  if (limits.memoryBytes > 0) {
    rlimit rl;
    rl.rlim_cur = static_cast<rlim_t>(limits.memoryBytes);
    rl.rlim_max = rl.rlim_cur;
    ::setrlimit(RLIMIT_AS, &rl);
  }
  if (limits.fileSizeBytes > 0) {
    rlimit rl;
    rl.rlim_cur = static_cast<rlim_t>(limits.fileSizeBytes);
    rl.rlim_max = rl.rlim_cur;
    ::setrlimit(RLIMIT_FSIZE, &rl);
  }
}

}  // namespace

bool SpawnResult::exitedOk() const {
  return !launchFailed && !timedOut && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

SpawnResult spawnAndCapture(const std::vector<std::string>& argv,
                            const SpawnLimits& limits, bool mergeStderr) {
  SpawnResult res;
  if (argv.empty()) {
    res.launchFailed = true;
    res.launchErrno = EINVAL;
    return res;
  }

  // Pipe 0 carries stdout (and stderr when merged), pipe 1 stderr.
  int fds[2][2] = {{-1, -1}, {-1, -1}};
  const int streams = mergeStderr ? 1 : 2;
  auto closeAll = [&fds] {
    for (auto& p : fds) {
      for (int& fd : p) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
  };
  for (int i = 0; i < streams; ++i) {
    if (::pipe(fds[i]) != 0) {
      res.launchFailed = true;
      res.launchErrno = errno;
      closeAll();
      return res;
    }
  }

  pid_t pid = ::fork();
  if (pid < 0) {
    res.launchFailed = true;
    res.launchErrno = errno;
    closeAll();
    return res;
  }

  if (pid == 0) {
    // Child. Own process group, so the watchdog's kill(-pgid) takes the
    // whole compiler pipeline (driver + cc1plus + as + ld) with it.
    ::setpgid(0, 0);
    applyChildLimits(limits);
    ::dup2(fds[0][1], STDOUT_FILENO);
    ::dup2(fds[streams - 1][1], STDERR_FILENO);
    closeAll();
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());
    // exec failed: report errno on the pipe-free channel available — the
    // exit status. 127 is the shell's "command not found" convention.
    _exit(errno == ENOENT ? 127 : 126);
  }

  // Parent. Mirror the setpgid (races with the child's own call are
  // harmless — one of the two wins and both set the same group).
  ::setpgid(pid, pid);
  pollfd pfds[2];
  std::string* sinks[2] = {&res.output, &res.errors};
  for (int i = 0; i < 2; ++i) {
    if (fds[i][1] >= 0) ::close(fds[i][1]);
    fds[i][1] = -1;
    pfds[i] = {fds[i][0], POLLIN, 0};
  }

  const bool hasDeadline = limits.timeoutSec > 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             hasDeadline ? limits.timeoutSec : 0.0));

  char buf[4096];
  int open = streams;
  while (open > 0) {
    int waitMs = -1;
    if (hasDeadline && !res.timedOut) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      waitMs = static_cast<int>(left.count());
      if (waitMs < 0) waitMs = 0;
    }
    int pr = ::poll(pfds, static_cast<nfds_t>(streams), waitMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) {
      // Watchdog fired: kill the whole group, then keep draining the pipes
      // until EOF so the child can never block on a full pipe during its
      // death and we never return with it still running.
      res.timedOut = true;
      ::kill(-pid, SIGKILL);
      continue;
    }
    for (int i = 0; i < streams; ++i) {
      if (pfds[i].fd < 0 || pfds[i].revents == 0) continue;
      ssize_t n = ::read(pfds[i].fd, buf, sizeof(buf));
      if (n > 0) {
        sinks[i]->append(buf, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        pfds[i].fd = -1;  // EOF; closed below
        --open;
      }
    }
  }
  closeAll();

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  res.status = status;
  if (!res.timedOut && WIFEXITED(status) && WEXITSTATUS(status) == 127) {
    // execvp could not find/launch the program.
    res.launchFailed = true;
    res.launchErrno = ENOENT;
  }
  return res;
}

std::string describeWaitStatus(int status) {
  if (status == -1) {
    return std::string("could not be launched (") + std::strerror(errno) + ")";
  }
  if (WIFSIGNALED(status)) {
    int sig = WTERMSIG(status);
    const char* name = nullptr;
    switch (sig) {
      case SIGKILL: name = "SIGKILL"; break;
      case SIGSEGV: name = "SIGSEGV"; break;
      case SIGBUS: name = "SIGBUS"; break;
      case SIGFPE: name = "SIGFPE"; break;
      case SIGILL: name = "SIGILL"; break;
      case SIGABRT: name = "SIGABRT"; break;
      case SIGTERM: name = "SIGTERM"; break;
      case SIGXCPU: name = "SIGXCPU"; break;
      case SIGXFSZ: name = "SIGXFSZ"; break;
      default: break;
    }
    return "was killed by signal " + std::to_string(sig) +
           (name ? std::string(" (") + name + ")" : "");
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (!WIFEXITED(status)) {
    return "stopped abnormally (wait status " + std::to_string(status) + ")";
  }
  return "";
}

bool statusKilledBy(int status, int sig) {
  return WIFSIGNALED(status) && WTERMSIG(status) == sig;
}

}  // namespace accmos
