// accmos-run-lib: the subprocess backend's model runner.
//
//   accmos-run-lib LIBRARY STEPS BUDGET SEED TIMEOUT STIMULUS
//
// Loads a generated model library (the same cached shared object the
// engine loads in-process), runs it once through accmos_run on the
// root-Inport table read from the STIMULUS file (a stimulus frame,
// result_frame.h) and writes the result buffers to stdout as one binary
// result frame. BUDGET and TIMEOUT are seconds (0 = none) in a round-trip
// exact format. TIMEOUT is relative, because monotonic clocks of two
// processes need not share an epoch; it becomes an absolute deadline here,
// on the clock the generated step loop reads.
// Exit status 0 means a frame was written; any other status is a
// RunLibExit value, explained on stderr.
#include <dlfcn.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "codegen/result_frame.h"

using namespace accmos;

static int fail(int status, const std::string& what) {
  std::fprintf(stderr, "accmos-run-lib: %s\n", what.c_str());
  return status;
}

int main(int argc, char* argv[]) {
  if (argc != 7) {
    return fail(kRunLibExitUsage,
                "usage: accmos-run-lib LIBRARY STEPS BUDGET SEED TIMEOUT "
                "STIMULUS");
  }
  const std::string lib = argv[1];
  AccmosRunArgs args;
  std::memset(&args, 0, sizeof(args));
  args.structSize = static_cast<uint32_t>(sizeof(AccmosRunArgs));
  args.abiVersion = ACCMOS_ABI_VERSION;
  args.maxSteps = std::strtoull(argv[2], nullptr, 10);
  args.timeBudgetSec = std::strtod(argv[3], nullptr);
  args.seed = std::strtoull(argv[4], nullptr, 10);
  const double timeout = std::strtod(argv[5], nullptr);
  if (timeout > 0.0) {
    args.deadlineSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count() +
        timeout;
  }
  std::ifstream in(argv[6], std::ios::binary);
  const std::string stimulusFrame{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (!in) {
    return fail(kRunLibExitUsage,
                std::string("cannot read the stimulus file ") + argv[6]);
  }
  StimulusTable stimulus;
  if (std::string why = decodeStimulusFrame(stimulusFrame, stimulus);
      !why.empty()) {
    return fail(kRunLibExitUsage,
                std::string("stimulus file ") + argv[6] + ": " + why);
  }
  args.ports = stimulus.ports.data();
  args.numPorts = stimulus.ports.size();

  void* handle = ::dlopen(lib.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) return fail(kRunLibExitLoad, ::dlerror());
  auto* infoFn = reinterpret_cast<AccmosModelInfoFn>(
      ::dlsym(handle, ACCMOS_SYM_MODEL_INFO));
  auto* runFn = reinterpret_cast<AccmosRunFn>(::dlsym(handle, ACCMOS_SYM_RUN));
  if (infoFn == nullptr || runFn == nullptr) {
    return fail(kRunLibExitLoad, lib + " is missing an ABI entry point");
  }
  AccmosModelInfo info;
  std::memset(&info, 0, sizeof(info));
  info.structSize = static_cast<uint32_t>(sizeof(AccmosModelInfo));
  if (infoFn(&info) != ACCMOS_ABI_OK ||
      info.abiVersion != ACCMOS_ABI_VERSION) {
    return fail(kRunLibExitLoad, lib + " reports an incompatible ABI (v" +
                                     std::to_string(info.abiVersion) + ")");
  }

  RunBuffers buf(info);
  const int rc = runFn(&args, &buf.res);
  // ETIMEOUT is a retired run, not a broken one: its frame travels with
  // timedOut set, and the host reports a Timeout.
  if (rc != ACCMOS_ABI_OK && rc != ACCMOS_ABI_ETIMEOUT) {
    return fail(kRunLibExitRun,
                lib + ": accmos_run returned ABI status " + std::to_string(rc));
  }
  const std::string frame = encodeResultFrame(buf);
  if (std::fwrite(frame.data(), 1, frame.size(), stdout) != frame.size() ||
      std::fflush(stdout) != 0) {
    return fail(EXIT_FAILURE, "cannot write the result frame");
  }
  return 0;
}
