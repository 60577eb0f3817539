// The binary frame that carries one accmos_run() result across a process
// boundary: the subprocess runner (accmos-run-lib) encodes a run's result
// buffers onto its stdout, and the host copies the frame back into the
// buffers an in-process run fills, then decodes them with
// decodeBinaryResults. Compiled into both the runner and the host library,
// so it depends only on run_abi.h and the standard library.
//
// Layout, in host byte order (both ends run on one machine): a 128-byte
// header — u32 magic "AMRF", u32 ACCMOS_ABI_VERSION, the ten geometry
// fields of AccmosModelInfo from covLen[4] to outValsLen, then
// stepsExecuted, stoppedEarly, timedOut, execNs, diagCount, customCount —
// followed by AccmosDiagRec[diagCount], AccmosCustomRec[customCount],
// collectCounts, collectVals, outVals and the four coverage bitmaps. A
// frame's length must equal exactly what its header implies.
#ifndef ACCMOS_CODEGEN_RESULT_FRAME_H_
#define ACCMOS_CODEGEN_RESULT_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/run_abi.h"

namespace accmos {

// Caller-owned result buffers sized from a model's geometry and wired into
// `res`, ready for an accmos_run() call or a frame decode. Not copyable:
// `res` points into the vectors.
struct RunBuffers {
  explicit RunBuffers(const AccmosModelInfo& geometry);
  RunBuffers(const RunBuffers&) = delete;
  RunBuffers& operator=(const RunBuffers&) = delete;

  AccmosModelInfo info;
  std::vector<uint8_t> cov[4];
  std::vector<AccmosDiagRec> diags;
  std::vector<AccmosCustomRec> customs;
  std::vector<uint64_t> collectCounts;
  std::vector<uint64_t> collectVals;
  std::vector<uint64_t> outVals;
  AccmosRunResult res;
};

// True when two geometries agree on every buffer-sizing field. The host
// holds a loaded library, and every frame, to the geometry its own
// instrumentation plans imply.
bool sameGeometry(const AccmosModelInfo& a, const AccmosModelInfo& b);

std::string encodeResultFrame(const RunBuffers& buf);

// Copies `frame` into `out`, whose geometry the frame must carry. Returns
// an empty string on success, else why the frame was rejected: bad magic
// or version, truncation, trailing bytes, another geometry, or more
// records than `out` holds.
std::string decodeResultFrame(std::string_view frame, RunBuffers& out);

// Exit statuses of accmos-run-lib other than 0 (a frame was written).
enum RunLibExit : int {
  kRunLibExitUsage = 2,  // malformed command line
  kRunLibExitLoad = 3,   // library not loadable, or built for another ABI
  kRunLibExitRun = 4,    // accmos_run returned a failure status
};

}  // namespace accmos

#endif  // ACCMOS_CODEGEN_RESULT_FRAME_H_
