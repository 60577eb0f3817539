// Decodes generated-simulator results back into the SimulationResult
// structure the in-process engines produce — what makes AccMoS-vs-SSE
// results directly comparable in the tests and in the Table 2/3 benches.
//
// One decoder for both execution backends: an in-process accmos_run()
// call fills caller-owned buffers directly (ExecMode::Dlopen), and a
// subprocess run's result frame is first copied into the same buffers by
// readResultFrame (ExecMode::Process). Both then go through
// decodeBinaryResults.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "codegen/result_frame.h"
#include "cov/coverage.h"
#include "graph/flat_model.h"
#include "ir/model.h"
#include "sim/options.h"
#include "sim/result.h"

namespace accmos {

// Malformed, truncated or out-of-range result data. A ModelError so
// pipeline-level handlers see it.
class ResultParseError : public ModelError {
 public:
  explicit ResultParseError(const std::string& what) : ModelError(what) {}
};

// Copies a result frame written by the subprocess runner into `out`,
// whose geometry is the one the host's instrumentation plans imply.
// Throws ResultParseError when the frame is rejected (see
// decodeResultFrame in result_frame.h).
void readResultFrame(std::string_view frame, RunBuffers& out);

// Decodes the caller-owned buffers of a completed accmos_run() call, or of
// a frame readResultFrame accepted. `collectSignals` must be the emitter's
// monitored-signal list; `covPlan` is null when the program was generated
// without coverage. Throws ResultParseError on any out-of-range field
// (actor id, diagnostic kind, custom index, record count beyond its
// buffer, bitmap size) — never returns a silent partial result.
SimulationResult decodeBinaryResults(
    const AccmosRunResult& res, const FlatModel& fm,
    const CoveragePlan* covPlan, const std::vector<int>& collectSignals,
    const std::vector<CustomDiagnostic>& custom);

}  // namespace accmos
