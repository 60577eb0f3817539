// The benchmark's workloads. Each runs against the public API and the real
// `accmos` binary, checks its outputs, and fills the report: end-to-end
// samples untraced, per-layer samples traced.
#pragma once

#include "common.h"

namespace accbench {

void runTable1ColdRun(const Options& o, Report& rep, Trace& tr);
void runCsevCampaign(const Options& o, Report& rep, Trace& tr);
void runServeMix(const Options& o, Report& rep, Trace& tr);

}  // namespace accbench
