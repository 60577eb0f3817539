// Model-level optimization pipeline, run between flattening and engine
// construction (paper §3.1 sits upstream; both the AccMoS code generator
// and the SSE interpreter consume the optimized FlatModel unchanged).
//
// Every simulation, campaign, generation loop, pool entry and shard runs
// the pipeline; engines take whatever model they are given, so the
// unoptimized reference is an engine called on the flattened model. It
// never changes observable behaviour: outputs, coverage bitmaps,
// diagnostics, collected signals and stop behaviour are bit-identical to
// the unoptimized model — instrumented actors are liveness roots and
// folding evaluates through the actors' own eval() semantics. See
// docs/OPTIMIZATION.md.
#pragma once

#include "graph/flat_model.h"
#include "opt/stats.h"
#include "sim/options.h"

namespace accmos {

// Returns an optimized copy of `fm`: constant folding, identity
// simplification, dead-actor/dead-signal elimination, schedule compaction.
// The input model is not modified; `stats` (optional) receives per-pass
// counts. The result is re-validated before returning.
FlatModel optimizeModel(const FlatModel& fm, const SimOptions& opt,
                        OptStats* stats = nullptr);

}  // namespace accmos
