// Sharded campaigns: the deterministic seed-order merge taken across
// process boundaries (docs/CAMPAIGNS.md, "Sharded campaigns").
//
// A coordinator splits a campaign's spec list into contiguous shards and
// fans them over N `accmos shard-worker` processes, each running the
// existing parallel campaign engine (SpecEvaluator) on its sub-range. Workers stream per-spec SimulationResults back over the
// length-prefixed JSON frame protocol (src/serve/protocol.h) on a
// socketpair; the coordinator concatenates them in shard order and runs
// the very same spec-order merge a single process runs (mergeSpecResults),
// so the final CampaignResult is bit-identical to `runCampaignSpecs` for
// any shard count x worker count.
//
// All shards point at one coordinator-owned compile-cache directory (the
// shared artifact store); the cross-process single-flight claim in
// CompilerDriver makes a cold campaign pay exactly one compiler
// invocation fleet-wide.
//
// Fault containment mirrors the in-process campaign contract:
//  * A worker-process death (crash, kill, transport loss) surfaces as
//    contained per-spec RunFailures for that shard's unanswered specs —
//    never a coordinator abort; other shards are unaffected.
//  * SIGINT/SIGTERM propagate cooperatively: the coordinator forwards the
//    signal to every worker, each flushes the contiguous prefix it
//    finished, and the merged result covers the longest contiguous global
//    prefix — bit-identical to the same prefix of an uninterrupted
//    campaign (CLI exit code 9, docs/ROBUSTNESS.md).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/campaign.h"
#include "sim/options.h"
#include "sim/testcase.h"

namespace accmos::dist {

struct ShardOptions {
  // Worker processes to spawn; clamped to [1, specs.size()].
  size_t shards = 1;
  // The accmos binary to exec as `<workerPath> shard-worker`. Empty means
  // self (/proc/self/exe) — right for the CLI; tests that are not the
  // accmos binary themselves pass the CLI path explicitly.
  std::string workerPath;
  // Shared artifact store every shard compiles against (exported to the
  // workers as ACCMOS_CACHE_DIR). Empty means the coordinator's own
  // resolved cache dir, so the fleet always agrees on one store.
  std::string cacheDir;
};

// Fleet-level bookkeeping a CampaignResult has no fields for.
struct ShardStats {
  size_t shards = 0;               // worker processes actually spawned
  size_t deadWorkers = 0;          // workers that died without finishing
  // Compiler invocations summed across every worker process plus the
  // coordinator — the "exactly one cold compile fleet-wide" assertion.
  uint64_t fleetCompilerInvocations = 0;
};

// Contiguous split: shard i covers [i*n/N, (i+1)*n/N) of n specs —
// every spec in exactly one shard, shards ordered, sizes within one.
std::vector<std::pair<size_t, size_t>> shardRanges(size_t specCount,
                                                   size_t shards);

// The coordinator. Spawns the workers, streams, merges; throws ModelError
// for an unusable configuration (empty specs, uninstrumented engine) and
// serve::ProtocolError only when a worker cannot even be spawned. Worker
// failures after spawn are contained (see above). `opt.campaign.workers`
// is each shard's INNER parallelism.
CampaignResult runShardedCampaign(const std::string& modelText,
                                  const SimOptions& opt,
                                  const std::vector<TestCaseSpec>& specs,
                                  const ShardOptions& sopt,
                                  ShardStats* stats = nullptr);

// The worker side of the protocol, speaking both directions on `fd`
// (the coordinator dup2()s its socketpair end onto fd 0 before exec).
// Reads one ShardRequest frame, evaluates the shard's specs in blocks on
// one SpecEvaluator, streams ShardPartial frames, finishes with a
// ShardDone frame. Returns the process exit code: 0 on a clean finish
// (including a cooperative interrupt — the coordinator owns the exit
// semantics), nonzero when the request itself was unusable.
int runShardWorker(int fd);

}  // namespace accmos::dist
