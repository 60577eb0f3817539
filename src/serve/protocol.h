// Wire protocol of the accmosd resident service (docs/SERVICE.md).
//
// Two layers live here:
//
//  * Codecs — toJson/fromJson pairs for every struct that crosses the
//    socket: SimOptions, TestCaseSpec, SimulationResult, CampaignResult and
//    their members, the shard messages, the hello and the pool statistics.
//    The contract is *exact* round-trips: a result decoded by the client is
//    bit-identical to the one the daemon computed — including NaN payloads
//    and -0.0 in Values (which travel as decimal uint64 bit patterns, never
//    as JSON doubles), 64-bit counters (integer JSON flavours, never
//    squeezed through a double), coverage bitmaps, diagnostics, and
//    contained RunFailure records. Shape errors throw JsonError naming the
//    JSON path ("$.result.perSeed[3].seed").
//
//    Each struct's JSON shape is written once, as a field list in
//    protocol.cpp: one `f("key", s.member)` line per member, in wire order.
//    One generic encoder and one generic decoder walk that list, and the
//    member's C++ type picks its JSON flavour, so a new field is one line.
//    Only Value, CoverageRecorder, CoverageReport and campaignObservations
//    are written by hand, each because it hides a format of its own. The
//    golden wire-text tests in tests/test_protocol.cpp pin every message
//    byte for byte.
//
//    The two long arrays, a campaign request's specs and a campaign
//    result's perSeed rows, are written straight into the frame text one
//    element at a time (renderedArray) and read back one element at a
//    time (JsonReader): neither end holds a DOM of the whole array.
//
//  * Frames — length-prefixed messages over a connected stream socket:
//    a 4-byte big-endian payload length followed by that many bytes of
//    JSON text. Framing keeps the parser simple (one document per frame)
//    and makes a truncated peer detectable instead of a hang. Transport
//    faults throw ProtocolError.
//
// The stats and shutdown requests are a bare "op"; run and campaign
// requests carry the envelopes below. The op grammar is documented in
// docs/SERVICE.md and exercised end-to-end by tests/test_serve.cpp.
#pragma once

#include <chrono>
#include <optional>
#include <string>

#include "serve/json.h"
#include "serve/lib_pool.h"
#include "serve/version.h"
#include "sim/campaign.h"
#include "sim/options.h"
#include "sim/result.h"
#include "sim/testcase.h"

namespace accmos::serve {

// Transport-level failure: short read/write, oversize frame, socket error.
// Distinct from JsonError (malformed or mis-shaped payload) so callers can
// tell "the peer vanished" from "the peer spoke garbage".
class ProtocolError : public ModelError {
 public:
  explicit ProtocolError(const std::string& what) : ModelError(what) {}
};

// A frame that did not arrive whole within readFrame's deadline, or a
// wait for a peer that did not speak in time.
class FrameDeadlineError : public ProtocolError {
 public:
  explicit FrameDeadlineError(const std::string& what)
      : ProtocolError(what) {}
};

// ---- Codecs ------------------------------------------------------------
// Every fromJson takes `where`, the JSON path of `j` in the enclosing
// document, and extends it downward for error anchoring.

Json toJson(const Value& v);
Value valueFromJson(const Json& j, const std::string& where);

Json toJson(const CoverageRecorder& rec);
CoverageRecorder recorderFromJson(const Json& j, const std::string& where);

Json toJson(const CoverageReport& rep);
CoverageReport reportFromJson(const Json& j, const std::string& where);

Json toJson(const DiagRecord& d);
DiagRecord diagFromJson(const Json& j, const std::string& where);

Json toJson(const RunFailure& f);
RunFailure runFailureFromJson(const Json& j, const std::string& where);

Json toJson(const OptStats& s);
OptStats optStatsFromJson(const Json& j, const std::string& where);

Json toJson(const CollectedSignal& c);
CollectedSignal collectedFromJson(const Json& j, const std::string& where);

Json toJson(const SimulationResult& r);
SimulationResult simResultFromJson(const Json& j, const std::string& where);

Json toJson(const CampaignSeedResult& r);
CampaignSeedResult seedResultFromJson(const Json& j, const std::string& where);

// The rows of the encoded result are written from `r` when the document
// is written (renderedArray): write it while `r` lives.
Json toJson(const CampaignResult& r);
CampaignResult campaignResultFromJson(const Json& j, const std::string& where);
// The same decoder over a reader at the result's value: perSeed is read
// one row at a time. ServeClient reads a campaign response this way.
CampaignResult campaignResultFromReader(JsonReader& r,
                                        const std::string& where);

Json toJson(const PortStimulus& p);
PortStimulus portStimulusFromJson(const Json& j, const std::string& where);

Json toJson(const TestCaseSpec& s);
TestCaseSpec specFromJson(const Json& j, const std::string& where);

// SimOptions reject CustomDiagnostic::Kind::Expression in both
// directions: its std::function callback cannot travel, and accepting the
// cppCondition string alone would hand remote clients arbitrary code
// injection into generated simulators. toJson throws ProtocolError naming
// the diagnostic. For the same reason optionsFromJson accepts an optFlag
// only when isOptLevel holds: the flag reaches the compiler's shell line.
Json toJson(const SimOptions& o);
SimOptions optionsFromJson(const Json& j, const std::string& where);

// ---- Shard messages (src/dist sharded campaigns) -----------------------
// The coordinator ↔ shard-worker wire pieces (docs/CAMPAIGNS.md, "Sharded
// campaigns"). A coordinator sends one ShardRequest frame down each
// worker's socketpair; the worker answers with a stream of ShardPartial
// frames (op "partial") — per-spec SimulationResults for consecutive
// shard-local spec indices — and one final ShardDone frame (op "done")
// carrying the one-off cost bookkeeping. Results travel whole (bitmaps,
// diagnostics, failures) precisely so the coordinator can run the very
// same spec-order merge a single process runs: bit-identity is inherited
// from the codecs' exact round-trip contract, not re-proven per field.

struct ShardRequest {
  std::string modelText;            // full model XML; each shard flattens
                                    // and optimizes it identically
  SimOptions options;               // per-shard options (campaign.workers
                                    // is the shard's INNER parallelism)
  std::vector<TestCaseSpec> specs;  // this shard's contiguous sub-range
  size_t shardIndex = 0;
  size_t shardCount = 1;
};
Json toJson(const ShardRequest& r);
ShardRequest shardRequestFromJson(const Json& j, const std::string& where);

struct ShardPartial {
  size_t first = 0;  // shard-local spec index of results[0]
  std::vector<SimulationResult> results;
};
Json toJson(const ShardPartial& p);
ShardPartial shardPartialFromJson(const Json& j, const std::string& where);

struct ShardDone {
  // Contiguous completed prefix of the shard's spec list; < specs.size()
  // exactly when the worker was interrupted (SIGINT/SIGTERM forwarded by
  // the coordinator).
  size_t completed = 0;
  bool interrupted = false;
  double generateSeconds = 0.0;
  double compileSeconds = 0.0;
  double loadSeconds = 0.0;
  bool compileCacheHit = false;
  uint64_t compilerInvocations = 0;  // this worker process's count
};
Json toJson(const ShardDone& d);
ShardDone shardDoneFromJson(const Json& j, const std::string& where);

// ---- Request envelopes ---------------------------------------------------
// A run or campaign request is its "op" ("run" or "campaign") and then its
// envelope: the model, the options, and the run's one "spec" or the
// campaign's "specs". Each envelope's shape is one field list, which
// ServeClient's encoder and the daemon's decoder both walk.
//
// The "model" is the model's XML text (a JSON string), or an unsigned
// integer k that names a text the same connection registered earlier: the
// daemon answers a request that carried a text with "model": k, and
// ServeClient sends k in place of that text from then on.

struct ModelName {
  std::string text;               // the XML text, when the request carried it
  std::optional<uint64_t> index;  // else the registered index it named
};

struct RunRequest {
  ModelName model;
  SimOptions options;
  TestCaseSpec spec;
};

struct CampaignRequest {
  ModelName model;
  SimOptions options;
  std::vector<TestCaseSpec> specs;
};

// The request frames ServeClient sends, written over its arguments: the
// model as its text `model`, or as the registered index `model`. A
// campaign's specs go into the text one at a time, each rendered from
// `specs` (a seeded batch's from its base spec and the seed): the wire
// carries every spec whole, and none is copied on the way.
std::string runRequestText(const std::string& model, const SimOptions& options,
                           const TestCaseSpec& spec);
std::string runRequestText(uint64_t model, const SimOptions& options,
                           const TestCaseSpec& spec);
std::string campaignRequestText(const std::string& model,
                                const SimOptions& options, SpecBatch specs);
std::string campaignRequestText(uint64_t model, const SimOptions& options,
                                SpecBatch specs);

// A request frame as the daemon reads it: the op of any request, and the
// envelope of a "run" or a "campaign" (the other stays empty). Keys may
// come in any order, and a repeated key's last value wins. A campaign's
// specs are read one element at a time. Errors are the field lists' typed
// JsonErrors ("$: missing key 'model'", "$.specs[3].ports[1]: missing key
// 'min'", "$.model: expected a model text or an unsigned index"). Whether
// an index was registered is the daemon's to check.
struct Request {
  std::string op;
  RunRequest run;
  CampaignRequest campaign;
};
Request requestFromText(const std::string& text);

// ---- Service messages ----------------------------------------------------

// The hello each side of a connection sends first: this build's wire
// protocol, run ABI, version and compile-cache schema, after "op":
// "hello". The daemon answers with the same message, "ok": true first.
// The daemon reads only "op" and "protocol" of a client's hello, so a
// client of any version learns of a mismatch instead of a shape error.
struct Hello {
  uint64_t protocol = kProtocolVersion;
  uint64_t abi = ACCMOS_ABI_VERSION;
  std::string version = kAccmosVersion;
  std::string cacheSchema = kCacheSchema;
};
Json toJson(const Hello& h);
Json helloAnswer(const Hello& h);
Hello helloFromJson(const Json& j, const std::string& where);

// What the daemon reports about how it served a request — the client's
// window into pool behaviour ("was my model already warm?").
struct ServiceMeta {
  bool poolHit = false;
  PoolStats pool;
};
Json toJson(const PoolStats& s);
Json toJson(const ServiceMeta& m);
ServiceMeta serviceMetaFromJson(const Json& j, const std::string& where);

// ---- Observation canonicalization --------------------------------------
// The observation-only view of a campaign: everything that is contractually
// bit-identical across workers, execution rungs and shards — per-seed
// steps/coverage/diagnostic counts, merged bitmaps, deduplicated
// diagnostics, failure records, opt stats — with timing and placement
// fields (execSeconds, execMode, workersUsed) excluded. Client-vs-local
// bit-identity asserts compare the rendered text of this view. Like
// toJson(CampaignResult), it writes perSeed from `r` when written.
Json campaignObservations(const CampaignResult& r);

// ---- Frames ------------------------------------------------------------

// Upper bound on one frame's payload; a length prefix beyond it is treated
// as a corrupt stream, not an allocation request.
inline constexpr uint32_t kMaxFrameBytes = 1u << 28;

// Writes one length-prefixed frame. Throws ProtocolError on any socket
// error (including the peer closing mid-write) or an oversize payload.
void writeFrame(int fd, const std::string& payload);

// Reads one frame. Returns false on a clean EOF at a frame boundary (the
// peer hung up between messages); throws ProtocolError on a truncated
// frame, an oversize length prefix, or a socket error. Memory is committed
// for the bytes received, not for the length the prefix claims. With a
// nonzero `deadline`, the wait for a frame's first byte is unbounded but
// the rest must follow within `deadline` of it, else FrameDeadlineError.
bool readFrame(int fd, std::string* payload,
               std::chrono::milliseconds deadline = {});

// Waits at most `within` for `fd` to have bytes (or EOF) to read; false if
// it has none by then. Throws ProtocolError on a socket error.
bool waitReadable(int fd, std::chrono::milliseconds within);

}  // namespace accmos::serve
