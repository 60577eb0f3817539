#include "serve/protocol.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <concepts>
#include <limits>
#include <span>
#include <type_traits>

#include "codegen/compiler_driver.h"
#include "ir/datatype.h"

namespace accmos::serve {

namespace {

std::string sub(const std::string& where, const char* key) {
  return where + "." + key;
}

std::string idx(const std::string& where, size_t i) {
  return where + "[" + std::to_string(i) + "]";
}

[[noreturn]] void badEnum(const std::string& where, const std::string& got) {
  throw JsonError("unknown name \"" + got + "\" at " + where);
}

// ---- Enum names --------------------------------------------------------
// One table per enum, read in both directions: the values that may travel,
// each named by the enum's own name function. The encoder writes a value's
// name; the decoder takes the value of that name and rejects any other.

template <class E>
struct NameTable {
  std::span<const E> values;
  std::string_view (*name)(E);
};

constexpr Engine kEngines[] = {Engine::AccMoS, Engine::SSE, Engine::SSEac,
                               Engine::SSErac};
constexpr FailureKind kFailureKinds[] = {
    FailureKind::Timeout, FailureKind::Crash, FailureKind::CompileError,
    FailureKind::AbiMismatch};
// Expression is not one of them: see outbound(CustomDiagnostic) below.
constexpr CustomDiagnostic::Kind kCustomKinds[] = {
    CustomDiagnostic::Kind::Range, CustomDiagnostic::Kind::SuddenChange};

NameTable<Engine> names(Engine) { return {kEngines, engineName}; }
NameTable<FailureKind> names(FailureKind) {
  return {kFailureKinds,
          [](FailureKind k) -> std::string_view { return failureKindName(k); }};
}
NameTable<DiagKind> names(DiagKind) { return {kAllDiagKinds, diagKindName}; }
NameTable<DataType> names(DataType) { return {kAllDataTypes, dataTypeName}; }
NameTable<CustomDiagnostic::Kind> names(CustomDiagnostic::Kind) {
  return {kCustomKinds, [](CustomDiagnostic::Kind k) -> std::string_view {
            return k == CustomDiagnostic::Kind::Range ? "range"
                                                      : "sudden-change";
          }};
}

// ---- Field lists -------------------------------------------------------
// One list per wire struct: `f("key", s.member)` per member, in wire
// order. S is the struct or the const struct, so the same list drives the
// encoder and the decoder below. A new field is one line here.

template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

// A field whose elements are many: a campaign's per-seed rows and a
// campaign request's specs. Its elements are written one at a time
// (renderedArray), and a reader decodes them one at a time (decRows
// below), since a DOM of them all would cost far more than their text.
// A DOM decodes it as a plain array.
template <class V>
struct Rows {
  V& elements;
};
template <class V>
Rows(V&) -> Rows<V>;

template <Of<DiagRecord> S, class F>
void fields(S& d, F&& f) {
  f("actorId", d.actorId);
  f("actorPath", d.actorPath);
  f("kind", d.kind);
  f("message", d.message);
  f("firstStep", d.firstStep);
  f("count", d.count);
}

template <Of<RunFailure> S, class F>
void fields(S& r, F&& f) {
  f("kind", r.kind);
  f("seed", r.seed);
  f("index", r.index);
  f("signal", r.signal);
  f("retries", r.retries);
  f("backend", r.backend);
  f("message", r.message);
}

template <Of<OptStats> S, class F>
void fields(S& s, F&& f) {
  f("actorsBefore", s.actorsBefore);
  f("actorsAfter", s.actorsAfter);
  f("signalsBefore", s.signalsBefore);
  f("signalsAfter", s.signalsAfter);
  f("actorsFolded", s.actorsFolded);
  f("identitiesBypassed", s.identitiesBypassed);
  f("actorsEliminated", s.actorsEliminated);
  f("signalsEliminated", s.signalsEliminated);
  f("stateUpdatesHoisted", s.stateUpdatesHoisted);
}

template <Of<CollectedSignal> S, class F>
void fields(S& c, F&& f) {
  f("path", c.path);
  f("last", c.last);
  f("count", c.count);
}

template <Of<CoverageReport::Entry> S, class F>
void fields(S& e, F&& f) {
  f("covered", e.covered);
  f("total", e.total);
}

template <Of<SimulationResult> S, class F>
void fields(S& r, F&& f) {
  f("stepsExecuted", r.stepsExecuted);
  f("stoppedEarly", r.stoppedEarly);
  f("timedOut", r.timedOut);
  f("failed", r.failed);
  f("failure", r.failure);
  f("execSeconds", r.execSeconds);
  f("generateSeconds", r.generateSeconds);
  f("compileSeconds", r.compileSeconds);
  f("loadSeconds", r.loadSeconds);
  f("execMode", r.execMode);
  f("hasCoverage", r.hasCoverage);
  f("coverage", r.coverage);
  f("bitmaps", r.bitmaps);
  f("diagnostics", r.diagnostics);
  f("collected", r.collected);
  f("finalOutputs", r.finalOutputs);
  f("optStats", r.optStats);
}

template <Of<CampaignSeedResult> S, class F>
void fields(S& r, F&& f) {
  f("seed", r.seed);
  f("steps", r.steps);
  f("execSeconds", r.execSeconds);
  f("coverage", r.coverage);
  f("cumulative", r.cumulative);
  f("diagnosticKinds", r.diagnosticKinds);
  f("execMode", r.execMode);
  f("failed", r.failed);
}

template <Of<CampaignResult> S, class F>
void fields(S& r, F&& f) {
  f("perSeed", Rows{r.perSeed});
  f("cumulative", r.cumulative);
  f("mergedBitmaps", r.mergedBitmaps);
  f("diagnostics", r.diagnostics);
  f("totalExecSeconds", r.totalExecSeconds);
  f("wallSeconds", r.wallSeconds);
  f("generateSeconds", r.generateSeconds);
  f("compileSeconds", r.compileSeconds);
  f("loadSeconds", r.loadSeconds);
  f("compileCacheHit", r.compileCacheHit);
  f("workersUsed", r.workersUsed);
  f("failures", r.failures);
  f("optStats", r.optStats);
  f("interrupted", r.interrupted);
}

template <Of<PortStimulus> S, class F>
void fields(S& p, F&& f) {
  f("min", p.min);
  f("max", p.max);
  f("sequence", p.sequence);
}

template <Of<TestCaseSpec> S, class F>
void fields(S& s, F&& f) {
  f("seed", s.seed);
  f("ports", s.ports);
  f("defaultPort", s.defaultPort);
}

template <Of<CustomDiagnostic> S, class F>
void fields(S& c, F&& f) {
  f("actorPath", c.actorPath);
  f("name", c.name);
  f("kind", c.kind);
  f("minValue", c.minValue);
  f("maxValue", c.maxValue);
  f("maxDelta", c.maxDelta);
}

template <Of<SimOptions> S, class F>
void fields(S& o, F&& f) {
  f("engine", o.engine);
  f("maxSteps", o.maxSteps);
  f("timeBudgetSec", o.timeBudgetSec);
  f("stopOnDiagnostic", o.stopOnDiagnostic);
  f("runTimeoutSec", o.runTimeoutSec);
  f("coverage", o.coverage);
  f("diagnosis", o.diagnosis);
  f("collectList", o.collectList);
  f("customDiagnostics", o.customDiagnostics);
  f("optFlag", o.optFlag);
  f("workers", o.campaign.workers);
}

// The run and campaign request envelopes. The daemon decodes them into
// RunRequest and CampaignRequest (protocol.h); ServeClient encodes the Ref
// forms, whose members refer to its caller's model text, options and
// specs, so a request copies none of them.

// A request's model as ServeClient writes it: the caller's text, or the
// index the daemon registered it under.
struct ModelRef {
  const std::string* text;  // nullptr when the request names `index`
  uint64_t index;
};

struct RunRequestRef {
  ModelRef model;
  const SimOptions& options;
  const TestCaseSpec& spec;
};

struct CampaignRequestRef {
  ModelRef model;
  const SimOptions& options;
  const SpecBatch& specs;
};

template <class S>
concept RunEnvelope = Of<S, RunRequest> || Of<S, RunRequestRef>;
template <class S>
concept CampaignEnvelope = Of<S, CampaignRequest> || Of<S, CampaignRequestRef>;

template <RunEnvelope S, class F>
void fields(S& r, F&& f) {
  f("model", r.model);
  f("options", r.options);
  f("spec", r.spec);
}

template <CampaignEnvelope S, class F>
void fields(S& r, F&& f) {
  f("model", r.model);
  f("options", r.options);
  f("specs", Rows{r.specs});
}

// The requests, the shard messages and the hello also carry a constant
// "op" first, written by their public encoders below.

template <Of<ShardRequest> S, class F>
void fields(S& r, F&& f) {
  f("model", r.modelText);
  f("options", r.options);
  f("specs", r.specs);
  f("shardIndex", r.shardIndex);
  f("shardCount", r.shardCount);
}

template <Of<ShardPartial> S, class F>
void fields(S& p, F&& f) {
  f("first", p.first);
  f("results", p.results);
}

template <Of<ShardDone> S, class F>
void fields(S& d, F&& f) {
  f("completed", d.completed);
  f("interrupted", d.interrupted);
  f("generateSeconds", d.generateSeconds);
  f("compileSeconds", d.compileSeconds);
  f("loadSeconds", d.loadSeconds);
  f("compileCacheHit", d.compileCacheHit);
  f("compilerInvocations", d.compilerInvocations);
}

template <Of<Hello> S, class F>
void fields(S& h, F&& f) {
  f("protocol", h.protocol);
  f("abi", h.abi);
  f("version", h.version);
  f("cacheSchema", h.cacheSchema);
}

template <Of<PoolStats> S, class F>
void fields(S& s, F&& f) {
  f("entries", s.entries);
  f("residentBytes", s.residentBytes);
  f("byteBudget", s.byteBudget);
  f("hits", s.hits);
  f("misses", s.misses);
  f("evictions", s.evictions);
}

template <Of<ServiceMeta> S, class F>
void fields(S& m, F&& f) {
  f("poolHit", m.poolHit);
  f("pool", m.pool);
}

// ---- Checks around the lists -------------------------------------------
// Each runs wherever its struct travels: outbound before the struct is
// encoded, inbound after it is decoded.

// An Expression check goes neither way. Its std::function callback cannot
// travel, and accepting its C++ condition string alone would let any
// client inject code into the daemon's generated simulators: the encoder
// refuses it here, and the decoder has no name for its kind.
void outbound(const CustomDiagnostic& c) {
  if (c.kind == CustomDiagnostic::Kind::Expression) {
    throw ProtocolError(
        "custom diagnostic \"" + c.name + "\" on " + c.actorPath +
        " is an Expression check; callbacks cannot travel over the " +
        "accmosd protocol — evaluate it locally or restate it as a " +
        "range/sudden-change diagnostic");
  }
}

// The flag lands on the compiler's shell command line: only the four
// levels may come off the wire.
void inbound(const SimOptions& o, const std::string& where) {
  if (!isOptLevel(o.optFlag)) badEnum(sub(where, "optFlag"), o.optFlag);
}

// ---- The walkers -------------------------------------------------------
// The member's C++ type picks its leaf codec: bool; unsigned integers
// (uint64_t, size_t) as u64 and signed ones (int, int64_t) as i64; double
// as a number; an enum by its name; a string; a vector as an array with
// [i] paths; a listed struct by its field list; Value and the coverage
// types through their hand-written codecs below.

template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
constexpr bool kIsRows = false;
template <class V>
constexpr bool kIsRows<Rows<V>> = true;

template <class T>
concept Listed = requires(T& s) { fields(s, [](const char*, auto&&) {}); };

template <class T>
Json enc(const T& v);
template <class T>
void dec(const Json& j, const std::string& where, T& v);

void dec(const Json& j, const std::string& where, Value& v) {
  v = valueFromJson(j, where);
}
void dec(const Json& j, const std::string& where, CoverageRecorder& r) {
  r = recorderFromJson(j, where);
}
void dec(const Json& j, const std::string& where, CoverageReport& r) {
  r = reportFromJson(j, where);
}

// A request's model is a string (its text) or an unsigned integer (an
// index); only the daemon resolves the index.
Json enc(const ModelRef& m) {
  return m.text != nullptr ? Json::str(*m.text) : Json::u64(m.index);
}
void dec(const Json& j, const std::string& where, ModelName& m) {
  if (j.kind() == Json::Kind::String) {
    m = {j.asString(where), std::nullopt};
  } else if (j.kind() == Json::Kind::U64) {
    m = {std::string(), j.asU64(where)};
  } else {
    throw JsonError(where + ": expected a model text or an unsigned index");
  }
}

// The object of `s`'s field list, after the members already in `j`.
template <class S>
Json encFields(const S& s, Json j = Json::object()) {
  if constexpr (requires { outbound(s); }) outbound(s);
  fields(s, [&j](const char* key, const auto& m) { j.set(key, enc(m)); });
  return j;
}

// With `rowsRead`, the Rows members were read already (decFields over a
// reader, below), and only their keys are checked.
template <class S>
void decFields(const Json& j, const std::string& where, S& s,
               bool rowsRead = false) {
  fields(s, [&](const char* key, auto&& m) {
    const Json& v = j.at(key, where);
    if constexpr (kIsRows<std::remove_cvref_t<decltype(m)>>) {
      if (rowsRead) return;
    }
    dec(v, sub(where, key), m);
  });
  if constexpr (requires { inbound(s, where); }) inbound(s, where);
}

template <class T>
Json enc(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return Json::boolean(v);
  } else if constexpr (std::is_integral_v<T> && std::is_unsigned_v<T>) {
    return Json::u64(v);
  } else if constexpr (std::is_integral_v<T>) {
    return Json::i64(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    return Json::number(v);
  } else if constexpr (std::is_enum_v<T>) {
    return Json::str(std::string(names(v).name(v)));
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Json::str(v);
  } else if constexpr (kIsVector<T>) {
    Json a = Json::array();
    for (const auto& e : v) a.push(enc(e));
    return a;
  } else if constexpr (kIsRows<T>) {
    return renderedArray(v.elements, [](const auto& e) { return enc(e); });
  } else if constexpr (Listed<T>) {
    return encFields(v);
  } else {
    return toJson(v);
  }
}

template <class T>
void dec(const Json& j, const std::string& where, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = j.asBool(where);
  } else if constexpr (std::is_same_v<T, int>) {
    // Checked, not narrowed: the bytes come from an untrusted peer.
    const int64_t x = j.asI64(where);
    if (x < std::numeric_limits<int>::min() ||
        x > std::numeric_limits<int>::max()) {
      throw JsonError(where + ": expected an int, got " + std::to_string(x));
    }
    v = static_cast<int>(x);
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(sizeof(T) == sizeof(uint64_t));
    if constexpr (std::is_unsigned_v<T>) {
      v = j.asU64(where);
    } else {
      v = j.asI64(where);
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    v = j.asDouble(where);
  } else if constexpr (std::is_enum_v<T>) {
    const std::string& got = j.asString(where);
    const NameTable<T> table = names(v);
    for (T e : table.values) {
      if (table.name(e) == got) {
        v = e;
        return;
      }
    }
    badEnum(where, got);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = j.asString(where);
  } else if constexpr (kIsVector<T>) {
    const auto& arr = j.asArray(where);
    v.clear();
    for (size_t i = 0; i < arr.size(); ++i) {
      dec(arr[i], idx(where, i), v.emplace_back());
    }
  } else if constexpr (kIsRows<T>) {
    dec(j, where, v.elements);
  } else {
    decFields(j, where, v);
  }
}

template <class T>
T decoded(const Json& j, const std::string& where) {
  T v;
  dec(j, where, v);
  return v;
}

// ---- Reading one element at a time ---------------------------------------
// decFields over a reader. Each Rows member is read one element at a time
// as it arrives: the element's small DOM is decoded and dropped. Every
// other member is read whole into a small DOM, which decFields then reads
// in list order. So the errors are the DOM decoder's, keys may come in any
// order, and a repeated key's last value wins.

template <class V>
void decRows(JsonReader& r, const std::string& where, V& v) {
  if (r.peek() != '[') {  // not an array: the DOM decoder names its kind
    dec(r.value(), where, v);
    return;
  }
  v.clear();
  size_t i = 0;
  if (r.beginArray()) {
    do {
      dec(r.value(), idx(where, i++), v.emplace_back());
    } while (r.nextElement());
  }
}

// Reads the object at `r`: its members that are Rows fields of `s` into
// `s`, and every other member into the returned DOM.
template <class S>
Json readRows(JsonReader& r, const std::string& where, S& s) {
  return r.object([&](const std::string& key) {
    bool claimed = false;
    fields(s, [&](const char* k, auto&& m) {
      if constexpr (kIsRows<std::remove_cvref_t<decltype(m)>>) {
        if (!claimed && key == k) {
          decRows(r, sub(where, k), m.elements);
          claimed = true;
        }
      }
    });
    return claimed;
  });
}

// A message object whose constant "op" comes first.
Json opObject(const char* op) {
  Json j = Json::object();
  j.set("op", Json::str(op));
  return j;
}

}  // namespace

// ---- Value -------------------------------------------------------------
// Exact element transport: each slot travels as its 64-bit two's-complement
// / IEEE-754 bit pattern rendered as a decimal uint64. Value::i() exposes
// the raw slot for every type (sign-extended for ints, the bit pattern for
// floats), so NaN payloads, -0.0 and wrapped unsigned values all survive.

Json toJson(const Value& v) {
  Json j = Json::object();
  j.set("t", enc(v.type()));
  j.set("w", Json::u64(static_cast<uint64_t>(v.width())));
  Json bits = Json::array();
  for (int k = 0; k < v.width(); ++k) {
    bits.push(Json::u64(static_cast<uint64_t>(v.i(k))));
  }
  j.set("bits", std::move(bits));
  return j;
}

Value valueFromJson(const Json& j, const std::string& where) {
  DataType type{};
  dec(j.at("t", where), sub(where, "t"), type);
  uint64_t width = 0;
  dec(j.at("w", where), sub(where, "w"), width);
  const std::string bwhere = sub(where, "bits");
  const auto& bits = j.at("bits", where).asArray(bwhere);
  if (width < 1 || bits.size() != width) {
    throw JsonError("width/bits mismatch at " + where);
  }
  Value v(type, static_cast<int>(width));
  for (size_t k = 0; k < bits.size(); ++k) {
    uint64_t raw = bits[k].asU64(idx(bwhere, k));
    if (type == DataType::F64) {
      v.setF(static_cast<int>(k), std::bit_cast<double>(raw));
    } else if (type == DataType::F32) {
      v.setF(static_cast<int>(k),
             static_cast<double>(
                 std::bit_cast<float>(static_cast<uint32_t>(raw))));
    } else {
      v.setI(static_cast<int>(k), static_cast<int64_t>(raw));
    }
  }
  return v;
}

// ---- Coverage ----------------------------------------------------------
// Bitmaps travel as '0'/'1' strings per metric — compact, diffable, and
// the decoded recorder compares equal byte-for-byte. A report is keyed by
// metric name, each metric's entry through its field list.

Json toJson(const CoverageRecorder& rec) {
  Json j = Json::object();
  for (CovMetric m : kAllCovMetrics) {
    const auto& bits = rec.bits(m);
    std::string s(bits.size(), '0');
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] != 0) s[i] = '1';
    }
    j.set(std::string(covMetricName(m)), Json::str(std::move(s)));
  }
  return j;
}

CoverageRecorder recorderFromJson(const Json& j, const std::string& where) {
  CoverageRecorder rec;
  for (CovMetric m : kAllCovMetrics) {
    const std::string key(covMetricName(m));
    const std::string& s = j.at(key, where).asString(where + "." + key);
    auto& bits = rec.bits(m);
    bits.assign(s.size(), 0);
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i] == '1') {
        bits[i] = 1;
      } else if (s[i] != '0') {
        throw JsonError("bitmap byte " + std::to_string(i) + " at " + where +
                        "." + key + " is not '0'/'1'");
      }
    }
  }
  return rec;
}

Json toJson(const CoverageReport& rep) {
  Json j = Json::object();
  for (CovMetric m : kAllCovMetrics) {
    j.set(std::string(covMetricName(m)), enc(rep.of(m)));
  }
  return j;
}

CoverageReport reportFromJson(const Json& j, const std::string& where) {
  CoverageReport rep;
  for (CovMetric m : kAllCovMetrics) {
    const std::string key(covMetricName(m));
    dec(j.at(key, where), where + "." + key,
        rep.entries[static_cast<size_t>(m)]);
  }
  return rep;
}

// ---- Listed structs ----------------------------------------------------

Json toJson(const DiagRecord& d) { return enc(d); }
DiagRecord diagFromJson(const Json& j, const std::string& where) {
  return decoded<DiagRecord>(j, where);
}

Json toJson(const RunFailure& f) { return enc(f); }
RunFailure runFailureFromJson(const Json& j, const std::string& where) {
  return decoded<RunFailure>(j, where);
}

Json toJson(const OptStats& s) { return enc(s); }
OptStats optStatsFromJson(const Json& j, const std::string& where) {
  return decoded<OptStats>(j, where);
}

Json toJson(const CollectedSignal& c) { return enc(c); }
CollectedSignal collectedFromJson(const Json& j, const std::string& where) {
  return decoded<CollectedSignal>(j, where);
}

Json toJson(const SimulationResult& r) { return enc(r); }
SimulationResult simResultFromJson(const Json& j, const std::string& where) {
  return decoded<SimulationResult>(j, where);
}

Json toJson(const CampaignSeedResult& r) { return enc(r); }
CampaignSeedResult seedResultFromJson(const Json& j, const std::string& where) {
  return decoded<CampaignSeedResult>(j, where);
}

Json toJson(const CampaignResult& r) { return enc(r); }
CampaignResult campaignResultFromJson(const Json& j, const std::string& where) {
  return decoded<CampaignResult>(j, where);
}
CampaignResult campaignResultFromReader(JsonReader& r,
                                        const std::string& where) {
  CampaignResult out;
  decFields(readRows(r, where, out), where, out, /*rowsRead=*/true);
  return out;
}

Json toJson(const PortStimulus& p) { return enc(p); }
PortStimulus portStimulusFromJson(const Json& j, const std::string& where) {
  return decoded<PortStimulus>(j, where);
}

Json toJson(const TestCaseSpec& s) { return enc(s); }
TestCaseSpec specFromJson(const Json& j, const std::string& where) {
  return decoded<TestCaseSpec>(j, where);
}

Json toJson(const SimOptions& o) { return enc(o); }
SimOptions optionsFromJson(const Json& j, const std::string& where) {
  return decoded<SimOptions>(j, where);
}

Json toJson(const ShardRequest& r) { return encFields(r, opObject("shard")); }
ShardRequest shardRequestFromJson(const Json& j, const std::string& where) {
  return decoded<ShardRequest>(j, where);
}

Json toJson(const ShardPartial& p) {
  return encFields(p, opObject("partial"));
}
ShardPartial shardPartialFromJson(const Json& j, const std::string& where) {
  return decoded<ShardPartial>(j, where);
}

Json toJson(const ShardDone& d) { return encFields(d, opObject("done")); }
ShardDone shardDoneFromJson(const Json& j, const std::string& where) {
  return decoded<ShardDone>(j, where);
}

std::string runRequestText(const std::string& model, const SimOptions& options,
                           const TestCaseSpec& spec) {
  return encFields(RunRequestRef{{&model, 0}, options, spec}, opObject("run"))
      .write();
}
std::string runRequestText(uint64_t model, const SimOptions& options,
                           const TestCaseSpec& spec) {
  return encFields(RunRequestRef{{nullptr, model}, options, spec},
                   opObject("run"))
      .write();
}

std::string campaignRequestText(const std::string& model,
                                const SimOptions& options, SpecBatch specs) {
  return encFields(CampaignRequestRef{{&model, 0}, options, specs},
                   opObject("campaign"))
      .write();
}
std::string campaignRequestText(uint64_t model, const SimOptions& options,
                                SpecBatch specs) {
  return encFields(CampaignRequestRef{{nullptr, model}, options, specs},
                   opObject("campaign"))
      .write();
}

Request requestFromText(const std::string& text) {
  JsonReader r(text);
  Request q;
  // The op says which envelope the frame holds, and it may come last. So
  // the specs are read into the campaign's envelope whatever the op, and
  // every other member waits in a small DOM until the op is known.
  const Json rest = readRows(r, "$", q.campaign);
  r.finish();
  q.op = rest.at("op", "$").asString("$.op");
  if (q.op == "run") decFields(rest, "$", q.run);
  if (q.op == "campaign") decFields(rest, "$", q.campaign, /*rowsRead=*/true);
  return q;
}

Json toJson(const Hello& h) { return encFields(h, opObject("hello")); }
Json helloAnswer(const Hello& h) {
  Json j = Json::object();
  j.set("ok", Json::boolean(true));
  j.set("op", Json::str("hello"));
  return encFields(h, std::move(j));
}
Hello helloFromJson(const Json& j, const std::string& where) {
  return decoded<Hello>(j, where);
}

Json toJson(const PoolStats& s) { return enc(s); }
Json toJson(const ServiceMeta& m) { return enc(m); }
ServiceMeta serviceMetaFromJson(const Json& j, const std::string& where) {
  return decoded<ServiceMeta>(j, where);
}

// ---- Observation canonicalization --------------------------------------

Json campaignObservations(const CampaignResult& r) {
  Json j = Json::object();
  j.set("perSeed", renderedArray(r.perSeed, [](const CampaignSeedResult& s) {
          Json row = Json::object();
          row.set("seed", Json::u64(s.seed));
          row.set("steps", Json::u64(s.steps));
          row.set("coverage", toJson(s.coverage));
          row.set("cumulative", toJson(s.cumulative));
          row.set("diagnosticKinds", enc(s.diagnosticKinds));
          row.set("failed", Json::boolean(s.failed));
          return row;
        }));
  j.set("cumulative", toJson(r.cumulative));
  j.set("mergedBitmaps", toJson(r.mergedBitmaps));
  j.set("diagnostics", enc(r.diagnostics));
  Json fails = Json::array();
  for (const auto& f : r.failures) {
    // Failure records minus the backend/retry detail: which ladder rung
    // finally contained a fault is an execution-policy observation, the
    // (kind, seed, index, signal) tuple is the workload observation.
    Json fj = Json::object();
    fj.set("kind", enc(f.kind));
    fj.set("seed", Json::u64(f.seed));
    fj.set("index", enc(f.index));
    fails.push(std::move(fj));
  }
  j.set("failures", std::move(fails));
  j.set("optStats", toJson(r.optStats));
  j.set("interrupted", Json::boolean(r.interrupted));
  return j;
}

// ---- Frames ------------------------------------------------------------

namespace {

void sendAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("frame write failed: ") +
                          ::strerror(errno));
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
}

using Clock = std::chrono::steady_clock;

// Waits until `fd` has bytes (or EOF) to read; false once `until` passes
// first.
bool readableBy(int fd, Clock::time_point until) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        until - Clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int n = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (n > 0) return true;
    if (n < 0 && errno != EINTR) {
      throw ProtocolError(std::string("frame read failed: ") +
                          ::strerror(errno));
    }
  }
}

// Returns bytes read; stops short only on EOF. With `until`, a read that
// would block first waits for data no later than *until.
size_t recvAll(int fd, void* data, size_t len,
               const Clock::time_point* until) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, p + got, len - got,
                       until != nullptr ? MSG_DONTWAIT : 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (until != nullptr && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!readableBy(fd, *until)) {
          throw FrameDeadlineError("a frame did not arrive whole");
        }
        continue;
      }
      throw ProtocolError(std::string("frame read failed: ") +
                          ::strerror(errno));
    }
    if (n == 0) break;  // EOF
    got += static_cast<size_t>(n);
  }
  return got;
}

}  // namespace

bool waitReadable(int fd, std::chrono::milliseconds within) {
  return readableBy(fd, Clock::now() + within);
}

void writeFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ProtocolError("frame payload of " + std::to_string(payload.size()) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFrameBytes) + "-byte limit");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  unsigned char hdr[4] = {static_cast<unsigned char>(len >> 24),
                          static_cast<unsigned char>(len >> 16),
                          static_cast<unsigned char>(len >> 8),
                          static_cast<unsigned char>(len)};
  sendAll(fd, hdr, sizeof hdr);
  sendAll(fd, payload.data(), payload.size());
}

bool readFrame(int fd, std::string* payload,
               std::chrono::milliseconds deadline) {
  unsigned char hdr[4];
  // A peer may idle between frames as long as it likes; the deadline, if
  // any, starts with the frame's first byte.
  size_t got = recvAll(fd, hdr, 1, nullptr);
  if (got == 0) return false;  // clean EOF at a frame boundary
  const Clock::time_point until = Clock::now() + deadline;
  const Clock::time_point* bound = deadline.count() > 0 ? &until : nullptr;
  got += recvAll(fd, hdr + 1, sizeof hdr - 1, bound);
  if (got < sizeof hdr) {
    throw ProtocolError("peer closed mid-frame (truncated length prefix)");
  }
  const uint32_t len = (static_cast<uint32_t>(hdr[0]) << 24) |
                       (static_cast<uint32_t>(hdr[1]) << 16) |
                       (static_cast<uint32_t>(hdr[2]) << 8) |
                       static_cast<uint32_t>(hdr[3]);
  if (len > kMaxFrameBytes) {
    throw ProtocolError("frame length prefix of " + std::to_string(len) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFrameBytes) +
                        "-byte limit (corrupt stream?)");
  }
  // Grow the payload as its bytes arrive, a chunk at a time: the length
  // prefix is the peer's claim, and memory follows what it actually sent.
  constexpr size_t kChunkBytes = size_t{1} << 20;
  payload->clear();
  while (payload->size() < len) {
    const size_t at = payload->size();
    const size_t want = std::min<size_t>(kChunkBytes, len - at);
    payload->resize(at + want);
    if (recvAll(fd, payload->data() + at, want, bound) < want) {
      throw ProtocolError("peer closed mid-frame (got fewer than " +
                          std::to_string(len) + " payload bytes)");
    }
  }
  return true;
}

}  // namespace accmos::serve
