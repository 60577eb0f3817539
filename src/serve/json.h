// Minimal JSON document model for the accmosd wire protocol (src/serve).
//
// Deliberately small and owned by this repo: the protocol needs (1) exact
// round-trips for every field of SimulationResult/CampaignResult — 64-bit
// counters kept as integers, never squeezed through a double — and (2)
// line/byte-anchored parse errors in the results_parser tradition, so a
// malformed frame names the offending position instead of failing
// somewhere downstream. Third-party JSON libraries give neither guarantee
// and the container bakes none in.
//
// Number handling: a number literal parses to one of three flavours —
// unsigned 64-bit, signed 64-bit, or double — chosen by what the literal
// fits exactly. The writer emits integers as integers and doubles with
// %.17g (enough digits to round-trip IEEE-754 doubles bit-exactly through
// strtod). Values that must survive bit-for-bit regardless of flavour
// (NaN payloads, -0.0) travel as decimal uint64 bit patterns at the
// protocol layer, not as JSON doubles.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/model.h"

namespace accmos::serve {

// Malformed JSON text or a type/shape mismatch while reading a document.
// Parse errors carry "line L, byte B" (1-based line, 0-based absolute byte
// offset); shape errors carry the JSON path being read ("$.options.engine").
class JsonError : public ModelError {
 public:
  explicit JsonError(const std::string& what) : ModelError(what) {}
};

class Json {
 public:
  enum class Kind : uint8_t {
    Null, Bool, U64, I64, Double, String, Array, Object, Rendered
  };

  Json() = default;  // null
  static Json null() { return Json(); }
  static Json boolean(bool v);
  static Json u64(uint64_t v);
  static Json i64(int64_t v);
  static Json number(double v);
  static Json str(std::string v);
  static Json array();
  static Json object();
  // JSON text rendered already, which write() copies verbatim (see
  // renderedArray). Every reader treats it as a kind mismatch, and
  // parseJson never produces one.
  static Json rendered(std::string text);

  Kind kind() const { return kind_; }

  // Checked accessors: throw JsonError naming `where` on a kind mismatch.
  // Integer flavours convert when the value fits the requested range;
  // doubles are accepted for asDouble from any numeric flavour.
  bool asBool(const std::string& where) const;
  uint64_t asU64(const std::string& where) const;
  int64_t asI64(const std::string& where) const;
  double asDouble(const std::string& where) const;
  const std::string& asString(const std::string& where) const;
  const std::vector<Json>& asArray(const std::string& where) const;

  // Object access. Members keep insertion order so serialization is
  // deterministic (round-trip tests compare rendered text).
  Json& set(const std::string& key, Json value);      // object only
  const Json* find(const std::string& key) const;     // nullptr when absent
  // Required member: throws JsonError("missing key ...") when absent.
  const Json& at(const std::string& key, const std::string& where) const;
  const std::vector<std::pair<std::string, Json>>& members(
      const std::string& where) const;

  Json& push(Json value);  // array only

  // Renders compactly (no whitespace beyond what strings carry).
  std::string write() const;
  // The same text, appended to `out`.
  void write(std::string& out) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  uint64_t u64_ = 0;
  int64_t i64_ = 0;
  double dbl_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

// An array rendered one element at a time: `elementJson(e)` builds each
// element's small DOM, which is written and dropped at once. A campaign's
// per-seed rows (about 31 nodes of 112 bytes each per row) then cost
// their text rather than a node tree of every row. The text is the one
// the same array built with array()/push() writes.
template <class Range, class ElementJson>
Json renderedArray(const Range& elements, ElementJson elementJson) {
  std::string text = "[";
  bool first = true;
  for (const auto& e : elements) {
    if (!first) text.push_back(',');
    first = false;
    elementJson(e).write(text);
  }
  text.push_back(']');
  return Json::rendered(std::move(text));
}

// Parses one JSON document (the whole string must be consumed apart from
// trailing whitespace). Throws JsonError with the 1-based line and the
// absolute byte offset of the problem.
Json parseJson(const std::string& text);

}  // namespace accmos::serve
