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
// strtod); JSON has no literal for a non-finite double, so NaN and ±inf
// go as the strings "nan", "inf" and "-inf", which asDouble reads back.
// Values that must survive bit-for-bit regardless of flavour
// (NaN payloads, -0.0) travel as decimal uint64 bit patterns at the
// protocol layer, not as JSON doubles.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
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

  // Rendered is an array whose elements write() renders straight into
  // its output (see renderedArray). Every reader treats it as a kind
  // mismatch, and the parser never produces one.
  Kind kind() const { return kind_; }

  // Checked accessors: throw JsonError naming `where` on a kind mismatch.
  // Integer flavours convert when the value fits the requested range;
  // doubles are accepted for asDouble from any numeric flavour, and from
  // the strings "nan", "inf" and "-inf".
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
  template <class Range, class ElementJson>
  friend Json renderedArray(const Range& elements, ElementJson elementJson);

  // What a Rendered node keeps: the range it borrows and the function
  // that writes the range's elements as a JSON array.
  struct Rows {
    const void* range;
    void (*write)(const void* range, std::string& out);
  };

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  // The kind says which member holds the value. Every node of a DOM pays
  // for each byte of Json, so the scalars share one slot.
  union {
    Rows rows_{};
    uint64_t u64_;
    int64_t i64_;
    double dbl_;
  };
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

// An array that write() renders one element at a time: `elementJson(e)`
// builds each element's small DOM, which is written into the output and
// dropped at once. A campaign's per-seed rows (about 31 nodes per row)
// then cost their text, written once, rather than a node tree of every
// row. The text is the one the same array built with array()/push()
// writes.
//
// The node borrows `elements`: write the document while the range lives,
// unchanged. `elementJson` must capture nothing, since the node keeps only
// the range.
template <class Range, class ElementJson>
Json renderedArray(const Range& elements, ElementJson /*elementJson*/) {
  static_assert(std::is_empty_v<ElementJson>,
                "renderedArray keeps no state besides the range");
  Json j;
  j.kind_ = Json::Kind::Rendered;
  j.rows_ = {&elements, [](const void* range, std::string& out) {
               out.push_back('[');
               bool first = true;
               for (const auto& e : *static_cast<const Range*>(range)) {
                 if (!first) out.push_back(',');
                 first = false;
                 ElementJson{}(e).write(out);
               }
               out.push_back(']');
             }};
  return j;
}

// A pull reader over one JSON document. It yields an object's members and
// an array's elements one at a time, so a long array can be decoded an
// element at a time rather than as one DOM:
//
//   if (r.beginArray()) do { use(r.value()); } while (r.nextElement());
//   if (r.beginObject()) do { key = r.key(); ...r.value()... }
//   while (r.nextMember());
//
// beginObject/beginArray return false for an empty container. Every parse
// failure throws JsonError with the 1-based line and the absolute byte
// offset of the problem, as parseJson does: parseJson is value() over the
// whole text. The reader refers to `text`, which must outlive it.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  // The next value, whole, as a DOM.
  Json value();
  // The first byte of the next value: '{' opens an object, '[' an array.
  char peek();

  bool beginObject();
  std::string key();  // the next member's key, up to its ':'
  bool nextMember();  // false once the object's '}' is consumed
  bool beginArray();
  bool nextElement();  // false once the array's ']' is consumed

  // An object read member by member: each member whose key `claim(key)`
  // takes is read by `claim` itself (which returns true), and stays in
  // the returned object as a null, so a decoder still sees the key. Every
  // other member goes into the returned object whole; a repeated key's
  // last value wins. A value that is not an object is returned as it is,
  // for the caller's decoder to name its kind.
  template <class Claim>
  Json object(Claim&& claim);

  // Only whitespace may follow the document.
  void finish();

 private:
  [[noreturn]] void fail(const std::string& msg) const;
  void skipWs();
  void expect(char c);
  bool literal(std::string_view lit);
  // Skips to the next value, which the depth limit may refuse.
  void startValue();
  std::string parseString();
  Json parseNumber();

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // containers open around the next value
};

template <class Claim>
Json JsonReader::object(Claim&& claim) {
  if (peek() != '{') return value();
  Json obj = Json::object();
  if (beginObject()) {
    do {
      std::string k = key();
      obj.set(k, claim(k) ? Json() : value());
    } while (nextMember());
  }
  return obj;
}

// Parses one JSON document (the whole string must be consumed apart from
// trailing whitespace). Throws JsonError with the 1-based line and the
// absolute byte offset of the problem.
Json parseJson(std::string_view text);

}  // namespace accmos::serve
