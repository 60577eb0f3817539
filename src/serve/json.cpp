#include "serve/json.h"

#include <array>
#include <charconv>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace accmos::serve {

// Every node of a document pays for each byte of Json (a CSEV test case
// is 31 nodes, a per-seed campaign row about as many).
static_assert(sizeof(Json) <= 112, "Json nodes must not grow");

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = v;
  return j;
}

Json Json::u64(uint64_t v) {
  Json j;
  j.kind_ = Kind::U64;
  j.u64_ = v;
  return j;
}

Json Json::i64(int64_t v) {
  if (v >= 0) return u64(static_cast<uint64_t>(v));
  Json j;
  j.kind_ = Kind::I64;
  j.i64_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::Double;
  j.dbl_ = v;
  return j;
}

Json Json::str(std::string v) {
  Json j;
  j.kind_ = Kind::String;
  j.str_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

namespace {

const char* kindName(Json::Kind k) {
  switch (k) {
    case Json::Kind::Null: return "null";
    case Json::Kind::Bool: return "bool";
    case Json::Kind::U64:
    case Json::Kind::I64:
    case Json::Kind::Double: return "number";
    case Json::Kind::String: return "string";
    case Json::Kind::Array: return "array";
    case Json::Kind::Object: return "object";
    case Json::Kind::Rendered: return "array rendered on write";
  }
  return "?";
}

[[noreturn]] void kindError(const std::string& where, const char* wanted,
                            Json::Kind got) {
  throw JsonError(where + ": expected " + wanted + ", got " + kindName(got));
}

}  // namespace

bool Json::asBool(const std::string& where) const {
  if (kind_ != Kind::Bool) kindError(where, "bool", kind_);
  return bool_;
}

// A double converts to an integer type only inside the type's range:
// outside it the conversion itself is undefined, so the range is checked
// first ([0, 2^64) and [-2^63, 2^63); NaN fails every comparison).
uint64_t Json::asU64(const std::string& where) const {
  if (kind_ == Kind::U64) return u64_;
  if (kind_ == Kind::Double && dbl_ >= 0.0 && dbl_ < 0x1p64 &&
      dbl_ == static_cast<double>(static_cast<uint64_t>(dbl_))) {
    return static_cast<uint64_t>(dbl_);
  }
  kindError(where, "unsigned integer", kind_);
}

int64_t Json::asI64(const std::string& where) const {
  if (kind_ == Kind::I64) return i64_;
  if (kind_ == Kind::U64 &&
      u64_ <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return static_cast<int64_t>(u64_);
  }
  if (kind_ == Kind::Double && dbl_ >= -0x1p63 && dbl_ < 0x1p63 &&
      dbl_ == static_cast<double>(static_cast<int64_t>(dbl_))) {
    return static_cast<int64_t>(dbl_);
  }
  kindError(where, "integer", kind_);
}

double Json::asDouble(const std::string& where) const {
  switch (kind_) {
    case Kind::Double: return dbl_;
    case Kind::U64: return static_cast<double>(u64_);
    case Kind::I64: return static_cast<double>(i64_);
    case Kind::String:
      // The spellings write() gives the non-finite doubles.
      if (str_ == "nan") return std::numeric_limits<double>::quiet_NaN();
      if (str_ == "inf") return std::numeric_limits<double>::infinity();
      if (str_ == "-inf") return -std::numeric_limits<double>::infinity();
      [[fallthrough]];
    default: kindError(where, "number", kind_);
  }
}

const std::string& Json::asString(const std::string& where) const {
  if (kind_ != Kind::String) kindError(where, "string", kind_);
  return str_;
}

const std::vector<Json>& Json::asArray(const std::string& where) const {
  if (kind_ != Kind::Array) kindError(where, "array", kind_);
  return arr_;
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ != Kind::Object) kindError("set('" + key + "')", "object", kind_);
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(key, std::move(value));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key, const std::string& where) const {
  if (kind_ != Kind::Object) kindError(where, "object", kind_);
  const Json* v = find(key);
  if (v == nullptr) throw JsonError(where + ": missing key '" + key + "'");
  return *v;
}

const std::vector<std::pair<std::string, Json>>& Json::members(
    const std::string& where) const {
  if (kind_ != Kind::Object) kindError(where, "object", kind_);
  return obj_;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::Array) kindError("push()", "array", kind_);
  arr_.push_back(std::move(value));
  return *this;
}

namespace {

// How each byte is spelled inside a JSON string: itself, a two-byte
// escape for '"', '\\', '\n', '\r' and '\t', or \u00xx for any other
// control byte. Eight bytes each, so a lookup is one scaled index.
struct alignas(8) Spelling {
  char text[6];
  uint8_t len;
};

constexpr std::array<Spelling, 256> kSpellings = [] {
  constexpr char hex[] = "0123456789abcdef";
  std::array<Spelling, 256> t{};
  for (int b = 0; b < 256; ++b) {
    Spelling& sp = t[static_cast<size_t>(b)];
    switch (b) {
      case '"': sp = {{'\\', '"'}, 2}; break;
      case '\\': sp = {{'\\', '\\'}, 2}; break;
      case '\n': sp = {{'\\', 'n'}, 2}; break;
      case '\r': sp = {{'\\', 'r'}, 2}; break;
      case '\t': sp = {{'\\', 't'}, 2}; break;
      default:
        if (b < 0x20) {
          sp = {{'\\', 'u', '0', '0', hex[b >> 4], hex[b & 0xf]}, 6};
        } else {
          sp = {{static_cast<char>(b)}, 1};
        }
    }
  }
  return t;
}();

// One pass over `s`: the output grows once by 2n + 2, which holds every
// spelling but a control byte's, and by 4 more per control byte. Each
// one- or two-byte spelling is copied as two bytes, and the pointer
// advances by its length.
void writeEscaped(const std::string& s, std::string& out) {
  const size_t begin = out.size();
  out.resize(begin + 2 * s.size() + 2);
  char* p = out.data() + begin;
  *p++ = '"';
  for (const char c : s) {
    const Spelling& sp = kSpellings[static_cast<unsigned char>(c)];
    if (sp.len > 2) [[unlikely]] {
      const size_t at = static_cast<size_t>(p - out.data());
      out.resize(out.size() + sp.len - 2);
      p = out.data() + at;
      std::memcpy(p, sp.text, sp.len);
    } else {
      std::memcpy(p, sp.text, 2);
    }
    p += sp.len;
  }
  *p++ = '"';
  out.resize(static_cast<size_t>(p - out.data()));
}

template <class Int>
void writeInt(Int v, std::string& out) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

void Json::write(std::string& out) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      return;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::U64:
      writeInt(u64_, out);
      return;
    case Kind::I64:
      writeInt(i64_, out);
      return;
    case Kind::Double: {
      // %.17g round-trips every finite double exactly through strtod.
      // JSON has no literal for the non-finite ones (a one-sided range
      // diagnostic's bound is an infinity), so they go as the strings
      // "nan", "inf" and "-inf", which asDouble reads back.
      const double v = dbl_;
      char buf[40];
      if (std::isnan(v)) {
        out += "\"nan\"";
        return;
      }
      if (std::isinf(v)) {
        out += v > 0 ? "\"inf\"" : "\"-inf\"";
        return;
      }
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      // Ensure the literal re-parses as a double flavour, not an integer:
      // flavour is part of the round-trip contract for timing fields.
      if (std::strpbrk(buf, ".eE") == nullptr) {
        std::strcat(buf, ".0");
      }
      out += buf;
      return;
    }
    case Kind::String:
      writeEscaped(str_, out);
      return;
    case Kind::Array: {
      out.push_back('[');
      for (size_t k = 0; k < arr_.size(); ++k) {
        if (k > 0) out.push_back(',');
        arr_[k].write(out);
      }
      out.push_back(']');
      return;
    }
    case Kind::Object: {
      out.push_back('{');
      for (size_t k = 0; k < obj_.size(); ++k) {
        if (k > 0) out.push_back(',');
        writeEscaped(obj_[k].first, out);
        out.push_back(':');
        obj_[k].second.write(out);
      }
      out.push_back('}');
      return;
    }
    case Kind::Rendered:
      rows_.write(rows_.range, out);
      return;
  }
}

// ---- JsonReader --------------------------------------------------------
// Recursive descent over the raw bytes; every failure is anchored to the
// 1-based line and the absolute byte offset of the offending byte. The
// streaming calls and the whole-value parse share one grammar: a value
// parsed whole is read through beginObject/key/nextMember and
// beginArray/nextElement like any streamed one.

namespace {
constexpr int kMaxDepth = 64;
}  // namespace

void JsonReader::fail(const std::string& msg) const {
  size_t line = 1;
  for (size_t k = 0; k < pos_ && k < text_.size(); ++k) {
    if (text_[k] == '\n') ++line;
  }
  throw JsonError("json parse error at line " + std::to_string(line) +
                  ", byte " + std::to_string(pos_) + ": " + msg);
}

void JsonReader::skipWs() {
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++pos_;
    } else {
      break;
    }
  }
}

char JsonReader::peek() {
  skipWs();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonReader::expect(char c) {
  if (pos_ >= text_.size() || text_[pos_] != c) {
    fail(std::string("expected '") + c + "'");
  }
  ++pos_;
}

bool JsonReader::literal(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) == lit) {
    pos_ += lit.size();
    return true;
  }
  return false;
}

void JsonReader::startValue() {
  if (depth_ > kMaxDepth) fail("nesting too deep");
  skipWs();
}

bool JsonReader::beginObject() {
  startValue();
  expect('{');
  ++depth_;
  if (peek() == '}') {
    ++pos_;
    --depth_;
    return false;
  }
  return true;
}

std::string JsonReader::key() {
  if (peek() != '"') fail("expected object key string");
  std::string k = parseString();
  skipWs();
  expect(':');
  return k;
}

bool JsonReader::nextMember() {
  const char c = peek();
  if (c == ',') {
    ++pos_;
    return true;
  }
  if (c == '}') {
    ++pos_;
    --depth_;
    return false;
  }
  fail("expected ',' or '}' in object");
}

bool JsonReader::beginArray() {
  startValue();
  expect('[');
  ++depth_;
  if (peek() == ']') {
    ++pos_;
    --depth_;
    return false;
  }
  return true;
}

bool JsonReader::nextElement() {
  const char c = peek();
  if (c == ',') {
    ++pos_;
    return true;
  }
  if (c == ']') {
    ++pos_;
    --depth_;
    return false;
  }
  fail("expected ',' or ']' in array");
}

void JsonReader::finish() {
  skipWs();
  if (pos_ != text_.size()) fail("trailing data after JSON document");
}

Json JsonReader::value() {
  startValue();
  switch (peek()) {
    case '{': {
      Json obj = Json::object();
      if (beginObject()) {
        do {
          std::string k = key();
          obj.set(k, value());
        } while (nextMember());
      }
      return obj;
    }
    case '[': {
      Json arr = Json::array();
      if (beginArray()) {
        do {
          arr.push(value());
        } while (nextElement());
      }
      return arr;
    }
    case '"': return Json::str(parseString());
    case 't':
      if (literal("true")) return Json::boolean(true);
      fail("invalid literal");
    case 'f':
      if (literal("false")) return Json::boolean(false);
      fail("invalid literal");
    case 'n':
      if (literal("null")) return Json::null();
      fail("invalid literal");
    default:
      return parseNumber();
  }
}

std::string JsonReader::parseString() {
  expect('"');
  std::string out;
  for (;;) {
    // The bytes up to the next quote or escape go in at once.
    size_t stop = pos_;
    while (stop < text_.size() && text_[stop] != '"' && text_[stop] != '\\') {
      ++stop;
    }
    out.append(text_.substr(pos_, stop - pos_));
    pos_ = stop;
    if (pos_ >= text_.size()) fail("unterminated string");
    if (text_[pos_++] == '"') return out;
    if (pos_ >= text_.size()) fail("unterminated escape");
    char e = text_[pos_++];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else { --pos_; fail("invalid \\u escape digit"); }
        }
        // The protocol only ships ASCII control escapes; encode the
        // code point as UTF-8 for completeness.
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        --pos_;
        fail("invalid escape character");
    }
  }
}

Json JsonReader::parseNumber() {
  const size_t start = pos_;
  auto digitAt = [this](size_t k) {
    return k < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[k]));
  };
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  bool digits = false;
  while (digitAt(pos_)) {
    ++pos_;
    digits = true;
  }
  bool integral = true;
  if (pos_ < text_.size() && text_[pos_] == '.') {
    integral = false;
    ++pos_;
    while (digitAt(pos_)) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    integral = false;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    while (digitAt(pos_)) ++pos_;
  }
  if (!digits) {
    pos_ = start;
    fail("invalid number");
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  if (integral) {
    if (*first == '-') {
      int64_t v = 0;
      const auto [end, ec] = std::from_chars(first, last, v);
      if (ec == std::errc() && end == last) return Json::i64(v);
    } else {
      uint64_t v = 0;
      const auto [end, ec] = std::from_chars(first, last, v);
      if (ec == std::errc() && end == last) return Json::u64(v);
    }
    // Out of 64-bit range: fall through to double.
  }
  double v = 0.0;
  const auto [end, ec] = std::from_chars(first, last, v);
  if (ec == std::errc() && end == last) return Json::number(v);
  // Out of double's range, or not a number at all: strtod decides, as it
  // always has (an overflow reads as inf, an underflow as its rounding).
  const std::string lit(first, last);
  char* stop = nullptr;
  v = std::strtod(lit.c_str(), &stop);
  if (stop == nullptr || *stop != '\0') {
    pos_ = start;
    fail("invalid number literal '" + lit + "'");
  }
  return Json::number(v);
}

std::string Json::write() const {
  std::string out;
  write(out);
  return out;
}

Json parseJson(std::string_view text) {
  JsonReader r(text);
  Json v = r.value();
  r.finish();
  return v;
}

}  // namespace accmos::serve
