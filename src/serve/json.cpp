#include "serve/json.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace accmos::serve {

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

Json Json::rendered(std::string text) {
  Json j;
  j.kind_ = Kind::Rendered;
  j.str_ = std::move(text);
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
    case Json::Kind::Rendered: return "rendered JSON text";
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

uint64_t Json::asU64(const std::string& where) const {
  if (kind_ == Kind::U64) return u64_;
  if (kind_ == Kind::Double && dbl_ >= 0.0 &&
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
  if (kind_ == Kind::Double &&
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

void writeEscaped(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
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
    case Kind::U64: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%" PRIu64, u64_);
      out += buf;
      return;
    }
    case Kind::I64: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%" PRId64, i64_);
      out += buf;
      return;
    }
    case Kind::Double: {
      // %.17g round-trips every finite double exactly through strtod.
      // Non-finite timings never travel (Value payloads go as bit
      // patterns), but render something parse-able rather than invalid
      // JSON if one ever does.
      const double v = dbl_;
      char buf[40];
      if (v != v) {
        out += "\"nan\"";
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
      out += str_;
      return;
  }
}

namespace {

// Recursive-descent parser over the raw bytes; every failure is anchored
// to the 1-based line and the absolute byte offset of the offending byte.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = parseValue(0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing data after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    size_t line = 1;
    for (size_t k = 0; k < pos_ && k < text_.size(); ++k) {
      if (text_[k] == '\n') ++line;
    }
    throw JsonError("json parse error at line " + std::to_string(line) +
                    ", byte " + std::to_string(pos_) + ": " + msg);
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parseValue(int depth) {
    if (depth > 64) fail("nesting too deep");
    skipWs();
    char c = peek();
    switch (c) {
      case '{': return parseObject(depth);
      case '[': return parseArray(depth);
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

  Json parseObject(int depth) {
    expect('{');
    Json obj = Json::object();
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skipWs();
      if (peek() != '"') fail("expected object key string");
      std::string key = parseString();
      skipWs();
      expect(':');
      obj.set(key, parseValue(depth + 1));
      skipWs();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parseArray(int depth) {
    expect('[');
    Json arr = Json::array();
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push(parseValue(depth + 1));
      skipWs();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
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

  Json parseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool digits = false;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      digits = true;
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (!digits) {
      pos_ = start;
      fail("invalid number");
    }
    std::string lit = text_.substr(start, pos_ - start);
    if (integral) {
      errno = 0;
      if (lit[0] == '-') {
        char* end = nullptr;
        long long v = std::strtoll(lit.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          return Json::i64(static_cast<int64_t>(v));
        }
      } else {
        char* end = nullptr;
        unsigned long long v = std::strtoull(lit.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          return Json::u64(static_cast<uint64_t>(v));
        }
      }
      // Out of 64-bit range: fall through to double.
    }
    char* end = nullptr;
    double v = std::strtod(lit.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("invalid number literal '" + lit + "'");
    }
    return Json::number(v);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string Json::write() const {
  std::string out;
  write(out);
  return out;
}

Json parseJson(const std::string& text) { return Parser(text).parse(); }

}  // namespace accmos::serve
