#include "ir/value.h"

#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ir/arith.h"

namespace accmos {

Value::Value(DataType type, int width) : type_(type) {
  if (width < 1) throw std::invalid_argument("Value width must be >= 1");
  width_ = width;
  if (width > kInline) heap_.assign(static_cast<size_t>(width), 0);
}

Value Value::scalarF(DataType type, double v) {
  Value val(type, 1);
  val.setF(0, v);
  return val;
}

Value Value::scalarI(DataType type, int64_t v) {
  Value val(type, 1);
  val.setI(0, v);
  return val;
}

Value Value::scalarBool(bool v) {
  Value val(DataType::Bool, 1);
  val.setI(0, v ? 1 : 0);
  return val;
}

void Value::resize(DataType type, int width) {
  type_ = type;
  width_ = width;
  if (width > kInline) {
    heap_.assign(static_cast<size_t>(width), 0);
  } else {
    heap_.clear();  // keeps capacity for a later spill
    inline_[0] = 0;
    inline_[1] = 0;
  }
}

int64_t Value::i(int idx) const {
  // Slots hold the wrapped two's-complement pattern already sign-extended.
  return static_cast<int64_t>(raw(idx));
}

double Value::f(int idx) const {
  if (type_ == DataType::F32) {
    return std::bit_cast<float>(static_cast<uint32_t>(raw(idx)));
  }
  return std::bit_cast<double>(raw(idx));
}

bool Value::setI(int idx, __int128 v) {
  if (isFloat()) {
    setF(idx, static_cast<double>(v));
    return false;
  }
  IntResult r = wrapStore(type_, v);
  setRaw(idx, static_cast<uint64_t>(r.value));
  return r.wrapped != 0;
}

bool Value::setF(int idx, double v) {
  if (type_ == DataType::F32) {
    setRaw(idx, std::bit_cast<uint32_t>(static_cast<float>(v)));
    return false;
  }
  if (type_ == DataType::F64) {
    setRaw(idx, std::bit_cast<uint64_t>(v));
    return false;
  }
  return setI(idx, f2i(v));
}

double Value::asDouble(int idx) const {
  if (isFloat()) return f(idx);
  if (isUnsignedInt(type_)) {
    return static_cast<double>(static_cast<uint64_t>(raw(idx)));
  }
  return static_cast<double>(i(idx));
}

__int128 Value::asInt(int idx) const {
  if (isFloat()) return f2i(f(idx));
  return widen(type_, raw(idx));
}

bool Value::asBool(int idx) const {
  if (isFloat()) return f(idx) != 0.0;
  return raw(idx) != 0;
}

Value::StoreFlags Value::store(int idx, double v) {
  StoreFlags flags;
  if (type_ == DataType::F64) {
    setF(idx, v);
    return flags;
  }
  if (type_ == DataType::F32) {
    float narrowed = static_cast<float>(v);
    if (static_cast<double>(narrowed) != v && std::isfinite(v)) {
      flags.precisionLoss = true;
    }
    setRaw(idx, std::bit_cast<uint32_t>(narrowed));
    return flags;
  }
  // Float -> integer: round to nearest (Simulink default for conversion),
  // then wrap into the destination width.
  IntResult r = storeDoubleAsInt(type_, v);
  setRaw(idx, static_cast<uint64_t>(r.value));
  flags.wrapped = r.wrapped != 0;
  flags.precisionLoss = r.prec != 0;
  return flags;
}

Value::StoreFlags Value::convertFrom(const Value& src, bool sat) {
  StoreFlags acc;
  for (int k = 0; k < width(); ++k) {
    const int s = src.width() == 1 ? 0 : k;
    StoreFlags f;
    if (!isFloat()) {
      IntResult r = src.isFloat() ? fold(type_, src.f(s), sat)
                                  : fold(type_, src.asInt(s), sat);
      setRaw(k, static_cast<uint64_t>(r.value));
      f.wrapped = r.wrapped != 0;
      f.precisionLoss = r.prec != 0;
    } else if (src.isFloat()) {
      f = store(k, src.f(s));
    } else {
      // int -> float: precision is lost when the value does not round-trip
      // (the generated conversion template makes the same test).
      double d = src.asDouble(s);
      setF(k, d);
      f.precisionLoss =
          this->f(k) != d || static_cast<__int128>(d) != src.asInt(s);
    }
    acc.wrapped = acc.wrapped || f.wrapped;
    acc.precisionLoss = acc.precisionLoss || f.precisionLoss;
  }
  return acc;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_ || width_ != other.width_) return false;
  const uint64_t* a = data();
  const uint64_t* b = other.data();
  for (int k = 0; k < width_; ++k) {
    if (a[k] != b[k]) return false;
  }
  return true;
}

std::string Value::toString() const {
  std::ostringstream os;
  os << dataTypeName(type_) << '[';
  for (int k = 0; k < width(); ++k) {
    if (k > 0) os << ' ';
    if (isFloat()) {
      os << f(k);
    } else if (isUnsignedInt(type_)) {
      os << static_cast<uint64_t>(raw(k));
    } else {
      os << i(k);
    }
  }
  os << ']';
  return os.str();
}

}  // namespace accmos
