// Boxed runtime value used by the interpreting engine (the SSE stand-in).
//
// A Value is a typed vector of scalars. Storage is a uniform array of 64-bit
// slots decoded through the runtime DataType — exactly the kind of boxed
// representation an interpretive engine pays for on every access, which is
// the overhead AccMoS's generated code eliminates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/datatype.h"

namespace accmos {

class Value {
 public:
  Value() : Value(DataType::F64, 1) {}
  Value(DataType type, int width);

  static Value scalarF(DataType type, double v);
  static Value scalarI(DataType type, int64_t v);
  static Value scalarBool(bool v);

  DataType type() const { return type_; }
  int width() const { return width_; }
  bool isFloat() const { return isFloatType(type_); }

  void resize(DataType type, int width);

  // Raw typed element access. i() is valid for integer/bool values and
  // returns the element's 64-bit slot pattern (a u64 at or above 2^63
  // reads negative: use asInt() for its value); f() is valid for float
  // values.
  int64_t i(int idx) const;
  double f(int idx) const;

  // Stores the bit pattern of `v` into element idx as this Value's type (a
  // two's-complement wrap; bool stores v != 0). Returns true when the
  // stored value differs from `v`.
  bool setI(int idx, __int128 v);
  bool setF(int idx, double v);

  // Type-erased reads used by generic actor code.
  double asDouble(int idx) const;   // any type, widened to double
  __int128 asInt(int idx) const;    // exact; floats truncate toward zero
  bool asBool(int idx) const;       // nonzero test

  // Stores `v` (a double) into element idx converting to this type with
  // Simulink-style round-to-nearest for float->int. Sets flags for the
  // diagnosis machinery.
  struct StoreFlags {
    bool wrapped = false;        // integer overflow wrapped
    bool precisionLoss = false;  // fractional part dropped / f64->f32
  };
  StoreFlags store(int idx, double v);

  // Element-wise conversion of src into this Value's type (a width-1 src
  // broadcasts). An integer result wraps, or clamps when `sat`; `wrapped`
  // then reports the wrap or clamp.
  StoreFlags convertFrom(const Value& src, bool sat = false);

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  std::string toString() const;

 private:
  // Small-buffer storage: widths up to kInline — the common case, scalar
  // and narrow signals — live inline with no heap allocation. That matters
  // because Values are constructed per signal per step in the interpreter
  // and per outport per run in the binary result decoder. Wider values
  // spill into heap_. The element pointer is computed from width_, never
  // stored, so copy and move stay defaulted.
  static constexpr int kInline = 2;
  uint64_t* data() { return width_ <= kInline ? inline_ : heap_.data(); }
  const uint64_t* data() const {
    return width_ <= kInline ? inline_ : heap_.data();
  }
  uint64_t raw(int idx) const { return data()[idx]; }
  void setRaw(int idx, uint64_t v) { data()[idx] = v; }

  DataType type_;
  int width_ = 1;
  uint64_t inline_[kInline] = {0, 0};
  std::vector<uint64_t> heap_;
};

}  // namespace accmos
