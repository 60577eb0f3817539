#include "ir/datatype.h"

#include <array>

namespace accmos {
namespace {

struct TypeInfo {
  DataType type;
  std::string_view name;
  std::string_view cpp;
  int size;
  bool isFloat;
  bool isSigned;  // meaningful for integers only
};

constexpr std::array<TypeInfo, 11> kInfo = {{
    {DataType::Bool, "bool", "bool", 1, false, false},
    {DataType::I8, "i8", "int8_t", 1, false, true},
    {DataType::I16, "i16", "int16_t", 2, false, true},
    {DataType::I32, "i32", "int32_t", 4, false, true},
    {DataType::I64, "i64", "int64_t", 8, false, true},
    {DataType::U8, "u8", "uint8_t", 1, false, false},
    {DataType::U16, "u16", "uint16_t", 2, false, false},
    {DataType::U32, "u32", "uint32_t", 4, false, false},
    {DataType::U64, "u64", "uint64_t", 8, false, false},
    {DataType::F32, "f32", "float", 4, true, true},
    {DataType::F64, "f64", "double", 8, true, true},
}};

const TypeInfo& info(DataType t) { return kInfo[static_cast<size_t>(t)]; }

}  // namespace

std::string_view dataTypeName(DataType t) { return info(t).name; }

std::optional<DataType> dataTypeFromName(std::string_view name) {
  for (const auto& ti : kInfo) {
    if (ti.name == name) return ti.type;
  }
  // Accept Simulink-style spellings too.
  if (name == "double") return DataType::F64;
  if (name == "single" || name == "float") return DataType::F32;
  if (name == "boolean") return DataType::Bool;
  if (name == "int8") return DataType::I8;
  if (name == "int16") return DataType::I16;
  if (name == "int32") return DataType::I32;
  if (name == "int64") return DataType::I64;
  if (name == "uint8") return DataType::U8;
  if (name == "uint16") return DataType::U16;
  if (name == "uint32") return DataType::U32;
  if (name == "uint64") return DataType::U64;
  return std::nullopt;
}

std::string_view dataTypeCpp(DataType t) { return info(t).cpp; }

int dataTypeSize(DataType t) { return info(t).size; }

bool isFloatType(DataType t) { return info(t).isFloat; }

bool isIntType(DataType t) { return !info(t).isFloat && t != DataType::Bool; }

bool isSignedInt(DataType t) { return isIntType(t) && info(t).isSigned; }

bool isUnsignedInt(DataType t) { return isIntType(t) && !info(t).isSigned; }

int dataTypeBits(DataType t) {
  if (t == DataType::Bool) return 1;
  return dataTypeSize(t) * 8;
}

int64_t intTypeMin(DataType t) {
  switch (t) {
    case DataType::I8: return std::numeric_limits<int8_t>::min();
    case DataType::I16: return std::numeric_limits<int16_t>::min();
    case DataType::I32: return std::numeric_limits<int32_t>::min();
    case DataType::I64: return std::numeric_limits<int64_t>::min();
    default: return 0;  // Bool and unsigned types
  }
}

int64_t intTypeMax(DataType t) {
  switch (t) {
    case DataType::Bool: return 1;
    case DataType::I8: return std::numeric_limits<int8_t>::max();
    case DataType::I16: return std::numeric_limits<int16_t>::max();
    case DataType::I32: return std::numeric_limits<int32_t>::max();
    case DataType::I64: return std::numeric_limits<int64_t>::max();
    case DataType::U8: return std::numeric_limits<uint8_t>::max();
    case DataType::U16: return std::numeric_limits<uint16_t>::max();
    case DataType::U32: return std::numeric_limits<uint32_t>::max();
    case DataType::U64: return std::numeric_limits<int64_t>::max();  // clamp
    default: return 0;
  }
}

uint64_t uintTypeMax(DataType t) {
  switch (t) {
    case DataType::Bool: return 1;
    case DataType::U8: return std::numeric_limits<uint8_t>::max();
    case DataType::U16: return std::numeric_limits<uint16_t>::max();
    case DataType::U32: return std::numeric_limits<uint32_t>::max();
    case DataType::U64: return std::numeric_limits<uint64_t>::max();
    default: return static_cast<uint64_t>(intTypeMax(t));
  }
}

bool isDowncast(DataType from, DataType to) {
  if (from == to) return false;
  if (isFloatType(from) && !isFloatType(to)) return true;
  if (isFloatType(from) && isFloatType(to)) {
    return dataTypeSize(to) < dataTypeSize(from);
  }
  if (isFloatType(to)) return false;  // int -> float handled by precision
  // integer/bool -> integer/bool: smaller representable range is a downcast.
  if (uintTypeMax(to) < uintTypeMax(from)) return true;
  if (intTypeMin(to) > intTypeMin(from)) return true;
  return false;
}

bool losesPrecision(DataType from, DataType to) {
  if (from == to) return false;
  if (from == DataType::F64 && to == DataType::F32) return true;
  if (isIntType(from) && isFloatType(to)) {
    // float has 24 mantissa bits, double 53.
    int mantissa = to == DataType::F32 ? 24 : 53;
    return dataTypeBits(from) > mantissa;
  }
  if (isFloatType(from) && !isFloatType(to)) return true;
  return false;
}

}  // namespace accmos
