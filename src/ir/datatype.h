// Scalar data types for signals and parameters.
//
// AccMoS models carry explicit signal types (the paper's diagnosis templates
// dispatch on them: downcast detection compares widths, wrap-on-overflow
// needs the exact integer width). The set mirrors Simulink's built-in types.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace accmos {

enum class DataType : uint8_t {
  Bool,
  I8,
  I16,
  I32,
  I64,
  U8,
  U16,
  U32,
  U64,
  F32,
  F64,
};

inline constexpr DataType kAllDataTypes[] = {
    DataType::Bool, DataType::I8,  DataType::I16, DataType::I32,
    DataType::I64,  DataType::U8,  DataType::U16, DataType::U32,
    DataType::U64,  DataType::F32, DataType::F64,
};

// Canonical short name used in model files and generated code comments
// ("i32", "f64", "bool", ...).
std::string_view dataTypeName(DataType t);

// Parses a short name; returns nullopt on unknown names.
std::optional<DataType> dataTypeFromName(std::string_view name);

// C++ type spelled in generated code ("int32_t", "double", ...).
std::string_view dataTypeCpp(DataType t);

// Storage size in bytes of one scalar element.
int dataTypeSize(DataType t);

bool isFloatType(DataType t);
bool isIntType(DataType t);      // signed or unsigned integer, not Bool
bool isSignedInt(DataType t);
bool isUnsignedInt(DataType t);

// Number of value bits (excluding sign bit for signed types); Bool -> 1.
int dataTypeBits(DataType t);

// Integer range as int64 (U64 max saturates to int64 max for range checks
// done in 64-bit arithmetic; exact U64 handling uses unsigned paths).
int64_t intTypeMin(DataType t);
int64_t intTypeMax(DataType t);
uint64_t uintTypeMax(DataType t);

// True when converting `from` to `to` can lose magnitude (downcast in the
// paper's sense: sizeof(out) < sizeof(in) within the same kind, or
// float -> int).
bool isDowncast(DataType from, DataType to);

// True when converting `from` to `to` can silently lose precision
// (e.g. i64 -> f64, f64 -> f32).
bool losesPrecision(DataType from, DataType to);

}  // namespace accmos
