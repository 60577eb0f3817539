// Unit tests for the data-type system and the wrap-exact arithmetic core —
// the single definition of integer semantics every engine shares.
#include <gtest/gtest.h>

#include <limits>

#include "ir/arith.h"
#include "ir/datatype.h"

namespace accmos {
namespace {

TEST(DataType, NamesRoundTrip) {
  for (DataType t : kAllDataTypes) {
    auto parsed = dataTypeFromName(dataTypeName(t));
    ASSERT_TRUE(parsed.has_value()) << dataTypeName(t);
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(dataTypeFromName("float128").has_value());
  // Simulink spellings.
  EXPECT_EQ(dataTypeFromName("double"), DataType::F64);
  EXPECT_EQ(dataTypeFromName("single"), DataType::F32);
  EXPECT_EQ(dataTypeFromName("boolean"), DataType::Bool);
  EXPECT_EQ(dataTypeFromName("int16"), DataType::I16);
  EXPECT_EQ(dataTypeFromName("uint64"), DataType::U64);
}

TEST(DataType, SizesAndKinds) {
  EXPECT_EQ(dataTypeSize(DataType::I8), 1);
  EXPECT_EQ(dataTypeSize(DataType::U16), 2);
  EXPECT_EQ(dataTypeSize(DataType::F32), 4);
  EXPECT_EQ(dataTypeSize(DataType::F64), 8);
  EXPECT_TRUE(isFloatType(DataType::F32));
  EXPECT_FALSE(isFloatType(DataType::I32));
  EXPECT_TRUE(isIntType(DataType::U8));
  EXPECT_FALSE(isIntType(DataType::Bool));
  EXPECT_TRUE(isSignedInt(DataType::I64));
  EXPECT_TRUE(isUnsignedInt(DataType::U32));
  EXPECT_FALSE(isUnsignedInt(DataType::I32));
}

TEST(DataType, Ranges) {
  EXPECT_EQ(intTypeMin(DataType::I8), -128);
  EXPECT_EQ(intTypeMax(DataType::I8), 127);
  EXPECT_EQ(intTypeMin(DataType::U8), 0);
  EXPECT_EQ(intTypeMax(DataType::U8), 255);
  EXPECT_EQ(intTypeMax(DataType::I32), 2147483647);
  EXPECT_EQ(uintTypeMax(DataType::U64), ~uint64_t{0});
}

TEST(DataType, DowncastMatrix) {
  EXPECT_TRUE(isDowncast(DataType::I32, DataType::I16));
  EXPECT_TRUE(isDowncast(DataType::I16, DataType::U16));  // loses negatives
  EXPECT_TRUE(isDowncast(DataType::U16, DataType::I16));  // loses top half
  EXPECT_TRUE(isDowncast(DataType::U64, DataType::I64));  // loses top half
  EXPECT_TRUE(isDowncast(DataType::I64, DataType::U64));  // loses negatives
  EXPECT_FALSE(isDowncast(DataType::U32, DataType::I64));
  EXPECT_TRUE(isDowncast(DataType::F64, DataType::F32));
  EXPECT_TRUE(isDowncast(DataType::F64, DataType::I64));
  EXPECT_FALSE(isDowncast(DataType::I16, DataType::I32));
  EXPECT_FALSE(isDowncast(DataType::I32, DataType::I32));
  EXPECT_FALSE(isDowncast(DataType::I32, DataType::F64));
}

TEST(DataType, PrecisionLossMatrix) {
  EXPECT_TRUE(losesPrecision(DataType::I64, DataType::F64));  // 53-bit mantissa
  EXPECT_TRUE(losesPrecision(DataType::I32, DataType::F32));
  EXPECT_FALSE(losesPrecision(DataType::I32, DataType::F64));
  EXPECT_TRUE(losesPrecision(DataType::F64, DataType::F32));
  EXPECT_TRUE(losesPrecision(DataType::F64, DataType::I32));
  EXPECT_FALSE(losesPrecision(DataType::I16, DataType::I32));
}

TEST(WrapStore, Identity) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{127},
                    int64_t{-128}}) {
    IntResult r = wrapStore(DataType::I8, v);
    EXPECT_EQ(r.value, v);
    EXPECT_FALSE(r.wrapped);
  }
}

TEST(WrapStore, SignedWraps) {
  IntResult r = wrapStore(DataType::I8, 128);
  EXPECT_EQ(r.value, -128);
  EXPECT_TRUE(r.wrapped);
  r = wrapStore(DataType::I8, -129);
  EXPECT_EQ(r.value, 127);
  EXPECT_TRUE(r.wrapped);
  r = wrapStore(DataType::I32, int64_t{1} << 31);
  EXPECT_EQ(r.value, std::numeric_limits<int32_t>::min());
  EXPECT_TRUE(r.wrapped);
  // Paper Fig. 1: accumulating positives wraps negative.
  r = wrapStore(DataType::I32,
                Int128{2000000000} + Int128{2000000000});
  EXPECT_LT(r.value, 0);
  EXPECT_TRUE(r.wrapped);
}

TEST(WrapStore, UnsignedWraps) {
  IntResult r = wrapStore(DataType::U8, 256);
  EXPECT_EQ(r.value, 0);
  EXPECT_TRUE(r.wrapped);
  r = wrapStore(DataType::U8, -1);
  EXPECT_EQ(r.value, 255);
  EXPECT_TRUE(r.wrapped);
  r = wrapStore(DataType::U64, -1);
  EXPECT_TRUE(r.wrapped);
  EXPECT_EQ(static_cast<uint64_t>(r.value), ~uint64_t{0});
}

TEST(WrapStore, BoolSemantics) {
  EXPECT_EQ(wrapStore(DataType::Bool, 0).value, 0);
  EXPECT_FALSE(wrapStore(DataType::Bool, 0).wrapped);
  EXPECT_EQ(wrapStore(DataType::Bool, 1).value, 1);
  EXPECT_FALSE(wrapStore(DataType::Bool, 1).wrapped);
  EXPECT_EQ(wrapStore(DataType::Bool, 7).value, 1);
  EXPECT_TRUE(wrapStore(DataType::Bool, 7).wrapped);
}

TEST(WrapStore, Int64Extremes) {
  Int128 big = Int128{std::numeric_limits<int64_t>::max()} + 1;
  IntResult r = wrapStore(DataType::I64, big);
  EXPECT_EQ(r.value, std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(r.wrapped);
}

TEST(F2I, DefinedEdgeCases) {
  EXPECT_EQ(f2i(0.5), 0);        // truncation toward zero
  EXPECT_EQ(f2i(-0.5), 0);
  EXPECT_EQ(f2i(2.9), 2);
  EXPECT_EQ(f2i(-2.9), -2);
  EXPECT_EQ(f2i(std::nan("")), 0);
  EXPECT_EQ(f2i(1e300), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(f2i(-1e300), std::numeric_limits<int64_t>::min());
}

TEST(StoreDoubleAsInt, RoundsToNearest) {
  auto r = storeDoubleAsInt(DataType::I32, 2.5);
  EXPECT_EQ(r.value, 2);  // nearbyint banker's rounding
  EXPECT_TRUE(r.prec);
  r = storeDoubleAsInt(DataType::I32, 3.5);
  EXPECT_EQ(r.value, 4);
  r = storeDoubleAsInt(DataType::I32, 7.0);
  EXPECT_EQ(r.value, 7);
  EXPECT_FALSE(r.prec);
  EXPECT_FALSE(r.wrapped);
}

TEST(StoreDoubleAsInt, ClampsAndWraps) {
  auto r = storeDoubleAsInt(DataType::I8, 1000.0);
  EXPECT_TRUE(r.wrapped);
  // 1e300 is a multiple of 2^64: its wrap keeps low bits that are all 0.
  r = storeDoubleAsInt(DataType::I64, 1e300);
  EXPECT_EQ(r.value, 0);
  EXPECT_TRUE(r.wrapped);
  // 1e19 is beyond int64 but within u64: stored exactly, no wrap.
  r = storeDoubleAsInt(DataType::U64, 1e19);
  EXPECT_EQ(r.value, Int128{10000000000000000000u});
  EXPECT_FALSE(r.wrapped);
  r = fold(DataType::I64, 1e300, true);
  EXPECT_EQ(r.value, std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(r.wrapped);
  r = storeDoubleAsInt(DataType::U32, -3.0);
  EXPECT_TRUE(r.wrapped);
  r = storeDoubleAsInt(DataType::I32, std::nan(""));
  EXPECT_EQ(r.value, 0);
  EXPECT_TRUE(r.prec);
}

TEST(IntDiv, Semantics) {
  int dz = 0;
  EXPECT_EQ(accmos_quot(7, 2, &dz), 3);
  EXPECT_EQ(accmos_quot(-7, 2, &dz), -3);  // truncation
  EXPECT_EQ(dz, 0);
  EXPECT_EQ(accmos_quot(5, 0, &dz), 0);
  EXPECT_EQ(dz, 1);
  // INT_MIN / -1 wraps instead of trapping, or clamps when saturating.
  dz = 0;
  auto w = intDiv(DataType::I64, std::numeric_limits<int64_t>::min(), -1,
                  false, &dz);
  EXPECT_TRUE(w.wrapped);
  EXPECT_EQ(w.value, std::numeric_limits<int64_t>::min());
  auto s = intDiv(DataType::I64, std::numeric_limits<int64_t>::min(), -1,
                  true, &dz);
  EXPECT_TRUE(s.wrapped);
  EXPECT_EQ(s.value, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(dz, 0);
  // A zero divisor stores 0 unflagged in every type.
  auto z = intDiv(DataType::U8, 5, 0, true, &dz);
  EXPECT_EQ(z.value, 0);
  EXPECT_FALSE(z.wrapped);
  EXPECT_EQ(dz, 1);
}

TEST(SplitMix64, KnownSequenceAndUnitRange) {
  SplitMix64 rng(1234);
  SplitMix64 rng2(1234);
  for (int k = 0; k < 100; ++k) {
    EXPECT_EQ(rng.next(), rng2.next());
  }
  SplitMix64 u(99);
  for (int k = 0; k < 10000; ++k) {
    double v = u.nextUnit();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(SplitMix64, PortSeedsIndependent) {
  EXPECT_NE(portSeed(1, 0), portSeed(1, 1));
  EXPECT_NE(portSeed(1, 0), portSeed(2, 0));
  EXPECT_EQ(portSeed(7, 3), portSeed(7, 3));
}

// Property sweep: wrapStore is idempotent and wrap-free on in-range values.
class WrapStoreProperty : public ::testing::TestWithParam<DataType> {};

TEST_P(WrapStoreProperty, IdempotentOnRange) {
  DataType t = GetParam();
  if (isFloatType(t)) GTEST_SKIP() << "integer semantics only";
  SplitMix64 rng(42);
  for (int k = 0; k < 2000; ++k) {
    Int128 raw = static_cast<Int128>(static_cast<int64_t>(rng.next()));
    IntResult first = wrapStore(t, raw);
    // Re-widen the stored 64-bit slot pattern through the core (how the
    // engines read values back into accumulators).
    Int128 rewidened = widen(t, static_cast<uint64_t>(first.value));
    EXPECT_TRUE(rewidened == first.value) << dataTypeName(t);
    IntResult second = wrapStore(t, rewidened);
    EXPECT_TRUE(second.value == first.value) << dataTypeName(t);
    EXPECT_FALSE(second.wrapped)
        << dataTypeName(t) << " raw=" << static_cast<int64_t>(first.value);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WrapStoreProperty,
                         ::testing::ValuesIn(kAllDataTypes),
                         [](const ::testing::TestParamInfo<DataType>& info) {
                           return std::string(dataTypeName(info.param));
                         });

}  // namespace
}  // namespace accmos
