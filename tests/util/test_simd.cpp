#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace vizcache {
namespace {

namespace sd = simd;

constexpr int kL = sd::kLanes;

void expect_lanes(sd::Vf v, const float (&want)[sd::kLanes]) {
  alignas(32) float got[sd::kLanes];
  sd::store(got, v);
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], want[l]) << "lane " << l;
}

void expect_ilanes(sd::Vi v, const i32 (&want)[sd::kLanes]) {
  alignas(32) i32 got[sd::kLanes];
  sd::istore(got, v);
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], want[l]) << "lane " << l;
}

TEST(Simd, WidthIsFixedAtEight) {
  // Both the AVX2 implementation and the portable fallback expose exactly
  // eight lanes, so goldens and stats are build-invariant.
  EXPECT_EQ(kL, 8);
}

TEST(Simd, LoadStoreRoundTrip) {
  alignas(32) const float in[kL] = {0.0f, -1.5f, 2.25f, 3.0f,
                                    -4.75f, 5.5f, -6.0f, 7.125f};
  expect_lanes(sd::load(in), in);
  const float two[kL] = {2, 2, 2, 2, 2, 2, 2, 2};
  expect_lanes(sd::set1(2.0f), two);
  const float zeros[kL] = {0, 0, 0, 0, 0, 0, 0, 0};
  expect_lanes(sd::zero(), zeros);
}

TEST(Simd, ArithmeticMatchesScalarIeee) {
  alignas(32) const float a_a[kL] = {1.0f, -2.0f, 0.5f, 100.0f,
                                     -0.25f, 3.5f, 7.0f, -8.0f};
  alignas(32) const float b_a[kL] = {0.5f, 4.0f, -1.5f, 0.01f,
                                     8.0f, -3.5f, 2.0f, -1.0f};
  const sd::Vf a = sd::load(a_a);
  const sd::Vf b = sd::load(b_a);
  alignas(32) float got[kL];
  sd::store(got, sd::add(a, b));
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], a_a[l] + b_a[l]);
  sd::store(got, sd::sub(a, b));
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], a_a[l] - b_a[l]);
  sd::store(got, sd::mul(a, b));
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], a_a[l] * b_a[l]);
  sd::store(got, sd::min(a, b));
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], std::min(a_a[l], b_a[l]));
  sd::store(got, sd::max(a, b));
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], std::max(a_a[l], b_a[l]));
}

TEST(Simd, IntegerOps) {
  alignas(32) const i32 a_a[kL] = {0, 1, -2, 3, 1000, -1000, 7, 8};
  alignas(32) const i32 b_a[kL] = {5, -1, 2, 3, -3, 4, -7, 2};
  const sd::Vi a = sd::iload(a_a);
  const sd::Vi b = sd::iload(b_a);
  alignas(32) i32 got[kL];
  sd::istore(got, sd::iadd(a, b));
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], a_a[l] + b_a[l]);
  sd::istore(got, sd::isub(a, b));
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], a_a[l] - b_a[l]);
  sd::istore(got, sd::imullo(a, b));
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], a_a[l] * b_a[l]);
  sd::istore(got, sd::imin(a, b));
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], std::min(a_a[l], b_a[l]));
  sd::istore(got, sd::imax(a, b));
  for (int l = 0; l < kL; ++l) EXPECT_EQ(got[l], std::max(a_a[l], b_a[l]));
  const i32 sevens[kL] = {7, 7, 7, 7, 7, 7, 7, 7};
  expect_ilanes(sd::iset1(7), sevens);
}

TEST(Simd, ToIntTruncatesTowardZeroWithIndefiniteSentinel) {
  // The raycaster's voxel indexing depends on cvttps semantics: truncate
  // toward zero, and map NaN/out-of-range to INT32_MIN (the x86 "integer
  // indefinite"). The fallback must mirror this exactly. The inputs pass
  // through a volatile array because GCC constant-folds the intrinsic with
  // saturating (non-hardware) semantics — only the runtime instruction has
  // the contract we rely on.
  alignas(32) volatile float src[kL] = {
      1.9f,
      -1.9f,
      0.0f,
      -0.5f,
      std::numeric_limits<float>::quiet_NaN(),
      3.0e9f,
      -3.0e9f,
      2147483648.0f};  // 2^31: just out of range
  alignas(32) float in[kL];
  for (int l = 0; l < kL; ++l) in[l] = src[l];
  const i32 want[kL] = {1, -1, 0, 0, INT32_MIN, INT32_MIN, INT32_MIN,
                        INT32_MIN};
  expect_ilanes(sd::to_int(sd::load(in)), want);
}

TEST(Simd, ToFloatIsExactForSmallInts) {
  alignas(32) const i32 in[kL] = {0, 1, -1, 1023, -1024, 65536, 7, -7};
  alignas(32) float got[kL];
  sd::store(got, sd::to_float(sd::iload(in)));
  for (int l = 0; l < kL; ++l) {
    EXPECT_EQ(got[l], static_cast<float>(in[l])) << "lane " << l;
  }
}

TEST(Simd, ComparesAndMaskBits) {
  alignas(32) const float a_a[kL] = {1, 2, 3, 4, 5, 6, 7, 8};
  alignas(32) const float b_a[kL] = {8, 7, 6, 5, 4, 3, 2, 1};
  const sd::Vf a = sd::load(a_a);
  const sd::Vf b = sd::load(b_a);
  EXPECT_EQ(sd::bits(sd::cmp_lt(a, b)), 0b00001111u);
  EXPECT_EQ(sd::bits(sd::cmp_gt(a, b)), 0b11110000u);
  EXPECT_EQ(sd::bits(sd::cmp_le(a, a)), 0xFFu);
  EXPECT_EQ(sd::bits(sd::cmp_ge(a, b)), 0b11110000u);
  EXPECT_TRUE(sd::any(sd::cmp_lt(a, b)));
  EXPECT_FALSE(sd::any(sd::cmp_lt(a, a)));
  EXPECT_EQ(sd::count(sd::cmp_lt(a, b)), 4);
}

TEST(Simd, MaskAlgebraAndRoundTrip) {
  for (u32 bits : {0x00u, 0xFFu, 0xA5u, 0x3Cu, 0x01u, 0x80u}) {
    EXPECT_EQ(sd::bits(sd::mask_from_bits(bits)), bits);
  }
  const sd::Mask a = sd::mask_from_bits(0b10101010);
  const sd::Mask b = sd::mask_from_bits(0b11001100);
  EXPECT_EQ(sd::bits(sd::mask_and(a, b)), 0b10001000u);
  EXPECT_EQ(sd::bits(sd::mask_or(a, b)), 0b11101110u);
  // keep & ~drop — the lane-retirement operation.
  EXPECT_EQ(sd::bits(sd::mask_andnot(a, b)), 0b00100010u);
}

TEST(Simd, SelectBlendsPerLane) {
  const sd::Mask m = sd::mask_from_bits(0b01010101);
  alignas(32) float got[kL];
  sd::store(got, sd::select(m, sd::set1(1.0f), sd::set1(-1.0f)));
  for (int l = 0; l < kL; ++l) {
    EXPECT_EQ(got[l], (l % 2 == 0) ? 1.0f : -1.0f) << "lane " << l;
  }
}

TEST(Simd, GatherRespectsMask) {
  const float table[16] = {0, 10, 20, 30, 40, 50, 60, 70,
                           80, 90, 100, 110, 120, 130, 140, 150};
  alignas(32) const i32 idx[kL] = {15, 0, 3, 7, 1, 2, 9, 4};
  const sd::Mask all = sd::mask_from_bits(0xFF);
  const float want_all[kL] = {150, 0, 30, 70, 10, 20, 90, 40};
  expect_lanes(sd::gather(table, sd::iload(idx), all), want_all);
  // Inactive lanes read 0 and are not dereferenced: give them an index far
  // outside the table — only the mask keeps this well-defined.
  alignas(32) const i32 wild[kL] = {15, 1 << 30, 3, 1 << 30,
                                    1, 1 << 30, 9, 1 << 30};
  const sd::Mask even = sd::mask_from_bits(0b01010101);
  const float want_even[kL] = {150, 0, 30, 0, 10, 0, 90, 0};
  expect_lanes(sd::gather(table, sd::iload(wild), even), want_even);
}

TEST(Simd, GatherLanesUsesPerLaneBases) {
  const float t0[4] = {1, 2, 3, 4};
  const float t1[4] = {10, 20, 30, 40};
  // Null bases on inactive lanes must be fine — exactly the situation of a
  // packet whose retired lanes carry no brick.
  const float* bases[kL] = {t0, t1, t0, t1, nullptr, t0, nullptr, t1};
  alignas(32) const i32 idx[kL] = {0, 1, 2, 3, 0, 3, 0, 0};
  const sd::Mask m = sd::mask_from_bits(0b10101111);
  const float want[kL] = {1, 20, 3, 40, 0, 4, 0, 10};
  expect_lanes(sd::gather_lanes(bases, sd::iload(idx), m), want);
}

TEST(Simd, UnmaskedGatherReadsEveryLane) {
  float table[16];
  for (int i = 0; i < 16; ++i) table[i] = static_cast<float>(i * i);
  // Unsorted, duplicated, and boundary (0 and 15) indices.
  alignas(32) const i32 idx[kL] = {15, 0, 7, 7, 3, 12, 0, 9};
  const float want[kL] = {225, 0, 49, 49, 9, 144, 0, 81};
  expect_lanes(sd::gather(table, sd::iload(idx)), want);
}

TEST(Simd, GatherPairsFetchesAdjacentPairs) {
  float table[12];
  for (int i = 0; i < 12; ++i) table[i] = static_cast<float>(100 + i);
  // idx+1 must stay in bounds, so 10 is the largest legal index here;
  // includes duplicates and an unsorted order like real corner fetches.
  alignas(32) const i32 idx[kL] = {10, 0, 4, 4, 7, 2, 9, 1};
  const sd::VfPair got = sd::gather_pairs(table, sd::iload(idx));
  const float want_lo[kL] = {110, 100, 104, 104, 107, 102, 109, 101};
  const float want_hi[kL] = {111, 101, 105, 105, 108, 103, 110, 102};
  expect_lanes(got.lo, want_lo);
  expect_lanes(got.hi, want_hi);
}

TEST(Simd, Load8TransposeProducesColumns) {
  // 8 records of 8 floats each, value = record*10 + column, at scattered
  // offsets in one backing array (like LUT entry pairs).
  float backing[96] = {};
  const i32 offs[kL] = {0, 8, 24, 16, 40, 88, 56, 72};
  for (int r = 0; r < kL; ++r) {
    for (int c = 0; c < 8; ++c) {
      backing[offs[r] + c] = static_cast<float>(r * 10 + c);
    }
  }
  sd::Vf cols[8];
  sd::load8_transpose(backing, offs, cols);
  for (int c = 0; c < 8; ++c) {
    alignas(32) float got[kL];
    sd::store(got, cols[c]);
    for (int l = 0; l < kL; ++l) {
      EXPECT_EQ(got[l], static_cast<float>(l * 10 + c))
          << "column " << c << " lane " << l;
    }
  }
}

TEST(Simd, IntegerCompareAndMask) {
  alignas(32) const i32 a_a[kL] = {5, -3, 0, 7, 7, -1, 100, 0};
  alignas(32) const i32 b_a[kL] = {4, -3, 1, 7, -8, 0, 99, -1};
  const sd::Vi a = sd::iload(a_a);
  const sd::Vi b = sd::iload(b_a);
  const i32 want_gt[kL] = {-1, 0, 0, 0, -1, 0, -1, -1};
  expect_ilanes(sd::icmp_gt(a, b), want_gt);
  // The packet sampler's row-offset idiom: all-ones/zero compare result
  // AND a stride picks "one row up" or "same row" per lane.
  const sd::Vi stride = sd::iset1(48);
  const i32 want_and[kL] = {48, 0, 0, 0, 48, 0, 48, 48};
  expect_ilanes(sd::iand(sd::icmp_gt(a, b), stride), want_and);
}

TEST(Simd, LerpMatchesScalarExpression) {
  alignas(32) const float a_a[kL] = {0, 1, -2, 10, 0.5f, 3, 7, -1};
  alignas(32) const float b_a[kL] = {1, 3, 2, -10, 0.75f, 3, 8, -5};
  alignas(32) const float t_a[kL] = {0, 1, 0.5f, 0.25f, 0.125f, 0.75f, 1, 0.5f};
  alignas(32) float got[kL];
  sd::store(got, sd::lerp(sd::load(a_a), sd::load(b_a), sd::load(t_a)));
  for (int l = 0; l < kL; ++l) {
    // a + (b - a) * t with the multiply-add rounded once, in IEEE single
    // precision — bit-equal, not just close.
    EXPECT_EQ(got[l], std::fma(b_a[l] - a_a[l], t_a[l], a_a[l]))
        << "lane " << l;
  }
}

TEST(Simd, FmaddRoundsOnceInBothBuilds) {
  // (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24 needs 25 mantissa bits: a separate
  // multiply rounds the 2^-24 away and the add then yields 0, a fused
  // multiply-add keeps it. Both implementations must fuse, or the AVX2 and
  // the portable build render different images.
  const float a = 1.0f + std::ldexp(1.0f, -12);
  const float c = -(1.0f + std::ldexp(1.0f, -11));
  const float w = std::ldexp(1.0f, -24);
  const float want[kL] = {w, w, w, w, w, w, w, w};
  expect_lanes(sd::fmadd(sd::set1(a), sd::set1(a), sd::set1(c)), want);
}

}  // namespace
}  // namespace vizcache
