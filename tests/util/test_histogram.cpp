#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace vizcache {
namespace {

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(4, 0.0, 4.0);
  h.add(0.5);
  h.add(1.5);
  h.add(2.5);
  h.add(3.5);
  for (usize i = 0; i < 4; ++i) EXPECT_EQ(h.count(i), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(4, 0.0, 4.0);
  h.add(-10.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(Histogram, UpperEdgeLandsInLastBin) {
  Histogram h(10, 0.0, 1.0);
  h.add(1.0);
  EXPECT_EQ(h.count(9), 1u);
}

TEST(Histogram, EmptyEntropyIsZero) {
  Histogram h(16, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(h.entropy_bits(), 0.0);
}

TEST(Histogram, SingleBinEntropyIsZero) {
  Histogram h(16, 0.0, 1.0);
  for (int i = 0; i < 100; ++i) h.add(0.01);
  EXPECT_DOUBLE_EQ(h.entropy_bits(), 0.0);
}

TEST(Histogram, UniformEntropyIsMaximal) {
  Histogram h(16, 0.0, 16.0);
  for (int b = 0; b < 16; ++b)
    for (int i = 0; i < 10; ++i) h.add(b + 0.5);
  EXPECT_NEAR(h.entropy_bits(), 4.0, 1e-12);
  EXPECT_NEAR(h.max_entropy_bits(), 4.0, 1e-12);
}

TEST(Histogram, EntropyBetweenZeroAndMax) {
  Rng rng(5);
  Histogram h(64, 0.0, 1.0);
  for (int i = 0; i < 10000; ++i) h.add(rng.next_double() * rng.next_double());
  EXPECT_GT(h.entropy_bits(), 0.0);
  EXPECT_LE(h.entropy_bits(), h.max_entropy_bits());
}

TEST(Histogram, TwoEqualBinsGiveOneBit) {
  Histogram h(2, 0.0, 2.0);
  for (int i = 0; i < 50; ++i) {
    h.add(0.5);
    h.add(1.5);
  }
  EXPECT_NEAR(h.entropy_bits(), 1.0, 1e-12);
}

TEST(Histogram, PmfSumsToOne) {
  Rng rng(7);
  Histogram h(32, 0.0, 1.0);
  for (int i = 0; i < 1000; ++i) h.add(rng.next_double());
  double sum = 0.0;
  for (usize b = 0; b < h.bin_count(); ++b) sum += h.pmf(b);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, SpanOverloadsAgree) {
  std::vector<float> vf{0.1f, 0.2f, 0.3f};
  std::vector<double> vd{0.1, 0.2, 0.3};
  Histogram a(8, 0.0, 1.0), b(8, 0.0, 1.0);
  a.add(std::span<const float>(vf));
  b.add(std::span<const double>(vd));
  for (usize i = 0; i < 8; ++i) EXPECT_EQ(a.count(i), b.count(i));
}

TEST(Histogram, ClearResets) {
  Histogram h(8, 0.0, 1.0);
  h.add(0.5);
  h.clear();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.entropy_bits(), 0.0);
}

TEST(Histogram, DegenerateRangeAccepted) {
  Histogram h(8, 2.0, 2.0);  // widened internally
  h.add(2.0);
  EXPECT_EQ(h.total(), 1u);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(0, 0.0, 1.0), InvalidArgument);
  EXPECT_THROW(Histogram(4, 1.0, 0.0), InvalidArgument);
}

TEST(ShannonEntropy, ConstantSpanIsZero) {
  std::vector<float> v(100, 3.14f);
  EXPECT_DOUBLE_EQ(shannon_entropy_bits(v), 0.0);
}

TEST(ShannonEntropy, EmptySpanIsZero) {
  EXPECT_DOUBLE_EQ(shannon_entropy_bits({}), 0.0);
}

TEST(ShannonEntropy, HighVariationBeatsLowVariation) {
  Rng rng(11);
  std::vector<float> noisy(4096), smooth(4096);
  for (usize i = 0; i < noisy.size(); ++i) {
    noisy[i] = static_cast<float>(rng.next_double());
    smooth[i] = 0.5f + 0.001f * static_cast<float>(i % 2);
  }
  EXPECT_GT(shannon_entropy_bits(noisy), shannon_entropy_bits(smooth));
}

/// Property sweep: entropy never exceeds log2(bins) for any bin count.
class EntropyBoundTest : public ::testing::TestWithParam<usize> {};

TEST_P(EntropyBoundTest, BoundedByLogBins) {
  usize bins = GetParam();
  Rng rng(bins);
  Histogram h(bins, 0.0, 1.0);
  for (int i = 0; i < 5000; ++i) h.add(rng.next_double());
  EXPECT_LE(h.entropy_bits(), std::log2(static_cast<double>(bins)) + 1e-12);
  EXPECT_GE(h.entropy_bits(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Bins, EntropyBoundTest,
                         ::testing::Values(1, 2, 3, 8, 17, 64, 256, 1024));

}  // namespace
}  // namespace vizcache
