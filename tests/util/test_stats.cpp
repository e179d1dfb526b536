#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace vizcache {
namespace {

TEST(CorrelationMatrix, DiagonalIsOne) {
  CorrelationMatrix c(3);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> s{rng.next_double(), rng.next_double(), rng.next_double()};
    c.add_sample(std::span<const double>(s));
  }
  for (usize i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(c.correlation(i, i), 1.0);
}

TEST(CorrelationMatrix, PerfectPositiveAndNegative) {
  CorrelationMatrix c(3);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    double x = rng.normal();
    std::vector<double> s{x, 2.0 * x + 1.0, -x};
    c.add_sample(std::span<const double>(s));
  }
  EXPECT_NEAR(c.correlation(0, 1), 1.0, 1e-9);
  EXPECT_NEAR(c.correlation(0, 2), -1.0, 1e-9);
  EXPECT_NEAR(c.correlation(1, 2), -1.0, 1e-9);
}

TEST(CorrelationMatrix, IndependentVariablesNearZero) {
  CorrelationMatrix c(2);
  Rng rng(11);
  for (int i = 0; i < 50000; ++i) {
    std::vector<double> s{rng.normal(), rng.normal()};
    c.add_sample(std::span<const double>(s));
  }
  EXPECT_NEAR(c.correlation(0, 1), 0.0, 0.02);
}

TEST(CorrelationMatrix, SymmetricMatrix) {
  CorrelationMatrix c(4);
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> s{rng.normal(), rng.normal(), rng.normal(),
                          rng.normal()};
    c.add_sample(std::span<const double>(s));
  }
  auto m = c.matrix();
  for (usize i = 0; i < 4; ++i)
    for (usize j = 0; j < 4; ++j)
      EXPECT_DOUBLE_EQ(m[i * 4 + j], m[j * 4 + i]);
}

TEST(CorrelationMatrix, ConstantVariableGivesZero) {
  CorrelationMatrix c(2);
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> s{rng.normal(), 42.0};
    c.add_sample(std::span<const double>(s));
  }
  EXPECT_DOUBLE_EQ(c.correlation(0, 1), 0.0);
}

TEST(CorrelationMatrix, CorrelationInUnitRange) {
  CorrelationMatrix c(5);
  Rng rng(19);
  for (int i = 0; i < 300; ++i) {
    double base = rng.normal();
    std::vector<double> s(5);
    for (usize v = 0; v < 5; ++v)
      s[v] = base * (0.2 * static_cast<double>(v)) + rng.normal();
    c.add_sample(std::span<const double>(s));
  }
  for (usize i = 0; i < 5; ++i) {
    for (usize j = 0; j < 5; ++j) {
      EXPECT_GE(c.correlation(i, j), -1.0 - 1e-12);
      EXPECT_LE(c.correlation(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(CorrelationMatrix, ArityMismatchThrows) {
  CorrelationMatrix c(3);
  std::vector<double> wrong{1.0, 2.0};
  EXPECT_THROW(c.add_sample(std::span<const double>(wrong)), InvalidArgument);
}

}  // namespace
}  // namespace vizcache
