#include "util/stats.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace vizcache {

CorrelationMatrix::CorrelationMatrix(usize variables) : vars_(variables) {
  VIZ_REQUIRE(variables >= 1, "correlation matrix needs >=1 variable");
  mean_.assign(vars_, 0.0);
  co_.assign(vars_ * (vars_ + 1) / 2, 0.0);
}

usize CorrelationMatrix::tri_index(usize i, usize j) const {
  if (i > j) std::swap(i, j);
  // Upper-triangular row-major packing.
  return i * vars_ - i * (i + 1) / 2 + j;
}

void CorrelationMatrix::add_sample(std::span<const double> sample) {
  VIZ_REQUIRE(sample.size() == vars_, "sample arity mismatch");
  ++n_;
  double inv_n = 1.0 / static_cast<double>(n_);
  // Co-moment update (multivariate Welford): use pre-update deltas for i and
  // post-update deltas for j.
  std::vector<double> delta_pre(vars_);
  for (usize i = 0; i < vars_; ++i) delta_pre[i] = sample[i] - mean_[i];
  for (usize i = 0; i < vars_; ++i) mean_[i] += delta_pre[i] * inv_n;
  for (usize i = 0; i < vars_; ++i) {
    for (usize j = i; j < vars_; ++j) {
      co_[tri_index(i, j)] += delta_pre[i] * (sample[j] - mean_[j]);
    }
  }
}

void CorrelationMatrix::add_sample(std::span<const float> sample) {
  std::vector<double> d(sample.begin(), sample.end());
  add_sample(std::span<const double>(d));
}

double CorrelationMatrix::correlation(usize i, usize j) const {
  VIZ_REQUIRE(i < vars_ && j < vars_, "variable index out of range");
  if (i == j) return 1.0;
  if (n_ < 2) return 0.0;
  double cij = co_[tri_index(i, j)];
  double cii = co_[tri_index(i, i)];
  double cjj = co_[tri_index(j, j)];
  if (cii <= 0.0 || cjj <= 0.0) return 0.0;
  return cij / std::sqrt(cii * cjj);
}

std::vector<double> CorrelationMatrix::matrix() const {
  std::vector<double> m(vars_ * vars_);
  for (usize i = 0; i < vars_; ++i)
    for (usize j = 0; j < vars_; ++j) m[i * vars_ + j] = correlation(i, j);
  return m;
}

}  // namespace vizcache
