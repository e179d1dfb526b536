#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace vizcache {

/// Pairwise Pearson correlation accumulator for a fixed set of variables.
/// Backs the Fig. 3 "correlation matrix of primary variables" analytics.
class CorrelationMatrix {
 public:
  explicit CorrelationMatrix(usize variables);

  /// Add one joint sample: `sample[i]` is the value of variable i.
  void add_sample(std::span<const float> sample);
  void add_sample(std::span<const double> sample);

  usize variable_count() const { return vars_; }
  u64 sample_count() const { return n_; }

  /// Pearson correlation in [-1, 1]; 1 on the diagonal; 0 when a variable is
  /// constant or there are fewer than two samples.
  double correlation(usize i, usize j) const;

  /// Full matrix, row-major vars x vars.
  std::vector<double> matrix() const;

 private:
  usize vars_;
  u64 n_ = 0;
  std::vector<double> mean_;     // per-variable running mean
  std::vector<double> co_;       // upper-triangular co-moment sums
  usize tri_index(usize i, usize j) const;
};

}  // namespace vizcache
