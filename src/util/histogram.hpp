#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace vizcache {

/// Fixed-bin histogram over a known value range. This is the substrate for
/// (a) per-block Shannon entropy (paper Section IV-C, Eq. 2) and (b) the
/// data-dependent analytics of Fig. 3 (region value distributions).
class Histogram {
 public:
  /// `bins` must be >= 1; if lo == hi the range is widened epsilon-style so
  /// constant fields land in one bin.
  Histogram(usize bins, double lo, double hi);

  void add(double value);
  void add(std::span<const float> values);
  void add(std::span<const double> values);

  void clear();

  usize bin_count() const { return counts_.size(); }
  u64 count(usize bin) const { return counts_[bin]; }
  u64 total() const { return total_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Bin index for a value (clamped to [0, bins-1]).
  usize bin_for(double value) const;

  /// Normalized probability mass of a bin (0 if histogram empty).
  double pmf(usize bin) const;

  /// Shannon entropy in bits: H = -sum p log2 p (Eq. 2 of the paper).
  /// Empty histogram has entropy 0.
  double entropy_bits() const;

  /// Maximum achievable entropy for this binning (log2 of bin count).
  double max_entropy_bits() const;

  const std::vector<u64>& counts() const { return counts_; }

 private:
  double lo_;
  double hi_;
  double inv_width_;
  std::vector<u64> counts_;
  u64 total_ = 0;
};

/// Convenience: entropy in bits of a float span using `bins` equal bins over
/// the span's own [min, max] range. Constant spans return 0.
double shannon_entropy_bits(std::span<const float> values, usize bins = 256);

}  // namespace vizcache
