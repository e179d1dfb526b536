#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace vizcache {

Histogram::Histogram(usize bins, double lo, double hi) : lo_(lo), hi_(hi) {
  VIZ_REQUIRE(bins >= 1, "histogram needs at least one bin");
  VIZ_REQUIRE(lo <= hi, "histogram range inverted");
  if (lo_ == hi_) hi_ = lo_ + 1.0;  // constant field: single-bin behaviour
  inv_width_ = static_cast<double>(bins) / (hi_ - lo_);
  counts_.assign(bins, 0);
}

usize Histogram::bin_for(double value) const {
  double t = (value - lo_) * inv_width_;
  auto b = static_cast<i64>(t);
  b = std::clamp<i64>(b, 0, static_cast<i64>(counts_.size()) - 1);
  return static_cast<usize>(b);
}

void Histogram::add(double value) {
  ++counts_[bin_for(value)];
  ++total_;
}

void Histogram::add(std::span<const float> values) {
  for (float v : values) add(static_cast<double>(v));
}

void Histogram::add(std::span<const double> values) {
  for (double v : values) add(v);
}

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

double Histogram::pmf(usize bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

double Histogram::entropy_bits() const {
  if (total_ == 0) return 0.0;
  double h = 0.0;
  const double inv_total = 1.0 / static_cast<double>(total_);
  for (u64 c : counts_) {
    if (c == 0) continue;
    double p = static_cast<double>(c) * inv_total;
    h -= p * std::log2(p);
  }
  return h;
}

double Histogram::max_entropy_bits() const {
  return std::log2(static_cast<double>(counts_.size()));
}

double shannon_entropy_bits(std::span<const float> values, usize bins) {
  if (values.empty()) return 0.0;
  auto [mn, mx] = std::minmax_element(values.begin(), values.end());
  if (*mn == *mx) return 0.0;
  Histogram h(bins, static_cast<double>(*mn), static_cast<double>(*mx));
  h.add(values);
  return h.entropy_bits();
}

}  // namespace vizcache
