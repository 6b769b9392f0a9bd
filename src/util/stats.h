// Streaming statistics and histograms for accounting analysis
// (job runtimes, gatekeeper load samples, transfer throughputs).
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace grid3::util {

/// Welford streaming mean/variance plus min/max.
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator (parallel reduction friendly).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width linear histogram over [lo, hi); out-of-range samples land
/// in saturating under/overflow bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] double count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double underflow() const { return underflow_; }
  [[nodiscard]] double overflow() const { return overflow_; }
  [[nodiscard]] double total() const;

  /// Approximate quantile (linear interpolation inside the bin).
  [[nodiscard]] double quantile(double q) const;

  /// Render as a compact ASCII bar chart (for bench harness output).
  [[nodiscard]] std::string ascii(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double underflow_ = 0.0;
  double overflow_ = 0.0;
};

}  // namespace grid3::util
