#include "util/stats.h"

#include <cassert>
#include <cmath>
#include <sstream>

namespace grid3::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, counts_(bins, 0.0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  if (x < lo_) {
    underflow_ += 1.0;
    return;
  }
  if (x >= hi_) {
    overflow_ += 1.0;
    return;
  }
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::size_t>(frac * static_cast<double>(counts_.size()));
  idx = std::min(idx, counts_.size() - 1);
  counts_[idx] += 1.0;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::total() const {
  double t = underflow_ + overflow_;
  for (double c : counts_) t += c;
  return t;
}

double Histogram::quantile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  const double target = q * total();
  double acc = underflow_;
  if (acc >= target && underflow_ > 0) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (acc + counts_[i] >= target) {
      const double inside = counts_[i] > 0 ? (target - acc) / counts_[i] : 0.0;
      return bin_lo(i) + inside * (bin_hi(i) - bin_lo(i));
    }
    acc += counts_[i];
  }
  return hi_;
}

std::string Histogram::ascii(std::size_t width) const {
  double peak = 0.0;
  for (double c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = peak > 0 ? static_cast<std::size_t>(counts_[i] / peak *
                                                         static_cast<double>(width))
                              : 0;
    out << "[" << bin_lo(i) << ", " << bin_hi(i) << ") "
        << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return out.str();
}

}  // namespace grid3::util
