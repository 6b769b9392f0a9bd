#include "util/timeseries.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

namespace grid3::util {
namespace {

bool same_value(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

void TimeSeries::append(Time t, double value) {
  assert(points_.empty() || t >= latest_.t);
  // Same-instant update wins: a stored point at t is replaced.
  if (!points_.empty() && points_.back().t == t) points_.pop_back();
  latest_ = {t, value};
  if (points_.empty() || !same_value(points_.back().value, value)) {
    points_.push_back(latest_);
  }
}

double TimeSeries::at(Time t) const {
  // Last sample with time <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](Time lhs, const TimePoint& p) { return lhs < p.t; });
  if (it == points_.begin()) return 0.0;
  return std::prev(it)->value;
}

double TimeSeries::integrate(Time from, Time to) const {
  if (to <= from || points_.empty()) return 0.0;
  double acc = 0.0;
  Time cursor = from;
  double current = at(from);
  auto it = std::upper_bound(
      points_.begin(), points_.end(), from,
      [](Time lhs, const TimePoint& p) { return lhs < p.t; });
  for (; it != points_.end() && it->t < to; ++it) {
    acc += current * (it->t - cursor).to_seconds();
    cursor = it->t;
    current = it->value;
  }
  acc += current * (to - cursor).to_seconds();
  return acc;
}

double TimeSeries::time_average(Time from, Time to) const {
  if (to <= from) return 0.0;
  return integrate(from, to) / (to - from).to_seconds();
}

double TimeSeries::max_over(Time from, Time to) const {
  double peak = at(from);
  for (const auto& p : points_) {
    if (p.t < from || p.t > to) continue;
    peak = std::max(peak, p.value);
  }
  return peak;
}

std::vector<double> TimeSeries::binned_average(Time from, Time to,
                                               std::size_t bins) const {
  assert(bins > 0 && to > from);
  std::vector<double> out(bins, 0.0);
  const Time width = Time::micros((to - from).ticks() / static_cast<std::int64_t>(bins));
  for (std::size_t i = 0; i < bins; ++i) {
    const Time lo = from + Time::micros(width.ticks() * static_cast<std::int64_t>(i));
    const Time hi = (i + 1 == bins) ? to : lo + width;
    out[i] = time_average(lo, hi);
  }
  return out;
}

}  // namespace grid3::util
