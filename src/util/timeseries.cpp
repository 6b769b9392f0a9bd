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

void EventSeries::record(Time t, double weight) {
  assert(events_.empty() || t >= events_.back().t);
  events_.push_back({t, weight});
}

double EventSeries::total(Time from, Time to) const {
  double acc = 0.0;
  for (const auto& e : events_) {
    if (e.t >= from && e.t < to) acc += e.value;
  }
  return acc;
}

double EventSeries::total() const {
  double acc = 0.0;
  for (const auto& e : events_) acc += e.value;
  return acc;
}

std::vector<double> EventSeries::binned(Time from, Time to,
                                        std::size_t bins) const {
  assert(bins > 0 && to > from);
  std::vector<double> out(bins, 0.0);
  const double span = (to - from).to_seconds();
  for (const auto& e : events_) {
    if (e.t < from || e.t >= to) continue;
    auto idx = static_cast<std::size_t>((e.t - from).to_seconds() / span *
                                        static_cast<double>(bins));
    idx = std::min(idx, bins - 1);
    out[idx] += e.value;
  }
  return out;
}

std::vector<double> EventSeries::cumulative(Time from, Time to,
                                            std::size_t bins) const {
  auto per_bin = binned(from, to, bins);
  double acc = total(Time::zero(), from);
  for (auto& v : per_bin) {
    acc += v;
    v = acc;
  }
  return per_bin;
}

}  // namespace grid3::util
