// Append-only (time, value) series plus the analyses the paper's figures
// need: integration (CPU-days), time-averages (differential CPU usage)
// and binning by interval.
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.h"

namespace grid3::util {

struct TimePoint {
  Time t;
  double value = 0.0;
};

/// A step-function time series: value(t) holds from each sample until the
/// next.  Samples must be appended in non-decreasing time order.
///
/// The series is step-compressed: a sample whose value is bit-identical
/// to the previous stored point's extends that step instead of adding a
/// point, so a gauge that holds for hours costs one point.  `at` and
/// `max_over` answer exactly as over every sample; `integrate` may differ
/// in the last ulp where two equal segments merged.
class TimeSeries {
 public:
  /// Record a sample.  A second sample at the latest sample's instant
  /// replaces it.
  void append(Time t, double value);

  [[nodiscard]] bool empty() const { return points_.empty(); }
  /// Stored points: the change points of the step function.
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] const std::vector<TimePoint>& points() const { return points_; }

  /// The most recent sample, including one that repeated the previous
  /// value and so added no point.  Requires !empty().
  [[nodiscard]] const TimePoint& latest() const { return latest_; }

  /// Step-function value at time t (0 before the first sample).
  [[nodiscard]] double at(Time t) const;

  /// Integral of the step function over [from, to], in value * seconds.
  [[nodiscard]] double integrate(Time from, Time to) const;

  /// Time-weighted average over [from, to].
  [[nodiscard]] double time_average(Time from, Time to) const;

  /// Maximum sampled value within [from, to] (considering the step value
  /// entering the window too).
  [[nodiscard]] double max_over(Time from, Time to) const;

  /// Resample into `bins` equal windows of [from, to], each bin holding the
  /// time-weighted average (the paper notes binned averages under-report
  /// peaks -- we reproduce that artifact deliberately).
  [[nodiscard]] std::vector<double> binned_average(Time from, Time to,
                                                   std::size_t bins) const;

 private:
  std::vector<TimePoint> points_;
  TimePoint latest_;
};

}  // namespace grid3::util
