#include "monitoring/monalisa.h"

#include <algorithm>

namespace grid3::monitoring {
namespace {

/// Width of the slot a read averages over: one site sweep period.
constexpr Time kSlot = Time::minutes(5);

/// Running average of the samples in t's slot, accumulated in arrival
/// order.
std::optional<double> slot_average(const util::TimeSeries& series, Time t) {
  const Time lo = Time::micros(t.ticks() / kSlot.ticks() * kSlot.ticks());
  const Time hi = lo + kSlot;
  const auto& points = series.points();
  auto it = std::lower_bound(
      points.begin(), points.end(), lo,
      [](const util::TimePoint& p, Time bound) { return p.t < bound; });
  double average = 0.0;
  double count = 0.0;
  for (; it != points.end() && it->t < hi; ++it) {
    average = (average * count + it->value) / (count + 1.0);
    count += 1.0;
  }
  if (count == 0.0) return std::nullopt;
  return average;
}

}  // namespace

std::string vo_metric(const char* base, const std::string& vo) {
  return std::string{base} + "." + vo;
}

void MonalisaAgent::report(const std::string& metric, Time now,
                           double value) {
  if (!up_) return;
  ++reports_;
  bus_.publish(site_, metric, now, value);
}

MonalisaRepository::MonalisaRepository(MetricBus& bus)
    : bus_{bus},
      // One prefix subscription covers the fixed names and every per-VO
      // key agents mint later.
      sub_{bus_.subscribe("*", "monalisa.*",
                          [this](const MetricKey& key, Time t, double value) {
                            ingest(key, t, value);
                          })} {}

MonalisaRepository::~MonalisaRepository() { bus_.unsubscribe(sub_); }

void MonalisaRepository::ingest(const MetricKey& key, Time t, double value) {
  if (!up_) {
    ++dropped_;
    return;
  }
  history_.append(key, t, value);
  ++updates_;
}

std::optional<double> MonalisaRepository::read(const std::string& site,
                                               const std::string& metric,
                                               Time t) const {
  if (!up_) return std::nullopt;
  return slot_average(history_.series(site, metric), t);
}

double MonalisaRepository::grid_total(const std::string& metric,
                                      Time t) const {
  if (!up_) return 0.0;
  double total = 0.0;
  history_.for_each(metric,
                    [&](const MetricKey&, const util::TimeSeries& series) {
                      if (auto v = slot_average(series, t)) total += *v;
                    });
  return total;
}

double MonalisaRepository::average_total(const std::string& pattern,
                                         Time from, Time to) const {
  if (!up_) return 0.0;
  double total = 0.0;
  history_.for_each(pattern,
                    [&](const MetricKey&, const util::TimeSeries& series) {
                      total += series.time_average(from, to);
                    });
  return total;
}

}  // namespace grid3::monitoring
