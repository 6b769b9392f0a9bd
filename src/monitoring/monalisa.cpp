#include "monitoring/monalisa.h"

namespace grid3::monitoring {
namespace {

/// Width of the slot a read averages over: one site sweep period.
constexpr Time kSlot = Time::minutes(5);

Time slot_start(Time t) {
  return Time::micros(t.ticks() / kSlot.ticks() * kSlot.ticks());
}

}  // namespace

void MonalisaRepository::SlotAverage::add(Time t, double value) {
  const Time start = slot_start(t);
  if (count == 0.0 || start != slot) {
    slot = start;
    average = count = 0.0;
  } else if (t == last) {
    average = prior_average;
    count = prior_count;
  }
  last = t;
  prior_average = average;
  prior_count = count;
  average = (average * count + value) / (count + 1.0);
  count += 1.0;
}

std::optional<double> MonalisaRepository::SlotAverage::at(Time t) const {
  if (count == 0.0 || slot_start(t) != slot) return std::nullopt;
  return average;
}

std::string vo_metric(const char* base, const std::string& vo) {
  return std::string{base} + "." + vo;
}

void MonalisaAgent::report(MetricId metric, Time now, double value) {
  if (!up_) return;
  ++reports_;
  bus_.publish(metric, now, value);
}

void MonalisaAgent::report(const std::string& metric, Time now,
                           double value) {
  report(resolve(metric), now, value);
}

MonalisaRepository::MonalisaRepository(MetricBus& bus)
    : bus_{bus},
      history_{bus},
      // One prefix subscription covers the fixed names and every per-VO
      // key agents mint later.
      sub_{bus_.subscribe("*", "monalisa.*",
                          [this](MetricId id, Time t, double value) {
                            ingest(id, t, value);
                          })} {}

MonalisaRepository::~MonalisaRepository() { bus_.unsubscribe(sub_); }

void MonalisaRepository::ingest(MetricId id, Time t, double value) {
  if (!up_) {
    ++dropped_;
    return;
  }
  history_.append(id, t, value);
  slots_.at_or_grow(id).add(t, value);
  ++updates_;
}

std::optional<double> MonalisaRepository::read(MetricId metric, Time t) const {
  if (!up_) return std::nullopt;
  const SlotAverage* slot = slots_.find(metric);
  return slot == nullptr ? std::nullopt : slot->at(t);
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
