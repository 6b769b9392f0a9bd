#include "util/calendar.h"

#include <cassert>

namespace grid3::util {

CalendarDate epoch() { return {2003, 10, 1}; }

int days_in_month(int year, int month) {
  static constexpr int kDays[12] = {31, 28, 31, 30, 31, 30,
                                    31, 31, 30, 31, 30, 31};
  assert(month >= 1 && month <= 12);
  if (month == 2) {
    const bool leap =
        (year % 4 == 0 && year % 100 != 0) || (year % 400 == 0);
    return leap ? 29 : 28;
  }
  return kDays[month - 1];
}

CalendarDate date_at(Time t) {
  auto days = static_cast<std::int64_t>(t.to_days());
  CalendarDate d = epoch();
  while (days >= days_in_month(d.year, d.month) - (d.day - 1)) {
    days -= days_in_month(d.year, d.month) - (d.day - 1);
    d.day = 1;
    if (++d.month > 12) {
      d.month = 1;
      ++d.year;
    }
  }
  d.day += static_cast<int>(days);
  return d;
}

Time time_of(const CalendarDate& target) {
  CalendarDate d = epoch();
  std::int64_t days = 0;
  while (d.year < target.year || d.month < target.month) {
    days += days_in_month(d.year, d.month);
    if (++d.month > 12) {
      d.month = 1;
      ++d.year;
    }
  }
  days += target.day - 1;
  return Time::days(static_cast<double>(days));
}

std::string month_label(const CalendarDate& d) {
  std::string label = d.month < 10 ? "0" : "";
  label.append(std::to_string(d.month)).append("-").append(
      std::to_string(d.year));
  return label;
}

std::string month_label_at(Time t) { return month_label(date_at(t)); }

int month_index_at(Time t) {
  const CalendarDate d = date_at(t);
  const CalendarDate e = epoch();
  return (d.year - e.year) * 12 + (d.month - e.month);
}

Time month_start(int month_index) {
  CalendarDate d = epoch();
  d.month += month_index;
  while (d.month > 12) {
    d.month -= 12;
    ++d.year;
  }
  d.day = 1;
  return time_of(d);
}

std::vector<std::string> month_labels(int n) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(month_label_at(month_start(i)));
  return out;
}

}  // namespace grid3::util
