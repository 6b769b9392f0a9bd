#include "monitoring/troubleshoot.h"

#include <algorithm>
#include <map>

namespace grid3::monitoring {

namespace {

/// Longest gap between consecutive failures inside one burst.
constexpr Time kMaxBurstGap = Time::hours(6);
/// How far an incident window is widened on both ends when matching it
/// to a burst.
constexpr Time kCorrelationSlack = Time::hours(2);

}  // namespace

const JobRecord* Troubleshooter::find_by_submit_id(
    const std::string& submit_id) const {
  for (const JobRecord& r : db_.records()) {
    if (r.submit_id == submit_id) return &r;
  }
  return nullptr;
}

const JobRecord* Troubleshooter::find_by_gram_contact(
    const std::string& gram_contact) const {
  if (gram_contact.empty()) return nullptr;
  for (const JobRecord& r : db_.records()) {
    if (r.gram_contact == gram_contact) return &r;
  }
  return nullptr;
}

std::vector<const JobRecord*> Troubleshooter::failures_at(
    const std::string& site, Time from, Time to) const {
  std::vector<const JobRecord*> out;
  for (const JobRecord& r : db_.records()) {
    if (r.site == site && !r.success && r.finished >= from &&
        r.finished < to) {
      out.push_back(&r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JobRecord* a, const JobRecord* b) {
              return a->finished > b->finished;
            });
  return out;
}

std::vector<FailureBurst> Troubleshooter::find_bursts(
    Time from, Time to, std::size_t min_failures) const {
  // Group failures per site, sort by time, then split on gaps.
  std::map<std::string, std::vector<const JobRecord*>> by_site;
  for (const JobRecord& r : db_.records()) {
    if (!r.success && r.finished >= from && r.finished < to) {
      by_site[r.site].push_back(&r);
    }
  }
  std::vector<FailureBurst> bursts;
  for (auto& [site, failures] : by_site) {
    std::sort(failures.begin(), failures.end(),
              [](const JobRecord* a, const JobRecord* b) {
                return a->finished < b->finished;
              });
    std::size_t start = 0;
    for (std::size_t i = 1; i <= failures.size(); ++i) {
      const bool split =
          i == failures.size() ||
          failures[i]->finished - failures[i - 1]->finished > kMaxBurstGap;
      if (!split) continue;
      const std::size_t count = i - start;
      if (count >= min_failures) {
        FailureBurst burst;
        burst.site = site;
        burst.from = failures[start]->finished;
        burst.to = failures[i - 1]->finished;
        burst.failures = count;
        std::map<std::string, std::size_t> classes;
        for (std::size_t k = start; k < i; ++k) {
          ++classes[failures[k]->failure];
        }
        std::size_t best = 0;
        for (const auto& [cls, n] : classes) {
          if (n > best) {
            best = n;
            burst.dominant_class = cls;
          }
        }
        bursts.push_back(std::move(burst));
      }
      start = i;
    }
  }
  std::sort(bursts.begin(), bursts.end(),
            [](const FailureBurst& a, const FailureBurst& b) {
              return a.failures > b.failures;
            });
  return bursts;
}

std::vector<FailureBurst> Troubleshooter::correlate(
    std::vector<FailureBurst> bursts,
    const std::vector<IncidentWindow>& incidents) {
  for (FailureBurst& burst : bursts) {
    for (const IncidentWindow& inc : incidents) {
      if (inc.site != burst.site) continue;
      const Time inc_from = inc.opened - kCorrelationSlack;
      const Time inc_to =
          (inc.closed == Time::max() ? burst.to : inc.closed) +
          kCorrelationSlack;
      const bool overlaps = burst.from <= inc_to && burst.to >= inc_from;
      if (overlaps) {
        burst.ticket = inc.id;
        break;
      }
    }
  }
  return bursts;
}

std::vector<std::pair<std::string, std::size_t>>
Troubleshooter::top_failure_classes(Time from, Time to,
                                    std::size_t limit) const {
  std::map<std::string, std::size_t> classes;
  for (const JobRecord& r : db_.records()) {
    if (!r.success && r.finished >= from && r.finished < to) {
      ++classes[r.failure];
    }
  }
  std::vector<std::pair<std::string, std::size_t>> out{classes.begin(),
                                                       classes.end()};
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

}  // namespace grid3::monitoring
