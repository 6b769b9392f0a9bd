// The producer/intermediary/consumer metric fabric of Figure 1.
//
// "Information producers collect information close to its source, a
// common intermediary defines a uniform representation and access
// methods, and information is centrally collected..."  The MetricBus is
// that common intermediary: producers publish (site, metric, t, value)
// tuples and the bus fans each one out to its subscribers.  It keeps no
// samples; the consumers that serve reads (gmetad, the MonALISA
// repository) each keep the series they collect.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ids.h"
#include "util/units.h"

namespace grid3::monitoring {

struct MetricKey {
  std::string site;
  std::string name;
  auto operator<=>(const MetricKey&) const = default;
};

/// True when `name` matches `pattern`: the same name, or, for a pattern
/// ending in '*', any name starting with the part before the '*'.
[[nodiscard]] bool name_matches(const std::string& pattern,
                                const std::string& name);

using MetricCallback =
    std::function<void(const MetricKey&, Time, double)>;
using SubscriptionId = std::uint64_t;

class MetricBus {
 public:
  /// Publish a sample.  Fans out to matching subscribers synchronously,
  /// each receiving the bus's own key for the sample (valid for the
  /// bus's lifetime).
  void publish(const std::string& site, const std::string& name, Time t,
               double value);

  /// Subscribe to a metric name; `site` may be "*" for all sites, and a
  /// `name` ending in '*' matches by prefix (e.g. "monalisa.*").
  SubscriptionId subscribe(const std::string& site, const std::string& name,
                           MetricCallback cb);
  void unsubscribe(SubscriptionId id);

  /// Distinct (site, name) keys ever published.
  [[nodiscard]] std::size_t key_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t published() const { return published_; }

 private:
  struct Subscriber {
    SubscriptionId id;
    std::string site;  // "*" = wildcard
    std::string name;
    MetricCallback cb;  // null = unsubscribed tombstone
  };

  /// One (site, name) key plus its cached subscriber fan-out.  The
  /// fan-out list is rebuilt lazily when the subscription epoch moved,
  /// so steady-state publishes skip a per-publish pattern scan.
  struct Entry {
    MetricKey key;
    std::uint64_t sub_epoch = 0;  ///< 0 = fan-out never built
    std::vector<const Subscriber*> fanout;
  };

  Entry& entry_for(const std::string& site, const std::string& name);
  void rebuild_fanout(Entry& e) const;

  /// Private interners for bus keys (sites here include non-fabric
  /// labels like VO names, so the bus does not share the grid registry).
  core::Interner<core::SiteId> site_ids_;
  core::Interner<core::ServiceId> name_ids_;
  /// (site id << 32 | name id) -> index into entries_.
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  /// Entries in first-publish order; a deque so growth never moves the
  /// keys handed to subscribers.
  std::deque<Entry> entries_;
  std::deque<Subscriber> subscribers_;  ///< stable; tombstoned, not erased
  SubscriptionId next_sub_ = 1;
  /// Bumped on subscribe/unsubscribe; entries with an older stamp
  /// rebuild their fan-out on next publish.
  std::uint64_t sub_epoch_ = 1;
  std::uint64_t published_ = 0;
};

}  // namespace grid3::monitoring
