// The producer/intermediary/consumer metric fabric of Figure 1.
//
// "Information producers collect information close to its source, a
// common intermediary defines a uniform representation and access
// methods, and information is centrally collected..."  The MetricBus is
// that common intermediary: producers publish (site, metric, t, value)
// tuples and the bus fans each one out to its subscribers.  It keeps no
// samples; the consumers that serve reads (gmetad, the MonALISA
// repository) each keep the series they collect.
//
// The producers are Figure 1's: Ganglia's gmond and the MonALISA
// agents, each publishing under its own "ganglia." or "monalisa." name.
// Every (site, name) key has a dense MetricId.  The producers resolve
// their keys once and publish by id, so a sample costs an index plus the
// cached fan-out; the string publish resolves first, for callers that
// hold only a key's name.
#pragma once

#include <cassert>
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

struct MetricTag {};
/// Dense id of one (site, name) key on one bus.
using MetricId = core::InternedId<MetricTag>;

/// True when `name` matches `pattern`: the same name, or, for a pattern
/// ending in '*', any name starting with the part before the '*'.
[[nodiscard]] bool name_matches(const std::string& pattern,
                                const std::string& name);

/// Receives each matching sample by id; `MetricBus::key` names it.
using MetricCallback = std::function<void(MetricId, Time, double)>;
using SubscriptionId = std::uint64_t;

class MetricBus {
 public:
  /// Id for (site, name), registering the key if unseen.
  MetricId resolve(const std::string& site, const std::string& name);
  /// Id for (site, name) if already resolved; invalid otherwise.
  [[nodiscard]] MetricId find(const std::string& site,
                              const std::string& name) const;
  /// The key of a resolved id (valid for the bus's lifetime).
  [[nodiscard]] const MetricKey& key(MetricId id) const {
    assert(id.valid() && id.value() < entries_.size());
    return entries_[id.value()].key;
  }

  /// Publish a sample.  Fans out to matching subscribers synchronously.
  void publish(MetricId id, Time t, double value);
  /// Resolve-then-publish, for callers that hold only the key's name.
  void publish(const std::string& site, const std::string& name, Time t,
               double value);

  /// Subscribe to a metric name; `site` may be "*" for all sites, and a
  /// `name` ending in '*' matches by prefix (e.g. "monalisa.*").
  SubscriptionId subscribe(const std::string& site, const std::string& name,
                           MetricCallback cb);
  void unsubscribe(SubscriptionId id);

  /// Distinct (site, name) keys ever published (resolved keys that never
  /// carried a sample do not count).
  [[nodiscard]] std::size_t key_count() const { return published_keys_; }
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
    bool published = false;
    std::uint64_t sub_epoch = 0;  ///< 0 = fan-out never built
    std::vector<const Subscriber*> fanout;
  };

  void rebuild_fanout(Entry& e) const;

  /// Private interners for bus keys (sites here include non-fabric
  /// labels like VO names, so the bus does not share the grid registry).
  core::Interner<core::SiteId> site_ids_;
  core::Interner<core::ServiceId> name_ids_;
  /// (site id << 32 | name id) -> MetricId value.
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  /// Entries in resolve order, indexed by MetricId; a deque so growth
  /// never moves the keys `key()` hands out.
  std::deque<Entry> entries_;
  std::deque<Subscriber> subscribers_;  ///< stable; tombstoned, not erased
  SubscriptionId next_sub_ = 1;
  /// Bumped on subscribe/unsubscribe; entries with an older stamp
  /// rebuild their fan-out on next publish.
  std::uint64_t sub_epoch_ = 1;
  std::uint64_t published_ = 0;
  std::size_t published_keys_ = 0;
};

}  // namespace grid3::monitoring
