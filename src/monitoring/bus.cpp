#include "monitoring/bus.h"

namespace grid3::monitoring {
namespace {

std::uint64_t composite(core::SiteId site, core::ServiceId name) {
  return (static_cast<std::uint64_t>(site.value()) << 32) | name.value();
}

}  // namespace

bool name_matches(const std::string& pattern, const std::string& name) {
  if (!pattern.empty() && pattern.back() == '*') {
    return name.compare(0, pattern.size() - 1, pattern, 0,
                        pattern.size() - 1) == 0;
  }
  return pattern == name;
}

MetricBus::Entry& MetricBus::entry_for(const std::string& site,
                                       const std::string& name) {
  const auto key =
      composite(site_ids_.intern(site), name_ids_.intern(name));
  if (auto it = index_.find(key); it != index_.end()) {
    return entries_[it->second];
  }
  index_.emplace(key, static_cast<std::uint32_t>(entries_.size()));
  Entry& e = entries_.emplace_back();
  e.key = {site, name};
  return e;
}

void MetricBus::rebuild_fanout(Entry& e) const {
  e.fanout.clear();
  for (const Subscriber& s : subscribers_) {
    if (s.cb && name_matches(s.name, e.key.name) &&
        (s.site == "*" || s.site == e.key.site)) {
      e.fanout.push_back(&s);
    }
  }
  e.sub_epoch = sub_epoch_;
}

void MetricBus::publish(const std::string& site, const std::string& name,
                        Time t, double value) {
  ++published_;
  Entry& e = entry_for(site, name);
  if (e.sub_epoch != sub_epoch_) rebuild_fanout(e);
  for (const Subscriber* s : e.fanout) {
    // A tombstoned subscriber may linger until the next rebuild.
    if (s->cb) s->cb(e.key, t, value);
  }
}

SubscriptionId MetricBus::subscribe(const std::string& site,
                                    const std::string& name,
                                    MetricCallback cb) {
  const SubscriptionId id = next_sub_++;
  subscribers_.push_back({id, site, name, std::move(cb)});
  ++sub_epoch_;
  return id;
}

void MetricBus::unsubscribe(SubscriptionId id) {
  for (Subscriber& s : subscribers_) {
    if (s.id == id) s.cb = nullptr;
  }
  ++sub_epoch_;
}

}  // namespace grid3::monitoring
