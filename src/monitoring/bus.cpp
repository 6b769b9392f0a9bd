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

MetricId MetricBus::resolve(const std::string& site,
                            const std::string& name) {
  const auto key =
      composite(site_ids_.intern(site), name_ids_.intern(name));
  const auto [it, inserted] =
      index_.emplace(key, static_cast<std::uint32_t>(entries_.size()));
  if (inserted) entries_.emplace_back().key = {site, name};
  return MetricId{it->second};
}

MetricId MetricBus::find(const std::string& site,
                         const std::string& name) const {
  const core::SiteId site_id = site_ids_.find(site);
  const core::ServiceId name_id = name_ids_.find(name);
  if (!site_id.valid() || !name_id.valid()) return MetricId::invalid();
  auto it = index_.find(composite(site_id, name_id));
  return it == index_.end() ? MetricId::invalid() : MetricId{it->second};
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

void MetricBus::publish(MetricId id, Time t, double value) {
  assert(id.valid() && id.value() < entries_.size());
  ++published_;
  Entry& e = entries_[id.value()];
  if (!e.published) {
    e.published = true;
    ++published_keys_;
  }
  if (e.sub_epoch != sub_epoch_) rebuild_fanout(e);
  for (const Subscriber* s : e.fanout) {
    // A tombstoned subscriber may linger until the next rebuild.
    if (s->cb) s->cb(id, t, value);
  }
}

void MetricBus::publish(const std::string& site, const std::string& name,
                        Time t, double value) {
  publish(resolve(site, name), t, value);
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
