#include "rls/rls.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace grid3::rls {

namespace {

/// An RLI entry not refreshed within this long is stale (soft state).
constexpr Time kSoftStateTtl = Time::minutes(30);

}  // namespace

void LocalReplicaCatalog::touch() {
  static std::atomic<std::uint64_t> last_version{0};
  version_ = ++last_version;
}

void LocalReplicaCatalog::add(const std::string& lfn, Replica replica) {
  touch();
  auto& replicas = map_[lfn];
  auto it = std::find_if(replicas.begin(), replicas.end(),
                         [&](const Replica& r) { return r.pfn == replica.pfn; });
  if (it != replicas.end()) {
    *it = std::move(replica);
  } else {
    replicas.push_back(std::move(replica));
  }
}

bool LocalReplicaCatalog::remove(const std::string& lfn,
                                 const std::string& pfn) {
  auto it = map_.find(lfn);
  if (it == map_.end()) return false;
  auto& replicas = it->second;
  const auto before = replicas.size();
  replicas.erase(std::remove_if(replicas.begin(), replicas.end(),
                                [&](const Replica& r) { return r.pfn == pfn; }),
                 replicas.end());
  const bool removed = replicas.size() != before;
  if (replicas.empty()) map_.erase(it);
  if (removed) touch();
  return removed;
}

std::size_t LocalReplicaCatalog::remove_lfn(const std::string& lfn) {
  auto it = map_.find(lfn);
  if (it == map_.end()) return 0;
  const std::size_t n = it->second.size();
  map_.erase(it);
  touch();
  return n;
}

std::vector<Replica> LocalReplicaCatalog::lookup(const std::string& lfn) const {
  if (!up_) return {};
  auto it = map_.find(lfn);
  return it == map_.end() ? std::vector<Replica>{} : it->second;
}

bool LocalReplicaCatalog::has(const std::string& lfn) const {
  return up_ && map_.contains(lfn);
}

std::size_t LocalReplicaCatalog::replica_count() const {
  std::size_t n = 0;
  for (const auto& [lfn, replicas] : map_) n += replicas.size();
  return n;
}

ReplicaLocationIndex::SiteDigest& ReplicaLocationIndex::digest_for(
    const std::string& site) {
  auto [it, added] = sites_.try_emplace(site);
  if (added) it->second.site = site;
  return it->second;
}

void ReplicaLocationIndex::add(SiteDigest& d, const std::string& lfn) {
  Index::value_type& entry = *index_.try_emplace(lfn).first;
  std::vector<SiteDigest*>& sites = entry.second;
  auto pos = std::lower_bound(sites.begin(), sites.end(), d.site,
                              [](const SiteDigest* s, const std::string& name) {
                                return s->site < name;
                              });
  if (pos != sites.end() && *pos == &d) return;
  sites.insert(pos, &d);
  d.lfns.push_back(&entry);
}

void ReplicaLocationIndex::redigest(SiteDigest& d,
                                    const LocalReplicaCatalog& lrc) {
  for (Index::value_type* entry : d.lfns) {
    std::erase(entry->second, &d);
    if (entry->second.empty()) index_.erase(index_.find(entry->first));
  }
  d.lfns.clear();
  for (const auto& [lfn, replicas] : lrc.mappings()) add(d, lfn);
}

void ReplicaLocationIndex::update_from(const LocalReplicaCatalog& lrc,
                                       Time now) {
  if (!up_) return;  // a down index drops digests; soft state re-heals
  SiteDigest& d = digest_for(lrc.site());
  if (d.version != lrc.version()) redigest(d, lrc);
  d.refreshed = now;
  d.version = lrc.version();
}

void ReplicaLocationIndex::update_from(const LocalReplicaCatalog& lrc,
                                       std::uint64_t before,
                                       const std::string& lfn, Time now) {
  if (!up_) return;
  SiteDigest& d = digest_for(lrc.site());
  if (d.version == before) {
    add(d, lfn);
  } else {
    redigest(d, lrc);
  }
  d.refreshed = now;
  d.version = lrc.version();
}

std::vector<std::string> ReplicaLocationIndex::sites_with(
    const std::string& lfn, Time now) const {
  std::vector<std::string> out;
  if (!up_) return out;
  auto it = index_.find(lfn);
  if (it == index_.end()) return out;
  for (const SiteDigest* d : it->second) {
    if (now - d->refreshed <= kSoftStateTtl) out.push_back(d->site);
  }
  return out;
}

bool ReplicaLocationIndex::knows(const std::string& lfn,
                                 const std::string& site, Time now) const {
  if (!up_) return false;
  auto it = index_.find(lfn);
  if (it == index_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const SiteDigest* d) {
                       return d->site == site &&
                              now - d->refreshed <= kSoftStateTtl;
                     });
}

LocalReplicaCatalog& ReplicaLocationService::lrc_for(const std::string& site) {
  auto it = lrcs_.find(site);
  if (it == lrcs_.end()) {
    it = lrcs_.emplace(site, LocalReplicaCatalog{site}).first;
  }
  return it->second;
}

const LocalReplicaCatalog* ReplicaLocationService::find_lrc(
    const std::string& site) const {
  auto it = lrcs_.find(site);
  return it == lrcs_.end() ? nullptr : &it->second;
}

JournalEntry& RegistrationJournal::log(std::string site, std::string lfn,
                                       Replica replica, Time now) {
  JournalEntry e;
  e.id = ++next_id_;
  e.site = std::move(site);
  e.lfn = std::move(lfn);
  e.replica = std::move(replica);
  e.logged = now;
  entries_.push_back(std::move(e));
  JournalEntry& ref = entries_.back();
  if (audit_) audit_(ref, "log");
  return ref;
}

void RegistrationJournal::mark_applied(JournalEntry& e, const char* event) {
  assert(!e.applied && "journal entries are applied exactly once");
  e.applied = true;
  ++applied_count_;
  if (event != nullptr && event[0] == 'r') ++replayed_;
  if (audit_) audit_(e, event);
}

void ReplicaLocationService::add_replica(const std::string& site,
                                         const std::string& lfn,
                                         Replica replica, Time now) {
  LocalReplicaCatalog& lrc = lrc_for(site);
  const std::uint64_t before = lrc.version();
  lrc.add(lfn, std::move(replica));  // idempotent: upserts by PFN
  // Dropped while the RLI is down; the next refresh_all re-advertises it.
  rli_.update_from(lrc, before, lfn, now);
}

void ReplicaLocationService::apply(JournalEntry& e, Time now,
                                   const char* event) {
  add_replica(e.site, e.lfn, e.replica, now);
  journal_.mark_applied(e, event);
}

void ReplicaLocationService::register_replica(const std::string& site,
                                              const std::string& lfn,
                                              Replica replica, Time now) {
  const bool reachable = available_ && lrc_for(site).available();
  if (journal_enabled_) {
    // Write-ahead: log the intent first, then attempt the write.  A
    // down endpoint or LRC leaves the entry pending for replay().
    JournalEntry& e = journal_.log(site, lfn, std::move(replica), now);
    if (reachable) apply(e, now, "apply");
    return;
  }
  // Naive baseline: the registration script fails against the down
  // service and the mapping is gone.
  if (!reachable) {
    ++lost_registrations_;
    return;
  }
  add_replica(site, lfn, std::move(replica), now);
}

std::size_t ReplicaLocationService::replay(Time now) {
  if (!journal_enabled_ || !available_ || journal_.pending() == 0) return 0;
  std::size_t applied = 0;
  for (JournalEntry& e : journal_.entries()) {
    if (e.applied) continue;
    if (!lrc_for(e.site).available()) continue;  // still down: keep pending
    apply(e, now, "replay");
    ++applied;
  }
  return applied;
}

std::vector<std::pair<std::string, Replica>> ReplicaLocationService::locate(
    const std::string& lfn, Time now) const {
  std::vector<std::pair<std::string, Replica>> out;
  if (!rli_.available()) {
    // RLI outage: fall back to a direct scan of the authoritative LRCs
    // (the map is name-ordered, so results stay deterministic).
    for (const auto& [site, lrc] : lrcs_) {
      for (const Replica& r : lrc.lookup(lfn)) out.emplace_back(site, r);
    }
    return out;
  }
  for (const std::string& site : rli_.sites_with(lfn, now)) {
    auto it = lrcs_.find(site);
    if (it == lrcs_.end()) continue;
    for (const Replica& r : it->second.lookup(lfn)) {
      out.emplace_back(site, r);
    }
  }
  return out;
}

bool ReplicaLocationService::has_replica_at(const std::string& lfn,
                                            const std::string& site,
                                            Time now) const {
  if (!rli_.available()) {
    const LocalReplicaCatalog* lrc = find_lrc(site);
    return lrc != nullptr && lrc->has(lfn);
  }
  if (!rli_.knows(lfn, site, now)) return false;
  // Mirror locate()'s LRC check: a stale index entry whose catalog
  // dropped the mapping (or whose LRC is down) yields no replicas.
  const LocalReplicaCatalog* lrc = find_lrc(site);
  return lrc != nullptr && lrc->has(lfn);
}

void ReplicaLocationService::refresh_all(Time now) {
  // The ops loop doubles as the recovery replay trigger: pending
  // journal entries drain as soon as their targets are reachable again.
  replay(now);
  for (auto& [site, lrc] : lrcs_) {
    if (lrc.available()) rli_.update_from(lrc, now);
  }
}

}  // namespace grid3::rls
