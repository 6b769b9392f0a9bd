// Replica Location Service, after the Giggle framework (paper ref [18]).
//
// Two tiers: per-site Local Replica Catalogs (LRC) map logical file
// names to physical locations; Replica Location Indices (RLI) answer
// "which LRCs know this LFN".  LRCs push periodic full soft-state
// digests to their RLIs (refresh_all), so the index can lag the
// catalogs -- consumers must tolerate a bounded staleness window, and
// the tests pin that behaviour.  Between digests, each registration
// reaches the RLI as an incremental update ("immediate mode", Chervenak
// et al., HPDC 2004): one LFN, not the site's whole catalog.  An update
// the index cannot apply as a delta -- it missed an earlier change, for
// instance a digest dropped while the RLI was down -- becomes a full
// digest of that one site, and the next refresh_all re-heals whatever
// an RLI outage dropped.
//
// Outage degradation: the service endpoint and the RLI each carry an
// availability flag.  Registrations attempted while the endpoint (or
// the target LRC) is down land in a per-VO write-ahead journal -- the
// intent is logged before the catalog write is attempted -- and are
// replayed exactly once on recovery; LRC::add upserts by PFN, so
// re-registration is idempotent.  Lookups during an RLI outage fall
// back to a direct scan of the authoritative LRCs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/units.h"

namespace grid3::rls {

struct Replica {
  std::string pfn;  ///< physical file name: "gsiftp://<site>/<path>"
  Bytes size;
  Time registered;
};

/// Local Replica Catalog: authoritative per-site LFN -> PFN mappings.
class LocalReplicaCatalog {
 public:
  using Mappings = std::map<std::string, std::vector<Replica>>;

  explicit LocalReplicaCatalog(std::string site) : site_{std::move(site)} {}

  [[nodiscard]] const std::string& site() const { return site_; }

  void add(const std::string& lfn, Replica replica);
  bool remove(const std::string& lfn, const std::string& pfn);
  /// Remove every mapping for an LFN; returns replicas removed.
  std::size_t remove_lfn(const std::string& lfn);

  [[nodiscard]] std::vector<Replica> lookup(const std::string& lfn) const;
  [[nodiscard]] bool has(const std::string& lfn) const;
  [[nodiscard]] std::size_t replica_count() const;

  /// Every mapping, LFN-sorted, regardless of availability (the payload
  /// of a full RLI digest).
  [[nodiscard]] const Mappings& mappings() const { return map_; }

  /// Changes on every mutation, to a value drawn from one process-wide
  /// sequence, so two catalogs at the same version hold the same
  /// mappings (0: never changed, empty).  The RLI compares it with the
  /// version it last digested.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

 private:
  void touch();

  std::string site_;
  bool up_ = true;
  std::uint64_t version_ = 0;
  Mappings map_;
};

/// Replica Location Index: LFN -> set of LRC sites, fed by soft-state.
///
/// A digest stamps every entry of its site with one time, so the index
/// keeps one last-digest time per site and a name-sorted site set per
/// LFN, and remembers the LRC version each site's entries reflect.
class ReplicaLocationIndex {
 public:
  explicit ReplicaLocationIndex(std::string name) : name_{std::move(name)} {}
  // The index holds pointers into its own tables.
  ReplicaLocationIndex(const ReplicaLocationIndex&) = delete;
  ReplicaLocationIndex& operator=(const ReplicaLocationIndex&) = delete;
  ReplicaLocationIndex(ReplicaLocationIndex&&) = default;
  ReplicaLocationIndex& operator=(ReplicaLocationIndex&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Accept a full-state digest from one LRC (replaces that site's
  /// previous contribution).  Entries expire after 30 minutes without
  /// refresh (soft state).
  /// A digest of an LRC unchanged since the site's last digest only
  /// re-stamps the site; any other costs O(the site's LFNs).
  void update_from(const LocalReplicaCatalog& lrc, Time now);

  /// Immediate-mode update: `lrc` gained `lfn`, and its only change
  /// since version `before` was that add.  Indexes `lfn` alone when this
  /// index holds `before`, else digests `lrc` in full; either way the
  /// result equals update_from(lrc, now).
  void update_from(const LocalReplicaCatalog& lrc, std::uint64_t before,
                   const std::string& lfn, Time now);

  /// Sites whose LRC advertised the LFN at last refresh and whose entry
  /// has not expired.
  [[nodiscard]] std::vector<std::string> sites_with(const std::string& lfn,
                                                    Time now) const;

  /// O(1)-ish membership: did `site` advertise `lfn` and is the entry
  /// still fresh?  The allocation-free form of sites_with for callers
  /// that test one site (rank policies probing data locality).
  [[nodiscard]] bool knows(const std::string& lfn, const std::string& site,
                           Time now) const;

  /// A down index answers nothing and drops incoming digests (soft
  /// state heals itself: the next refresh after recovery re-pushes the
  /// full catalog).
  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

  /// LFNs that at least one site advertised at its last digest.
  [[nodiscard]] std::size_t indexed_lfns() const { return index_.size(); }

 private:
  struct SiteDigest;
  /// LFN -> advertising sites, name-sorted.  The table is unordered (hot
  /// lookups hash once); its nodes never move, so digests point at them.
  using Index = std::unordered_map<std::string, std::vector<SiteDigest*>>;
  struct SiteDigest {
    std::string site;
    Time refreshed;
    std::uint64_t version = 0;  ///< LRC version the entries reflect
    std::vector<Index::value_type*> lfns;
  };

  [[nodiscard]] SiteDigest& digest_for(const std::string& site);
  /// Index `lfn` under `d` unless it already is.
  void add(SiteDigest& d, const std::string& lfn);
  void redigest(SiteDigest& d, const LocalReplicaCatalog& lrc);

  std::string name_;
  bool up_ = true;
  Index index_;
  std::map<std::string, SiteDigest> sites_;
};

/// One logged registration intent.  Write-ahead: the entry exists
/// before the catalog write is attempted, so a crash/outage between the
/// two loses nothing.
struct JournalEntry {
  std::uint64_t id = 0;  ///< monotone log order
  std::string site;
  std::string lfn;
  Replica replica;
  Time logged;
  bool applied = false;  ///< reached the authoritative LRC
};

/// Per-VO write-ahead journal for replica registrations.  Append-only;
/// an entry is applied exactly once (immediately when the service is
/// up, or by replay on recovery).  The audit tap exposes every
/// transition to the model checker's journal invariant.
class RegistrationJournal {
 public:
  /// Fires per transition with event "log", "apply" (immediate path)
  /// or "replay" (recovery path).
  using AuditFn = std::function<void(const JournalEntry&, const char* event)>;
  void set_audit(AuditFn fn) { audit_ = std::move(fn); }

  JournalEntry& log(std::string site, std::string lfn, Replica replica,
                    Time now);
  /// Flip an entry to applied (must not already be; the invariant's
  /// exactly-once guarantee rests here).
  void mark_applied(JournalEntry& e, const char* event);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Entries logged but not yet applied (a down target is holding them).
  [[nodiscard]] std::size_t pending() const {
    return entries_.size() - applied_count_;
  }
  /// Entries applied via the recovery path.
  [[nodiscard]] std::size_t replayed() const { return replayed_; }
  [[nodiscard]] const std::vector<JournalEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::vector<JournalEntry>& entries() { return entries_; }

 private:
  std::vector<JournalEntry> entries_;
  std::uint64_t next_id_ = 0;
  std::size_t applied_count_ = 0;
  std::size_t replayed_ = 0;
  AuditFn audit_;
};

/// Convenience façade binding LRCs and an RLI into one service endpoint,
/// as the VOs deployed it (one RLS per VO).
class ReplicaLocationService {
 public:
  explicit ReplicaLocationService(std::string vo)
      : vo_{std::move(vo)}, rli_{vo_ + "-rli"} {}

  [[nodiscard]] const std::string& vo() const { return vo_; }

  LocalReplicaCatalog& lrc_for(const std::string& site);
  [[nodiscard]] const LocalReplicaCatalog* find_lrc(
      const std::string& site) const;

  /// Register a replica and immediately refresh that LRC's digest (Grid3
  /// registration scripts did both in one step).  The intent is journaled
  /// first; when the endpoint or the target LRC is down the entry stays
  /// pending and replay() applies it on recovery.  With the journal
  /// disabled (the naive baseline) such registrations are simply lost
  /// and counted.
  void register_replica(const std::string& site, const std::string& lfn,
                        Replica replica, Time now);

  /// Query: all replicas of an LFN across sites the RLI knows about.
  /// During an RLI outage, degrades to a direct scan of the
  /// authoritative LRCs (slower in real life; never wrong).
  [[nodiscard]] std::vector<std::pair<std::string, Replica>> locate(
      const std::string& lfn, Time now) const;

  /// True iff locate(lfn, now) would list `site` -- the RLI entry is
  /// fresh AND the site's LRC still holds the mapping -- without
  /// materialising the replica list.
  [[nodiscard]] bool has_replica_at(const std::string& lfn,
                                    const std::string& site, Time now) const;

  /// Periodic soft-state refresh of every LRC digest.  Also drains the
  /// journal first, so the standard ops loop doubles as the recovery
  /// replay trigger.
  void refresh_all(Time now);

  /// Apply every pending journal entry whose target LRC is reachable.
  /// Exactly-once: applied entries are skipped; idempotent because
  /// LRC::add upserts by PFN.  Returns entries applied.
  std::size_t replay(Time now);

  /// Registration-endpoint availability (the write path; queries keep
  /// answering from the RLI/LRCs).  Down -> registrations journal.
  void set_available(bool up) { available_ = up; }
  [[nodiscard]] bool available() const { return available_; }

  /// False = the naive pre-journal baseline: registrations against a
  /// down endpoint/LRC are dropped and counted in lost_registrations().
  void set_journal_enabled(bool on) { journal_enabled_ = on; }
  [[nodiscard]] bool journal_enabled() const { return journal_enabled_; }
  [[nodiscard]] std::size_t lost_registrations() const {
    return lost_registrations_;
  }

  [[nodiscard]] RegistrationJournal& journal() { return journal_; }
  [[nodiscard]] const RegistrationJournal& journal() const { return journal_; }

  [[nodiscard]] ReplicaLocationIndex& rli() { return rli_; }
  [[nodiscard]] const ReplicaLocationIndex& rli() const { return rli_; }
  [[nodiscard]] std::size_t lrc_count() const { return lrcs_.size(); }

 private:
  void apply(JournalEntry& e, Time now, const char* event);
  /// The catalog write plus its immediate-mode RLI update.
  void add_replica(const std::string& site, const std::string& lfn,
                   Replica replica, Time now);

  std::string vo_;
  bool available_ = true;
  bool journal_enabled_ = true;
  std::size_t lost_registrations_ = 0;
  std::map<std::string, LocalReplicaCatalog> lrcs_;
  ReplicaLocationIndex rli_;
  RegistrationJournal journal_;
};

}  // namespace grid3::rls
