// The four shipped protocol invariants, each wired to real subsystem
// state (no shadow models):
//
//   1. LeaseAuditInvariant   -- every PlacementLedger lease is released
//      or consumed exactly once across fallthrough/hold/failure
//      paths.  Taps the ledger's audit hook: a "release-stale" or
//      "consume-stale" event IS a double-release/use-after-release, and
//      at quiescence no lease may still be active (reserved space would
//      have leaked -- the section 6.2 disk-exhaustion class).
//   2. GangLeaseInvariant    -- gang-scoped leases are never stranded:
//      every lease a live gang still points at must be active in the
//      ledger, and at quiescence no gang lease survives (members split,
//      site trips, and plain completion all drain it).
//   3. BreakerInvariant      -- the health breaker never loses a
//      quarantined site: breaker state and the broker-facing
//      quarantined() predicate stay consistent after every transition
//      (open or half-open => excluded, closed => matchable), and by
//      quiescence every
//      tripped site has been re-admitted (open => eventually half-open
//      probe => readmission; nothing stays dark forever).
//   4. Determinism is checked by the Explorer itself (Foata-class digest
//      comparison); MatchQuarantineInvariant rounds out the breaker
//      story on the broker side: no match decision ever lands on a site
//      the breaker currently excludes.
//   5. JournalInvariant       -- the RLS write-ahead journal applies
//      every registration exactly once: taps the journal's audit hook
//      (a second "apply"/"replay" for one entry id IS a double-apply),
//      and at quiescence with the endpoint up no entry may still be
//      pending against a reachable LRC, and every journaled (site, lfn)
//      must actually be present in its authoritative catalog -- the
//      no-lost-registration guarantee across outage/recovery orders.
//
// Adding an invariant: subclass mc::Invariant, read the real service
// state (add a const accessor to the service if one is missing -- never
// duplicate its bookkeeping), return a message on violation, and hand a
// pointer to it from your ExploredRun::invariants().
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "mc/explorer.h"

namespace grid3::broker {
class ResourceBroker;
}
namespace grid3::health {
class SiteHealthMonitor;
}
namespace grid3::placement {
class PlacementLedger;
}
namespace grid3::rls {
class ReplicaLocationService;
}

namespace grid3::mc {

class LeaseAuditInvariant : public Invariant {
 public:
  /// Installs itself as the ledger's audit tap.
  explicit LeaseAuditInvariant(placement::PlacementLedger& ledger);
  [[nodiscard]] const char* name() const override { return "lease-audit"; }
  std::optional<std::string> check(bool quiescent) override;

 private:
  placement::PlacementLedger& ledger_;
  std::string stale_;  ///< first stale lifecycle event seen
};

class GangLeaseInvariant : public Invariant {
 public:
  GangLeaseInvariant(broker::ResourceBroker& broker,
                     placement::PlacementLedger& ledger);
  [[nodiscard]] const char* name() const override { return "gang-lease"; }
  std::optional<std::string> check(bool quiescent) override;

 private:
  broker::ResourceBroker& broker_;
  placement::PlacementLedger& ledger_;
};

class BreakerInvariant : public Invariant {
 public:
  explicit BreakerInvariant(health::SiteHealthMonitor& health);
  [[nodiscard]] const char* name() const override { return "breaker"; }
  std::optional<std::string> check(bool quiescent) override;

 private:
  health::SiteHealthMonitor& health_;
};

class JournalInvariant : public Invariant {
 public:
  /// Installs itself as the registration journal's audit tap.
  explicit JournalInvariant(rls::ReplicaLocationService& rls);
  [[nodiscard]] const char* name() const override { return "rls-journal"; }
  std::optional<std::string> check(bool quiescent) override;

 private:
  rls::ReplicaLocationService& rls_;
  std::map<std::uint64_t, int> applies_;  ///< entry id -> apply events seen
  std::string double_apply_;              ///< first exactly-once breach seen
};

class MatchQuarantineInvariant : public Invariant {
 public:
  MatchQuarantineInvariant(broker::ResourceBroker& broker,
                           health::SiteHealthMonitor& health);
  [[nodiscard]] const char* name() const override {
    return "match-quarantine";
  }
  std::optional<std::string> check(bool quiescent) override;

 private:
  broker::ResourceBroker& broker_;
  health::SiteHealthMonitor& health_;
  std::size_t seen_ = 0;  ///< match-log entries already vetted
};

}  // namespace grid3::mc
