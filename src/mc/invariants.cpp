#include "mc/invariants.h"

#include <string_view>

#include "broker/broker.h"
#include "health/health.h"
#include "placement/ledger.h"
#include "rls/rls.h"

namespace grid3::mc {

LeaseAuditInvariant::LeaseAuditInvariant(placement::PlacementLedger& ledger)
    : ledger_{ledger} {
  ledger_.set_audit([this](placement::LeaseId id, const char* event) {
    const bool stale = std::string_view{event}.find("stale") !=
                       std::string_view::npos;
    if (stale && stale_.empty()) {
      stale_ = std::string{event} + " on lease " + std::to_string(id);
    }
  });
}

std::optional<std::string> LeaseAuditInvariant::check(bool quiescent) {
  if (!stale_.empty()) {
    return "lease lifecycle violated: " + stale_ +
           " (a release/consume hit an id that is no longer active -- "
           "double release or use-after-release)";
  }
  if (quiescent && ledger_.active() != 0) {
    return "leaked leases at quiescence: " +
           std::to_string(ledger_.active()) + " still active holding " +
           std::to_string(ledger_.leased_bytes().to_gb()) + " GB";
  }
  return std::nullopt;
}

GangLeaseInvariant::GangLeaseInvariant(broker::ResourceBroker& broker,
                                       placement::PlacementLedger& ledger)
    : broker_{broker}, ledger_{ledger} {}

std::optional<std::string> GangLeaseInvariant::check(bool quiescent) {
  for (const placement::LeaseId id : broker_.live_gang_leases()) {
    if (ledger_.find(id) == nullptr) {
      return "gang points at lease " + std::to_string(id) +
             " that is no longer active in the ledger";
    }
  }
  if (quiescent) {
    if (!broker_.live_gang_leases().empty()) {
      return "gang lease stranded at quiescence (no member resolution or "
             "quarantine trip released it)";
    }
    for (const auto& [id, lease] : ledger_.active_leases()) {
      if (lease.app.rfind("gang:", 0) == 0) {
        return "gang lease " + std::to_string(id) + " (" + lease.app +
               ") still active at quiescence";
      }
    }
  }
  return std::nullopt;
}

BreakerInvariant::BreakerInvariant(health::SiteHealthMonitor& health)
    : health_{health} {}

std::optional<std::string> BreakerInvariant::check(bool quiescent) {
  for (const std::string& site : health_.sites()) {
    const health::BreakerState state = health_.state(site);
    const bool excluded = health_.quarantined(site);
    if (state != health::BreakerState::kClosed && !excluded) {
      return "site " + site + " breaker " + health::to_string(state) +
             " but matchable";
    }
    if (state == health::BreakerState::kClosed && excluded) {
      return "site " + site + " breaker closed but still excluded";
    }
    if (quiescent && excluded) {
      return "site " + site +
             " still quarantined at quiescence: the breaker lost it (no "
             "half-open probe or readmission ever fired)";
    }
  }
  return std::nullopt;
}

JournalInvariant::JournalInvariant(rls::ReplicaLocationService& rls)
    : rls_{rls} {
  rls_.journal().set_audit(
      [this](const rls::JournalEntry& e, const char* event) {
        const std::string_view ev{event};
        if (ev != "apply" && ev != "replay") return;
        if (++applies_[e.id] > 1 && double_apply_.empty()) {
          double_apply_ = "entry " + std::to_string(e.id) + " (" + e.site +
                          "/" + e.lfn + ") applied again via \"" +
                          std::string{ev} + "\"";
        }
      });
}

std::optional<std::string> JournalInvariant::check(bool quiescent) {
  if (!double_apply_.empty()) {
    return "journal exactly-once violated: " + double_apply_;
  }
  if (!quiescent || !rls_.available()) return std::nullopt;
  for (const rls::JournalEntry& e : rls_.journal().entries()) {
    const rls::LocalReplicaCatalog* lrc = rls_.find_lrc(e.site);
    if (!e.applied && lrc != nullptr && lrc->available()) {
      return "journal entry " + std::to_string(e.id) + " (" + e.site + "/" +
             e.lfn + ") still pending at quiescence with endpoint and "
             "LRC reachable (no replay ever drained it)";
    }
    if (e.applied && (lrc == nullptr || !lrc->has(e.lfn))) {
      return "registration lost: journaled " + e.site + "/" + e.lfn +
             " marked applied but absent from its authoritative LRC";
    }
  }
  return std::nullopt;
}

MatchQuarantineInvariant::MatchQuarantineInvariant(
    broker::ResourceBroker& broker, health::SiteHealthMonitor& health)
    : broker_{broker}, health_{health} {}

std::optional<std::string> MatchQuarantineInvariant::check(bool quiescent) {
  (void)quiescent;
  const auto& log = broker_.match_log();
  for (; seen_ < log.size(); ++seen_) {
    // The decision was made during the transition just executed, so the
    // breaker state it was made under is the state we see now.
    if (health_.quarantined(log[seen_].site)) {
      return "match #" + std::to_string(log[seen_].seq) + " bound " +
             log[seen_].vo + "/" + log[seen_].app + " to " + log[seen_].site +
             " while the site is quarantined";
    }
  }
  return std::nullopt;
}

}  // namespace grid3::mc
