// ACDC Job Monitor: pull-based job accounting (paper section 5.2).
//
// "collects information from local job managers using a typical
// pull-based model.  Statistics and job metrics are collected and stored
// in a web-visible database, available for aggregated queries and
// browsing."  Table 1 is computed from exactly this database, so its
// query surface mirrors the table's columns.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/calendar.h"
#include "util/units.h"

namespace grid3::monitoring {

/// One completed (or failed) grid job as accounted by ACDC.
struct JobRecord {
  std::string vo;        ///< user classification (Table 1 columns)
  std::string user_dn;
  std::string site;      ///< execution resource
  std::string app;       ///< application demonstrator name
  Time submitted;
  Time started;
  Time finished;
  bool success = false;
  bool site_problem = false;  ///< failure attribution (section 6.1)
  std::string failure;        ///< failure class when !success
  /// Submit-side identifier (VO/app/sequence) and execution-side GRAM
  /// contact -- the ID linkage section 8's troubleshooting lesson asks
  /// for.
  std::string submit_id;
  std::string gram_contact;

  [[nodiscard]] Time runtime() const { return finished - started; }
};

/// One stage-out lease lifecycle event, mirrored from the placement
/// ledger: how often output space was secured at match time, archived,
/// given back on failure paths, or refused because the destination SE
/// was full (the disk-full failure that never reached a gatekeeper).
struct LeaseRecord {
  std::uint64_t lease = 0;
  Time at;
  std::string vo;
  std::string app;
  std::string dest_site;
  std::string event;  ///< "acquire" | "consume" | "release" | "reject"
  Bytes size;
  std::string completion_site;  ///< set on "consume"
  /// Failover-chain hops taken before `dest_site` accepted (0 = the
  /// primary SE took the lease; on "reject", hops burned before the
  /// whole chain refused).
  int hop = 0;
};

/// One gang-matching decision, mirrored from the broker: a whole DAG
/// level bound as a unit (or split across sites when nothing could host
/// it whole).  Lets placement analysis separate level-co-location from
/// per-job scatter.
struct GangRecord {
  std::uint64_t seq = 0;
  Time at;
  std::string vo;
  std::string gang_id;
  std::string primary;  ///< site hosting the largest member share
  std::size_t width = 0;  ///< gang member count
  bool placed = false;    ///< at least one member got a site
  bool split = false;     ///< the gang did not fit whole
  Bytes intermediates;    ///< level-aggregate intermediate bytes
};

/// One site-health circuit-breaker event, mirrored from the health
/// monitor: trips into quarantine, probation probes, and re-admissions.
/// Lets operations queries line breaker activity up against the job and
/// ticket records it reacted to.
struct BreakerRecord {
  std::uint64_t seq = 0;
  Time at;
  std::string site;
  std::string event;    ///< "trip" | "half-open" | "probe-ok" |
                        ///< "probe-fail" | "readmit"
  std::string service;  ///< service class that tripped it ("" otherwise)
  double score = 0.0;   ///< EWMA failure score at the event
};

/// Per-site transfer accounting feeding Figure 5.
struct TransferEntry {
  std::string src_site;
  std::string dst_site;
  std::string vo;  ///< VO responsible for the transfer
  Bytes size;
  Time finished;
  bool demo = false;  ///< true for the GridFTP demonstrator's traffic
};

/// Aggregated per-VO statistics: one Table 1 column.
struct VoJobStats {
  std::string vo;
  std::size_t users = 0;
  std::size_t sites_used = 0;
  std::size_t jobs = 0;
  double avg_runtime_hours = 0.0;
  double max_runtime_hours = 0.0;
  double total_cpu_days = 0.0;
  std::size_t peak_rate_jobs_per_month = 0;
  std::size_t peak_resources = 0;  ///< distinct sites in the peak month
  std::size_t max_single_resource_jobs = 0;
  double max_single_resource_percent = 0.0;
  std::string peak_month;  ///< "MM-YYYY"
  double peak_cpu_days = 0.0;
};

class JobDatabase {
 public:
  void insert(JobRecord record);
  void insert_transfer(TransferEntry entry);
  void insert_lease(LeaseRecord lease);
  void insert_gang(GangRecord gang);
  void insert_breaker(BreakerRecord breaker);

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const std::vector<JobRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const std::vector<TransferEntry>& transfers() const {
    return transfers_;
  }
  [[nodiscard]] const std::vector<LeaseRecord>& leases() const {
    return leases_;
  }
  [[nodiscard]] const std::vector<GangRecord>& gangs() const {
    return gangs_;
  }
  [[nodiscard]] const std::vector<BreakerRecord>& breakers() const {
    return breakers_;
  }

  /// Total failover-chain hops across "acquire" lease events in the
  /// window, all VOs: how often placement had to route around a
  /// full/quarantined/unreachable SE to land a lease.
  [[nodiscard]] std::size_t lease_fallthrough_hops(Time from, Time to) const;

  /// Gang-matching balance over a window, all VOs: how many levels were
  /// placed whole, split, or left unplaced.
  struct GangSummary {
    std::size_t gangs = 0;
    std::size_t whole = 0;
    std::size_t split = 0;
    std::size_t unplaced = 0;
    std::size_t members = 0;  ///< total member jobs across gangs
  };
  [[nodiscard]] GangSummary gang_events(Time from, Time to) const;

  /// Circuit-breaker activity over a window (empty site = all sites):
  /// event -> count (trip, half-open, probe-ok, probe-fail, readmit).
  [[nodiscard]] std::map<std::string, std::size_t> breaker_events(
      Time from, Time to, const std::string& site = {}) const;

  /// Completed production jobs for one VO in [from, to): the Table 1
  /// population ("based on completed production jobs").
  [[nodiscard]] std::vector<const JobRecord*> completed(
      const std::string& vo, Time from, Time to) const;

  /// Table 1 column for one VO over a window.
  [[nodiscard]] VoJobStats stats_for(const std::string& vo, Time from,
                                     Time to) const;

  /// All VOs that appear in the records.
  [[nodiscard]] std::vector<std::string> vos() const;

  /// Jobs per month-index (Figure 6).  `months` entries from the epoch.
  [[nodiscard]] std::vector<std::size_t> jobs_by_month(int months) const;

  /// Failure analysis over a window: (total, failed, failed_site_problem).
  struct FailureSummary {
    std::size_t total = 0;
    std::size_t failed = 0;
    std::size_t site_problem = 0;
    std::map<std::string, std::size_t> by_class;
    [[nodiscard]] double failure_rate() const {
      return total > 0 ? static_cast<double>(failed) /
                             static_cast<double>(total)
                       : 0.0;
    }
    [[nodiscard]] double site_problem_share() const {
      return failed > 0 ? static_cast<double>(site_problem) /
                              static_cast<double>(failed)
                        : 0.0;
    }
  };
  [[nodiscard]] FailureSummary failures(const std::string& vo, Time from,
                                        Time to) const;

  /// Bytes consumed (received) per VO in a window (Figure 5), split into
  /// (total, demonstrator-only).
  [[nodiscard]] std::map<std::string, std::pair<Bytes, Bytes>>
  bytes_consumed_by_vo(Time from, Time to) const;

  /// Bytes consumed per destination site for one VO ("data consumed by
  /// Grid3 sites").
  [[nodiscard]] std::map<std::string, Bytes> bytes_consumed_by_site(
      Time from, Time to) const;

 private:
  std::vector<JobRecord> records_;
  std::vector<TransferEntry> transfers_;
  std::vector<LeaseRecord> leases_;
  std::vector<GangRecord> gangs_;
  std::vector<BreakerRecord> breakers_;
};

}  // namespace grid3::monitoring
