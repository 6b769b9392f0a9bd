// ACDC Job Monitor: pull-based job accounting (paper section 5.2).
//
// "collects information from local job managers using a typical
// pull-based model.  Statistics and job metrics are collected and stored
// in a web-visible database, available for aggregated queries and
// browsing."  Table 1 is computed from exactly this database, so its
// query surface mirrors the table's columns.  It holds what the paper's
// ACDC held: job records and the transfers Figure 5 reads.  Placement
// leases, breaker trips and gang matches are kept by the layers that
// decide them (placement::PlacementLedger, health::SiteHealthMonitor,
// broker::ResourceBroker).
#pragma once

#include <map>
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

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const std::vector<JobRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const std::vector<TransferEntry>& transfers() const {
    return transfers_;
  }

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
};

}  // namespace grid3::monitoring
