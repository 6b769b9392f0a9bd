// Troubleshooting API (paper section 8, lessons learned):
//
//   "API for accessing troubleshooting and accounting information are
//    needed, particularly for the GRAM job submission and GridFTP file
//    transfer systems.  These APIs should provide direct information
//    without the necessity of parsing log files."
//   "Troubleshooting: ... the ability to link a job ID on the execution
//    side with a job ID at the submit (VO) side."
//
// This module is that API, built over the ACDC database: direct queries
// for job lookups by either identifier, failure-burst detection (the
// "all jobs submitted to a site would die" pattern of section 6.2), and
// correlation of bursts against the iGOC trouble-ticket ledger so an
// operator sees *which incident* explains a batch of dead jobs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "monitoring/acdc.h"
#include "util/units.h"

namespace grid3::monitoring {

/// A cluster of failures at one site within a short span.
struct FailureBurst {
  std::string site;
  Time from;
  Time to;
  std::size_t failures = 0;
  std::string dominant_class;
  /// Filled by correlate(): the ticket id explaining the burst, if any.
  std::optional<std::uint64_t> ticket;
};

/// Minimal view of an operations ticket for correlation (mirrors
/// core::TroubleTicket without a dependency on core).
struct IncidentWindow {
  std::uint64_t id = 0;
  std::string site;
  std::string issue;
  Time opened;
  Time closed;  ///< == Time::max() while still open
};

class Troubleshooter {
 public:
  explicit Troubleshooter(const JobDatabase& db) : db_{db} {}

  /// Link submit-side <-> execution-side identifiers (section 8).
  [[nodiscard]] const JobRecord* find_by_submit_id(
      const std::string& submit_id) const;
  [[nodiscard]] const JobRecord* find_by_gram_contact(
      const std::string& gram_contact) const;

  /// All failed records at a site in a window, newest first.
  [[nodiscard]] std::vector<const JobRecord*> failures_at(
      const std::string& site, Time from, Time to) const;

  /// Detect failure bursts: >= `min_failures` failures at one site with
  /// gaps of at most 6 hours between consecutive failures.
  [[nodiscard]] std::vector<FailureBurst> find_bursts(
      Time from, Time to, std::size_t min_failures = 5) const;

  /// Attribute bursts to incidents: a burst is explained by a ticket at
  /// the same site whose [opened, closed] window, widened by 2 hours on
  /// both ends, overlaps the burst.  Returns bursts with their `ticket`
  /// field filled where a match exists.
  [[nodiscard]] static std::vector<FailureBurst> correlate(
      std::vector<FailureBurst> bursts,
      const std::vector<IncidentWindow>& incidents);

  /// Failure-class leaderboard over a window (the "direct information
  /// without parsing log files" query).
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>>
  top_failure_classes(Time from, Time to, std::size_t limit = 10) const;

 private:
  const JobDatabase& db_;
};

}  // namespace grid3::monitoring
