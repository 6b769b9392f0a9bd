// The iVDGL Grid Operations Center (paper sections 5, 5.4).
//
// "The iGOC hosted centralized services, including the Pacman cache, the
// top-level MDS index server, the Site Status Catalog, the MonALISA
// central repositories, and web services for Ganglia.  A simple trouble
// ticket system was used intermittently during the project."
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mds/giis.h"
#include "monitoring/acdc.h"
#include "monitoring/bus.h"
#include "monitoring/ganglia.h"
#include "monitoring/mdviewer.h"
#include "monitoring/monalisa.h"
#include "monitoring/site_catalog.h"
#include "pacman/package.h"
#include "util/units.h"

namespace grid3::core {

/// Trouble tickets: opened on operational incidents, closed on repair.
struct TroubleTicket {
  std::uint64_t id = 0;
  std::string site;
  std::string issue;
  Time opened;
  std::optional<Time> closed;
  [[nodiscard]] bool open() const { return !closed.has_value(); }
};

class TroubleTicketSystem {
 public:
  /// Returns the ticket id, or 0 while the queue is down (the incident
  /// goes unrecorded; close(0) is a safe no-op, so callers can hold the
  /// returned id blindly).
  std::uint64_t open(const std::string& site, const std::string& issue,
                     Time now);
  bool close(std::uint64_t id, Time now);

  /// "Used intermittently during the project": the queue itself goes
  /// down.  While down, open() drops the ticket (counted) -- operators
  /// flew blind, which is exactly the degradation the paper reports.
  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }
  /// Tickets dropped while the queue was down.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  [[nodiscard]] std::size_t open_count() const;
  [[nodiscard]] std::size_t total() const { return tickets_.size(); }
  [[nodiscard]] const std::vector<TroubleTicket>& tickets() const {
    return tickets_;
  }
  /// Mean time to resolution over closed tickets.
  [[nodiscard]] Time mean_resolution() const;

 private:
  std::vector<TroubleTicket> tickets_;
  std::uint64_t next_id_ = 1;
  bool up_ = true;
  std::size_t dropped_ = 0;
};

/// Central services bundle.  Owned by the Grid3 fabric; sites and VO
/// services register into it.
class Igoc {
 public:
  Igoc()
      : top_giis_{"igoc-top-giis", Time::minutes(10)},
        gmetad_{bus_},
        ml_repository_{bus_} {}

  [[nodiscard]] monitoring::MetricBus& bus() { return bus_; }
  [[nodiscard]] const monitoring::MetricBus& bus() const { return bus_; }
  [[nodiscard]] mds::Giis& top_giis() { return top_giis_; }
  [[nodiscard]] const mds::Giis& top_giis() const { return top_giis_; }
  [[nodiscard]] pacman::PackageCache& pacman_cache() { return pacman_cache_; }
  [[nodiscard]] const pacman::PackageCache& pacman_cache() const {
    return pacman_cache_;
  }
  [[nodiscard]] monitoring::SiteStatusCatalog& site_catalog() {
    return site_catalog_;
  }
  [[nodiscard]] monitoring::GangliaGmetad& gmetad() { return gmetad_; }
  [[nodiscard]] monitoring::MonalisaRepository& ml_repository() {
    return ml_repository_;
  }
  [[nodiscard]] monitoring::JobDatabase& job_db() { return job_db_; }
  [[nodiscard]] const monitoring::JobDatabase& job_db() const {
    return job_db_;
  }
  /// MDViewer over the iGOC's collectors.
  [[nodiscard]] monitoring::MdViewer viewer() const {
    return {job_db_, gmetad_, ml_repository_};
  }
  [[nodiscard]] TroubleTicketSystem& tickets() { return tickets_; }
  [[nodiscard]] const TroubleTicketSystem& tickets() const {
    return tickets_;
  }

 private:
  monitoring::MetricBus bus_;
  mds::Giis top_giis_;
  pacman::PackageCache pacman_cache_;
  monitoring::SiteStatusCatalog site_catalog_;
  monitoring::GangliaGmetad gmetad_;
  monitoring::MonalisaRepository ml_repository_;
  monitoring::JobDatabase job_db_;
  TroubleTicketSystem tickets_;
};

}  // namespace grid3::core
