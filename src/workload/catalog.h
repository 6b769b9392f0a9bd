// The scenario catalog: named, versioned production scenarios, each
// fully determined by (name, seed), and CatalogRun, the one front end
// that builds and runs a scenario.
//
// Every catalog entry bundles a fabric (seed, horizon, scales, roster
// replicas), a set of per-VO campaigns (CampaignSpec; empty for
// scenarios that replay the eight historical application
// demonstrators), and an operations calendar.  run_scenario() executes
// one entry under a named policy stack and returns the outcome plus a
// deterministic digest, so every future feature lands as a
// multi-workload result instead of a single-scenario anecdote --
// docs/SCENARIOS.md is the human-readable reference,
// bench/ablation_catalog the policy-stack comparison,
// bench/CATALOG_MANIFEST.json the determinism manifest CI gates on.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "monitoring/mdviewer.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "workload/campaign.h"
#include "workload/ops_calendar.h"

namespace grid3::workload {

struct ScenarioSpec {
  std::string name;
  int version = 1;
  std::string summary;
  /// What the scenario is built to stress (docs/SCENARIOS.md column).
  std::string stressor;
  std::uint64_t seed = 20031025;
  int months = 7;  ///< full-mode horizon: Oct 2003 .. Apr 2004
  /// Scale workload volumes (1.0 = the 291k-job accounting sample).
  double job_scale = 1.0;
  /// Scale site CPU counts (1.0 = the ~2800-CPU roster).
  double cpu_scale = 1.0;
  /// Fabric replication factor (see core::AssembleOptions): 1 = the
  /// historical 27-site roster, 10 = the "Grid30" 270-site fabric.
  int roster_replicas = 1;
  /// Quick-mode (GRID3_BENCH_QUICK) overrides: reduced horizon and a
  /// job-scale multiplier, same acceptance semantics.
  int quick_months = 1;
  double quick_job_scale = 1.0;
  /// Workload-generator campaigns.  Empty = the eight historical
  /// application demonstrators (paper section 4) drive the run.
  std::vector<CampaignSpec> campaigns;
  OpsCalendar calendar;
  /// Collective bundles the runner names as downtime targets (inert
  /// without calendar windows): "igoc-collective" or "<vo>-collective".
  std::vector<std::string> collective_bundles;

  /// Canonical multi-line rendering (determinism probe for tests).
  [[nodiscard]] std::string serialize() const;
};

struct Window {
  Time from;
  Time to;
};

/// SC2003 analysis window: 30 days from October 25, 2003 (Figures 2/3/5).
[[nodiscard]] Window sc2003_window();
/// Table 1 accounting window: Oct 23, 2003 - Apr 23, 2004.
[[nodiscard]] Window table1_window();
/// CMS 150-day window from November 2003 (Figure 4).
[[nodiscard]] Window cms150_window();

class ScenarioCatalog {
 public:
  /// Catalog entries in canonical order.
  [[nodiscard]] static const std::vector<std::string>& names();
  /// Build the named spec for a seed.  Throws std::out_of_range for an
  /// unknown name.
  [[nodiscard]] static ScenarioSpec get(const std::string& name,
                                        std::uint64_t seed);
};

/// A policy stack: the placement/resilience feature set a scenario runs
/// under.  The catalog comparison pits `modern_stack()` (queue-depth
/// broker + leases + breakers) against `legacy_stack()` (the paper's
/// favorite-sites status quo: no broker, no leases, no breakers).
struct StackConfig {
  std::string name = "modern";
  broker::PolicyKind policy = broker::PolicyKind::kQueueDepth;
  bool placement_leases = true;
  bool health_breakers = true;
};

[[nodiscard]] StackConfig modern_stack();
[[nodiscard]] StackConfig legacy_stack();

/// Outcome of one (scenario, stack) run.
struct RunResult {
  std::string scenario;
  std::string stack;
  std::size_t jobs = 0;       ///< accounted ACDC job records
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::uint64_t workflows = 0;  ///< campaign workflows launched
  std::size_t downtimes = 0;    ///< scheduled-maintenance windows fired
  std::size_t wan_events = 0;   ///< WAN-weather windows fired
  std::uint64_t events = 0;     ///< simulator events executed
  double wall_seconds = 0.0;
  std::string match_log;  ///< per-VO broker match logs, concatenated
  /// FNV-1a over the match logs + job outcome counters: equal digests
  /// certify byte-identical scheduling behavior for (name, seed,
  /// stack); recorded in bench/CATALOG_MANIFEST.json.
  std::string digest;
};

/// One scenario built and run under a policy stack: the only code that
/// assembles a scenario.  The constructor builds, in a fixed order that
/// the RNG streams depend on: the fabric, the stack's per-VO brokers and
/// placement ledgers, the eight historical demonstrator drivers when the
/// spec names no campaigns, the stack's health breakers, the collective
/// bundles, the campaign drivers, and the calendar.  start() arms the
/// section 7 CPU fluctuation and, for the demonstrators, the SC2003 demo
/// burst.  Drivers needing mid-run control (ablations that break things
/// at a chosen time) use this directly; run_scenario() is the one-shot
/// wrapper.
class CatalogRun {
 public:
  CatalogRun(const ScenarioSpec& spec, bool quick, const StackConfig& stack);
  ~CatalogRun();
  CatalogRun(const CatalogRun&) = delete;
  CatalogRun& operator=(const CatalogRun&) = delete;

  /// Start the fluctuation and every driver (idempotent).
  void start();
  void run_until(Time t);
  /// Run to the spec's effective horizon.
  void run();
  /// Collect counters, match logs, and the digest.
  [[nodiscard]] RunResult finish() const;

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] core::Grid3& grid() { return *grid_; }
  [[nodiscard]] monitoring::MdViewer viewer() const {
    return grid_->igoc().viewer();
  }
  /// Effective horizon and job scale (quick mode applied).
  [[nodiscard]] int months() const { return months_; }
  [[nodiscard]] double job_scale() const { return job_scale_; }
  /// The run itself: perfbench/campaign.cpp reads run.scenario().grid().
  [[nodiscard]] CatalogRun& scenario() { return *this; }

 private:
  struct Demonstrators;

  ScenarioSpec spec_;
  StackConfig stack_;
  int months_;
  double job_scale_;
  // Members are destroyed in reverse declaration order: the drivers
  // must go before the grid, and the grid before the simulation.
  sim::Simulation sim_;
  std::unique_ptr<core::Grid3> grid_;
  std::unique_ptr<Demonstrators> demonstrators_;  ///< null with campaigns
  std::unique_ptr<sim::PeriodicProcess> fluctuation_;
  std::vector<int> base_cpus_;
  util::Rng fluct_rng_;
  std::vector<std::unique_ptr<CampaignDriver>> drivers_;
  std::chrono::steady_clock::time_point wall_start_;
  bool started_ = false;
};

/// Execute one catalog entry under a policy stack.
[[nodiscard]] RunResult run_scenario(const ScenarioSpec& spec, bool quick,
                                     const StackConfig& stack);

}  // namespace grid3::workload
