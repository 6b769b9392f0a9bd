// The scenario catalog: named, versioned production scenarios, each
// fully determined by (name, seed).
//
// Every catalog entry bundles a fabric configuration
// (apps::ScenarioOptions), a set of per-VO campaigns (CampaignSpec;
// empty for scenarios that replay the historical application
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

#include "apps/scenario.h"
#include "broker/rank_policy.h"
#include "workload/campaign.h"
#include "workload/ops_calendar.h"

namespace grid3::workload {

struct ScenarioSpec {
  std::string name;
  int version = 1;
  std::string summary;
  /// What the scenario is built to stress (docs/SCENARIOS.md column).
  std::string stressor;
  /// Full-mode fabric + horizon options (seed already applied).  The
  /// broker/kernel fields are defaults only; a policy stack overrides
  /// them (see StackConfig).
  apps::ScenarioOptions base;
  /// Quick-mode (GRID3_BENCH_QUICK) overrides: reduced horizon and a
  /// job-scale multiplier, same acceptance semantics.
  int quick_months = 1;
  double quick_job_scale = 1.0;
  /// Workload-generator campaigns (empty = the historical app mix).
  std::vector<CampaignSpec> campaigns;
  OpsCalendar calendar;
  /// Collective bundles the runner arms (zero rates -- inert without
  /// calendar windows): "igoc-collective" or "<vo>-collective".
  std::vector<std::string> collective_bundles;

  /// Effective options for a full or quick run.
  [[nodiscard]] apps::ScenarioOptions options(bool quick) const;
  /// Canonical multi-line rendering (determinism probe for tests).
  [[nodiscard]] std::string serialize() const;
};

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

/// One catalog entry materialized against a live fabric: simulation,
/// scenario (fabric + historical apps when the spec keeps them),
/// campaign drivers, armed collective bundles, and the compiled
/// calendar.  Drivers needing mid-run control (ablations that break
/// things at a chosen time) use this directly; run_scenario() is the
/// one-shot wrapper.
class CatalogRun {
 public:
  CatalogRun(const ScenarioSpec& spec, bool quick, const StackConfig& stack);
  ~CatalogRun();
  CatalogRun(const CatalogRun&) = delete;
  CatalogRun& operator=(const CatalogRun&) = delete;

  /// Start the scenario and every campaign driver (idempotent).
  void start();
  void run_until(Time t);
  /// Run to the spec's effective horizon.
  void run();
  /// Collect counters, match logs, and the digest.
  [[nodiscard]] RunResult finish() const;

  [[nodiscard]] sim::Simulation& sim() { return *sim_; }
  [[nodiscard]] apps::Scenario& scenario() { return *scenario_; }
  [[nodiscard]] const apps::ScenarioOptions& options() const { return opts_; }

 private:
  ScenarioSpec spec_;
  StackConfig stack_;
  apps::ScenarioOptions opts_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<apps::Scenario> scenario_;
  std::vector<std::unique_ptr<CampaignDriver>> drivers_;
  std::chrono::steady_clock::time_point wall_start_;
  bool started_ = false;
};

/// Execute one catalog entry under a policy stack.
[[nodiscard]] RunResult run_scenario(const ScenarioSpec& spec, bool quick,
                                     const StackConfig& stack);

}  // namespace grid3::workload
