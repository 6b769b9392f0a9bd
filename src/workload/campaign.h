// Multi-VO production-campaign generator (sections 4/6 workloads,
// generalized).
//
// Grid3's real load was not hand-built DAG snippets but months-long
// production campaigns: CMS assignment-based production with
// validation/merge phases, ATLAS flat Monte-Carlo batches, and
// opportunistic VOs backfilling with short jobs (hep-ex/0305099,
// cs/0305066).  A CampaignSpec describes one such campaign per VO --
// an arrival process with diurnal/burst structure, dataset-size
// distributions, and a DAG shape family -- and a CampaignGenerator
// expands it into a deterministic stream of workflow blueprints fully
// determined by (spec, seed).  The CampaignDriver replays that stream
// against a live fabric through the ordinary planner/DAGMan path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/appbase.h"
#include "sim/simulation.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/units.h"

namespace grid3::workload {

/// 64-bit FNV-1a, the digest primitive the scenario catalog uses for
/// determinism manifests (stable across platforms, no libc dependence).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s,
                                    std::uint64_t h = 0xcbf29ce484222325ULL);
/// Fixed-width lowercase-hex rendering of a digest.
[[nodiscard]] std::string digest_hex(std::uint64_t h);

/// Arrival process for one campaign: per-month launch targets (the
/// Figure 6 ramp idiom) modulated by a diurnal cycle and by burst
/// windows, realized through a seeded Lewis-Shedler thinning sampler.
struct ArrivalSpec {
  /// Target workflow launches in campaign month 0, 1, ...
  std::vector<double> monthly;
  double scale = 1.0;
  /// Diurnal modulation in [0, 1): rate(t) *= 1 + A * cos(2pi * (h -
  /// peak)/24).  0 = flat (automated submission); production operators
  /// submitted by day, so campaigns typically use 0.2 - 0.5.
  double diurnal_amplitude = 0.0;
  double diurnal_peak_hour = 14.0;
  /// Burst structure: per month, Poisson(bursts_per_month) windows of
  /// `burst_duration` during which the rate is multiplied by
  /// `burst_multiplier` (assignment pushes, pre-deadline crunches).
  double bursts_per_month = 0.0;
  double burst_multiplier = 1.0;
  Time burst_duration = Time::hours(6);

  /// Base (un-modulated) rate in launches/day at time t; 0 outside the
  /// schedule.
  [[nodiscard]] double base_rate_per_day(Time t) const;
  [[nodiscard]] int months() const {
    return static_cast<int>(monthly.size());
  }
};

/// Non-homogeneous Poisson arrivals via thinning: candidate gaps are
/// drawn at the envelope rate (max monthly rate x diurnal peak x burst
/// multiplier) and accepted with probability rate(t)/envelope.  The
/// stream is a pure function of (spec, rng seed): no simulation state
/// is consulted, so two samplers with equal inputs emit byte-identical
/// arrival sequences.
class ThinningSampler {
 public:
  ThinningSampler(ArrivalSpec spec, util::Rng rng);

  /// Next arrival strictly after `t`, or nullopt past the schedule end.
  [[nodiscard]] std::optional<Time> next(Time t);

  /// Instantaneous modulated rate (launches/day) at t -- exposed so
  /// tests can verify the sampler tracks its target.
  [[nodiscard]] double rate_per_day(Time t) const;
  /// The thinning envelope (launches/day).
  [[nodiscard]] double envelope_per_day() const { return envelope_; }
  /// Burst windows drawn at construction (sorted by start).
  [[nodiscard]] const std::vector<std::pair<Time, Time>>& bursts() const {
    return bursts_;
  }

 private:
  ArrivalSpec spec_;
  Time end_;
  double envelope_ = 0.0;
  std::vector<std::pair<Time, Time>> bursts_;
  util::Rng rng_;
};

/// DAG shape families the campaign papers describe.
enum class DagShape {
  /// CMS-style assignment: N parallel production jobs feeding a
  /// validation step, whose blessing feeds a merge step that archives.
  kAssignmentChain,
  /// Flat Monte-Carlo production: N independent jobs, no shared child.
  kFlatProduction,
  /// Opportunistic backfill: single short job per arrival.
  kBackfill,
};

[[nodiscard]] const char* to_string(DagShape s);

/// Shape + size distributions for the workflows one campaign emits.
struct ShapeSpec {
  DagShape shape = DagShape::kFlatProduction;
  /// Production-job fan-out per workflow (uniform in [min, max]).
  int width_min = 1;
  int width_max = 1;
  util::Distribution runtime_hours = util::Distribution::constant(1.0);
  util::Distribution output_gb = util::Distribution::constant(1.0);
  double scratch_gb = 2.0;
};

/// One per-VO production campaign.
struct CampaignSpec {
  std::string vo;
  /// Accounting label (ACDC app column) and ticket prefix.
  std::string app;
  /// Application package a site must publish to run this campaign's
  /// jobs (core::app constants; installed per Table 1 proportions).
  std::string required_app;
  std::string lfn_prefix;
  ArrivalSpec arrivals;
  ShapeSpec shape;
  // Planner knobs (workflow::PlannerConfig subset).
  std::string archive_site;
  std::vector<std::string> archive_fallbacks;
  std::map<std::string, double> site_preference;

  /// Canonical one-line rendering (determinism probe + catalog docs).
  [[nodiscard]] std::string serialize() const;
};

/// One job of a generated workflow; edges are implied by LFN
/// consumption, exactly as the Chimera VDC derives them.
struct JobBlueprint {
  std::string id;
  std::string transformation;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  double runtime_hours = 0.0;
  double output_gb = 0.0;
  double scratch_gb = 0.0;
};

/// One workflow arrival: a launch time plus the jobs to materialize.
struct WorkflowBlueprint {
  Time at;
  std::uint64_t seq = 0;
  std::vector<JobBlueprint> jobs;
  std::vector<std::string> targets;  ///< final LFNs requested of the VDC
};

/// Expands a CampaignSpec into its deterministic blueprint stream.
/// Consumes nothing but its own forked RNG: equal (spec, seed) pairs
/// yield byte-identical streams (tests/workload_test.cpp holds this).
class CampaignGenerator {
 public:
  CampaignGenerator(CampaignSpec spec, std::uint64_t seed);

  /// The next workflow, or nullopt once arrivals pass the schedule end.
  [[nodiscard]] std::optional<WorkflowBlueprint> next();

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  [[nodiscard]] ThinningSampler& sampler() { return sampler_; }

  /// Canonical text rendering of one blueprint (one line per job).
  [[nodiscard]] static std::string serialize(const WorkflowBlueprint& wf);

 private:
  CampaignSpec spec_;
  ThinningSampler sampler_;
  util::Rng shape_rng_;
  Time cursor_ = Time::zero();
  std::uint64_t seq_ = 0;
};

/// Replays a campaign's blueprint stream against a live fabric: each
/// arrival builds a Chimera VDC for the blueprint, plans it with the
/// campaign's planner knobs, and launches through DAGMan with the
/// ordinary AppBase accounting (ACDC records, transfer entries).
class CampaignDriver : public apps::AppBase {
 public:
  CampaignDriver(core::Grid3& grid, CampaignSpec spec, std::uint64_t seed);
  ~CampaignDriver() override;

  void start();
  void stop();

  [[nodiscard]] std::uint64_t launched() const { return launched_; }
  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }

 private:
  void arm();
  void launch_blueprint(const WorkflowBlueprint& wf);

  CampaignSpec spec_;
  CampaignGenerator gen_;
  sim::EventId pending_ = 0;
  bool running_ = false;
  std::uint64_t launched_ = 0;
};

}  // namespace grid3::workload
