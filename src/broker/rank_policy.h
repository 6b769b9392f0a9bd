// Pluggable site-ranking strategies for the resource broker.
//
// Each policy scores an eligible site for a job; the broker selects
// either by weighted draw (stochastic policies, reproducing the
// planner's favorite-site behaviour) or deterministic argmax.  The
// policies encode the ablation axes of the brokered-vs-favorite-sites
// experiment:
//   * FavoriteSitesPolicy  -- the paper's status quo: static VO weights;
//   * QueueDepthPolicy     -- prefer free CPUs, avoid deep LRMS queues;
//   * DataLocalityPolicy   -- queue-aware, boosted where replicas of the
//                             job's inputs already live (RLS lookup);
//   * LoadSheddingPolicy   -- queue-aware, sheds sites whose gatekeeper
//                             1-minute load nears the section 6.4 knee.
#pragma once

#include <memory>
#include <string>

#include "broker/job_spec.h"
#include "core/ids.h"
#include "mds/giis.h"
#include "util/units.h"

namespace grid3::gram {
class Gatekeeper;
}  // namespace grid3::gram

namespace grid3::broker {

/// The broker's cached picture of one site, assembled from the MDS GIIS
/// snapshot plus MonALISA/Ganglia load metrics.
struct SiteView {
  std::string site;
  /// Interned id in the broker's site registry (stable registration
  /// order across view refreshes; hot paths index by this, never by
  /// the name).
  core::SiteId id;
  /// Gatekeeper resolved at view-refresh time.  A site's gatekeeper is
  /// built before its GRIS is registered, so every site the GIIS shows
  /// has one; null (a GRIS with no gatekeeper behind it) is never
  /// matched.
  gram::Gatekeeper* gk = nullptr;
  bool fresh = false;        ///< GIIS snapshot within TTL
  int total_cpus = 0;
  int free_cpus = 0;
  int running_jobs = 0;
  int waiting_jobs = 0;      ///< LRMS queue depth
  Time max_walltime = Time::max();
  bool outbound = false;
  double se_free_gb = 0.0;   ///< storage-element headroom
  /// SE drain rate (GB freed per hour, e.g. tape migration emptying the
  /// archive) published by the site between monitor samples: lets the
  /// broker tell a temporarily-full archive from a structurally-full one.
  double se_drain_gb_per_hour = 0.0;
  double gatekeeper_load = 0.0;  ///< MonALISA 1-min gauge (0 = unknown)
  mds::SiteSnapshot snapshot;    ///< full GLUE attributes
};

class RankPolicy {
 public:
  virtual ~RankPolicy() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Score a candidate site for a job; higher is better.  Non-positive
  /// scores mark a site as last-resort (still usable when nothing else
  /// is).
  [[nodiscard]] virtual double score(const JobSpec& job, const SiteView& site,
                                     Time now) const = 0;
  /// Stochastic policies are sampled by score weight (the status-quo
  /// behaviour); deterministic policies take the argmax.
  [[nodiscard]] virtual bool stochastic() const { return false; }
};

/// Status quo: static favorite-site weights, weighted-random draw.
class FavoriteSitesPolicy final : public RankPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "favorite-sites"; }
  [[nodiscard]] double score(const JobSpec& job, const SiteView& site,
                             Time now) const override;
  [[nodiscard]] bool stochastic() const override { return true; }
};

/// Load-aware: free CPUs up, queue depth down.
class QueueDepthPolicy final : public RankPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "queue-depth"; }
  [[nodiscard]] double score(const JobSpec& job, const SiteView& site,
                             Time now) const override;
};

/// Queue-aware with a multiplicative boost per input LFN already
/// replicated at the site.
class DataLocalityPolicy final : public RankPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "data-locality"; }
  [[nodiscard]] double score(const JobSpec& job, const SiteView& site,
                             Time now) const override;
};

/// Queue-aware with headroom scaling that drops to zero as the
/// gatekeeper 1-minute load approaches the shed threshold (kept below
/// the gatekeeper's overload knee).
class LoadSheddingPolicy final : public RankPolicy {
 public:
  /// Gatekeeper 1-minute load at which a site's score reaches zero.
  static constexpr double kShedThreshold = 300.0;

  [[nodiscard]] const char* name() const override { return "load-shedding"; }
  [[nodiscard]] double score(const JobSpec& job, const SiteView& site,
                             Time now) const override;
};

/// Policy selection for scenario/bench configuration.
enum class PolicyKind {
  kNone,  ///< no broker: the planner's static favorite-site path
  kFavoriteSites,
  kQueueDepth,
  kDataLocality,
  kLoadShedding,
};

[[nodiscard]] const char* to_string(PolicyKind k);
/// Factory; returns nullptr for kNone.
[[nodiscard]] std::unique_ptr<RankPolicy> make_policy(PolicyKind k);

}  // namespace grid3::broker
