#include "broker/rank_policy.h"

#include <algorithm>

#include "rls/rls.h"

namespace grid3::broker {

double FavoriteSitesPolicy::score(const JobSpec& job, const SiteView& site,
                                  Time /*now*/) const {
  auto it = job.site_preference.find(site.site);
  return it == job.site_preference.end() ? 1.0 : it->second;
}

namespace {

/// DataLocalityPolicy's score boost per input LFN replicated at the site.
constexpr double kLocalityWeight = 2.0;

/// Shared load term: free slots attract, LRMS queue depth repels.
double queue_pressure_score(const SiteView& site) {
  return (static_cast<double>(site.free_cpus) + 1.0) /
         (1.0 + static_cast<double>(site.waiting_jobs));
}

}  // namespace

double QueueDepthPolicy::score(const JobSpec& /*job*/, const SiteView& site,
                               Time /*now*/) const {
  return queue_pressure_score(site);
}

double DataLocalityPolicy::score(const JobSpec& job, const SiteView& site,
                                 Time now) const {
  double local_inputs = 0.0;
  if (job.rls != nullptr) {
    for (const std::string& lfn : job.data_inputs) {
      // Membership probe, not locate(): scoring V sites x K inputs per
      // match must not materialise V*K replica lists.
      if (job.rls->has_replica_at(lfn, site.site, now)) {
        local_inputs += 1.0;
      }
    }
  }
  return queue_pressure_score(site) * (1.0 + kLocalityWeight * local_inputs);
}

double LoadSheddingPolicy::score(const JobSpec& /*job*/, const SiteView& site,
                                 Time /*now*/) const {
  const double headroom =
      std::max(0.0, 1.0 - site.gatekeeper_load / kShedThreshold);
  return headroom * queue_pressure_score(site);
}

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kNone: return "none";
    case PolicyKind::kFavoriteSites: return "favorite-sites";
    case PolicyKind::kQueueDepth: return "queue-depth";
    case PolicyKind::kDataLocality: return "data-locality";
    case PolicyKind::kLoadShedding: return "load-shedding";
  }
  return "?";
}

std::unique_ptr<RankPolicy> make_policy(PolicyKind k) {
  switch (k) {
    case PolicyKind::kNone: return nullptr;
    case PolicyKind::kFavoriteSites:
      return std::make_unique<FavoriteSitesPolicy>();
    case PolicyKind::kQueueDepth: return std::make_unique<QueueDepthPolicy>();
    case PolicyKind::kDataLocality:
      return std::make_unique<DataLocalityPolicy>();
    case PolicyKind::kLoadShedding:
      return std::make_unique<LoadSheddingPolicy>();
  }
  return nullptr;
}

}  // namespace grid3::broker
