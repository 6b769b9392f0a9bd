#include "apps/sdss.h"

#include "util/calendar.h"
#include "workflow/vdc.h"

namespace grid3::apps {

namespace {
/// The archive holding the survey segments and the co-added output.
constexpr const char* kArchiveSite = "FNAL_SDSS";
/// Parallel chains per workflow x steps per chain (25 jobs/workflow).
constexpr int kChains = 5;
constexpr int kStepsPerChain = 5;
}  // namespace

SdssCoadd::SdssCoadd(core::Grid3& grid, Options opts)
    : AppBase{grid, "sdss", core::app::kSdssCoadd},
      opts_{opts},
      // ~1.46 h mean with a 1% long tail toward the 152.9 h maximum.
      step_runtime_{util::Distribution::clamped(
          util::Distribution::mixture(
              {util::Distribution::lognormal_mean_cv(1.1, 1.2),
               util::Distribution::lognormal_mean_cv(35.0, 1.0)},
              {0.99, 0.01}),
          0.05, 152.0)} {}

void SdssCoadd::register_survey_segments(int count) {
  auto* catalog = grid().rls(vo());
  for (int i = 0; i < count; ++i) {
    const std::string lfn = "sdss/dr2/segment-" + std::to_string(segments_++);
    catalog->register_replica(
        kArchiveSite, lfn,
        {std::string{"gsiftp://"} + kArchiveSite + "/" + lfn, Bytes::mb(500),
         sim().now()},
        sim().now());
  }
}

void SdssCoadd::start() {
  if (launcher_) return;
  const double per_wf =
      static_cast<double>(kChains * kStepsPerChain);
  // Jobs per month / jobs per workflow; SDSS peaked in February 2004.
  LaunchSchedule schedule;
  schedule.monthly = {200 / per_wf, 800 / per_wf,  600 / per_wf,
                      700 / per_wf, 1564 / per_wf, 900 / per_wf,
                      650 / per_wf};
  schedule.monthly.resize(static_cast<std::size_t>(opts_.months),
                          650 / per_wf);
  schedule.scale = opts_.job_scale * 1.07;  // completed-count compensation
  launcher_ = std::make_unique<PoissonLauncher>(
      sim(), schedule, [this] { launch_workflow(); }, rng().fork());
  launcher_->start();
}

void SdssCoadd::stop() {
  if (launcher_) launcher_->stop();
}

bool SdssCoadd::launch_workflow() {
  const std::uint64_t id = ++seq_;
  if (segments_ == 0) register_survey_segments(4);
  const std::string seg =
      "sdss/dr2/segment-" +
      std::to_string(rng().uniform_int(0, segments_ - 1));

  workflow::VirtualDataCatalog vdc;
  vdc.add_transformation({"brg-search", "1.2", core::app::kSdssCoadd});
  std::vector<std::string> targets;
  for (int c = 0; c < kChains; ++c) {
    std::string prev = seg;  // chain head stages the survey segment
    for (int s = 0; s < kStepsPerChain; ++s) {
      const std::string out = "sdss/run-" + std::to_string(id) + "/c" +
                              std::to_string(c) + "-s" + std::to_string(s);
      vdc.add_derivation(
          {.id = "sdss-" + std::to_string(id) + "-" + std::to_string(c) +
                 "-" + std::to_string(s),
           .transformation = "brg-search",
           .inputs = {prev},
           .outputs = {out},
           .runtime = Time::hours(step_runtime_.sample(rng())),
           .output_size = Bytes::mb(100),
           .scratch = Bytes::gb(1.0)});
      prev = out;
    }
    targets.push_back(prev);
  }
  auto dag = vdc.request(targets);
  if (!dag.has_value()) return false;

  workflow::PlannerConfig cfg;
  cfg.vo = vo();
  cfg.archive_site = kArchiveSite;
  cfg.walltime_slack = 1.5;
  cfg.locality = 0.9;  // chains stay put; cutout data is heavy to move
  // Monthly production campaign: each month targets a rotating set of
  // ~4 resources (Table 1: only 4 sites produced in SDSS's peak month),
  // with the Fermilab archive cluster always dominant.
  cfg.site_preference = {{"FNAL_SDSS", 60.0}, {"JHU_SDSS", 12.0}};
  const auto campaign_sites =
      core::application_sites(core::app::kSdssCoadd, core::grid3_roster());
  const int month = std::max(0, util::month_index_at(sim().now()));
  for (int k = 0; k < 2; ++k) {
    const auto idx = static_cast<std::size_t>(month * 2 + k) %
                     campaign_sites.size();
    cfg.site_preference.emplace(campaign_sites[idx], 8.0);
  }
  return launch(*dag, cfg);
}

}  // namespace grid3::apps
