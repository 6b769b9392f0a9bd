#include "apps/ivdgl.h"

#include "workflow/vdc.h"

namespace grid3::apps {

namespace {
/// SnB's share of the job mix (the rest is GADU).
constexpr double kSnbFraction = 0.6;
/// The site the iVDGL submitters favoured.
constexpr const char* kFavoriteSite = "UWMAD_CS";
/// The SC2003 demonstration push spreads its jobs over this window.
constexpr Time kDemoBurstWindow = Time::hours(5);
}  // namespace

IvdglApps::IvdglApps(core::Grid3& grid, Options opts)
    : AppBase{grid, "ivdgl", core::app::kSnb},
      opts_{opts},
      // Bulk of jobs near the 1.22 h mean, with a 1% long tail out to
      // the 291.74 h Table 1 maximum.
      runtime_{util::Distribution::clamped(
          util::Distribution::mixture(
              {util::Distribution::lognormal_mean_cv(0.85, 1.3),
               util::Distribution::lognormal_mean_cv(40.0, 1.0)},
              {0.99, 0.01}),
          0.05, 291.0)},
      demo_runtime_{util::Distribution::clamped(
          util::Distribution::lognormal_mean_cv(4.5, 0.3), 2.0, 9.0)} {}

void IvdglApps::start() {
  if (launcher_) return;
  LaunchSchedule schedule;
  // November's steady-state rate leaves headroom for the SC2003 demo
  // burst (Scenario schedules it), which lands ~1250 more jobs that
  // month -- together hitting the Table 1 peak of 25722.
  schedule.monthly = {3000, 24450, 9000, 6000, 5500, 5000, 3900};
  schedule.monthly.resize(static_cast<std::size_t>(opts_.months), 3900.0);
  schedule.scale = opts_.job_scale * 1.07;  // completed-count compensation
  launcher_ = std::make_unique<PoissonLauncher>(
      sim(), schedule, [this] { launch_job(); }, rng().fork());
  launcher_->start();
}

void IvdglApps::stop() {
  if (launcher_) launcher_->stop();
}

bool IvdglApps::launch_job() {
  const std::uint64_t id = ++seq_;
  const bool snb = rng().chance(kSnbFraction);
  const std::string out = (snb ? "ivdgl/snb/trial-" : "ivdgl/gadu/blast-") +
                          std::to_string(id);

  workflow::VirtualDataCatalog vdc;
  vdc.add_transformation(
      {snb ? "snb-dual-space" : "gadu-pipeline", "1.0",
       snb ? core::app::kSnb : core::app::kGadu});
  vdc.add_derivation(
      {.id = "ivdgl-" + std::to_string(id),
       .transformation = snb ? "snb-dual-space" : "gadu-pipeline",
       .inputs = {},
       .outputs = {out},
       .runtime = Time::hours(runtime_.sample(rng())),
       .output_size = Bytes::mb(snb ? 20 : 80),
       .scratch = Bytes::mb(500)});
  auto dag = vdc.request({out});
  if (!dag.has_value()) return false;

  workflow::PlannerConfig cfg;
  cfg.vo = vo();
  cfg.walltime_slack = 1.5;
  // One dominant shared pool (Table 1: 88% of peak from one resource).
  cfg.site_preference = {{kFavoriteSite, 150.0}};
  return launch(*dag, cfg, {},
                snb ? core::app::kSnb : core::app::kGadu);
}

void IvdglApps::demo_burst(Time at, int jobs) {
  for (int i = 0; i < jobs; ++i) {
    const Time when = at + Time::seconds(kDemoBurstWindow.to_seconds() * i /
                                         std::max(jobs, 1));
    sim().schedule_at(when, [this] {
      const std::uint64_t id = ++seq_;
      const std::string out = "ivdgl/sc2003-demo/" + std::to_string(id);
      workflow::VirtualDataCatalog vdc;
      vdc.add_transformation({"snb-dual-space", "1.0", core::app::kSnb});
      vdc.add_derivation({.id = "demo-" + std::to_string(id),
                          .transformation = "snb-dual-space",
                          .inputs = {},
                          .outputs = {out},
                          .runtime =
                              Time::hours(demo_runtime_.sample(rng())),
                          .output_size = Bytes::mb(20),
                          .scratch = Bytes::mb(500)});
      auto dag = vdc.request({out});
      if (!dag.has_value()) return;
      workflow::PlannerConfig cfg;
      cfg.vo = vo();
      cfg.walltime_slack = 1.5;
      // The demo deliberately exercised the whole grid: no favorites.
      launch(*dag, cfg, {}, core::app::kSnb);
    });
  }
}

}  // namespace grid3::apps
