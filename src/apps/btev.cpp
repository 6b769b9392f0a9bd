#include "apps/btev.h"

#include "workflow/vdc.h"

namespace grid3::apps {

namespace {
/// Events per second of runtime: 1 event / 15 s on a 2 GHz node.
constexpr double kEventsPerSecond = 1.0 / 15.0;
}  // namespace

BtevSim::BtevSim(core::Grid3& grid, Options opts)
    : AppBase{grid, "btev", core::app::kBtevSim},
      opts_{opts},
      runtime_{util::Distribution::clamped(
          util::Distribution::mixture(
              {util::Distribution::lognormal_mean_cv(1.45, 1.5),
               util::Distribution::lognormal_mean_cv(30.0, 1.0)},
              {0.99, 0.01}),
          0.05, 118.3)} {}

void BtevSim::start() {
  if (launcher_) return;
  LaunchSchedule schedule;
  schedule.monthly = {50, 2377, 80, 40, 25, 15, 10};
  schedule.monthly.resize(static_cast<std::size_t>(opts_.months), 10.0);
  schedule.scale = opts_.job_scale * 1.08;  // completed-count compensation
  launcher_ = std::make_unique<PoissonLauncher>(
      sim(), schedule, [this] { launch_job(); }, rng().fork());
  launcher_->start();
}

void BtevSim::stop() {
  if (launcher_) launcher_->stop();
}

bool BtevSim::launch_job() {
  return submit_generation(Time::hours(runtime_.sample(rng())));
}

bool BtevSim::run_challenge(int jobs, double hours) {
  bool ok = true;
  for (int i = 0; i < jobs; ++i) {
    ok = submit_generation(Time::hours(hours)) && ok;
  }
  return ok;
}

bool BtevSim::submit_generation(Time runtime) {
  const std::uint64_t id = ++seq_;
  const std::string out = "btev/mcgen/" + std::to_string(id);

  workflow::VirtualDataCatalog vdc;
  vdc.add_transformation({"btevgen", "mcfast", core::app::kBtevSim});
  vdc.add_derivation({.id = "btev-" + std::to_string(id),
                      .transformation = "btevgen",
                      .inputs = {},
                      .outputs = {out},
                      .runtime = runtime,
                      .output_size = Bytes::mb(300),
                      .scratch = Bytes::gb(1.0)});
  auto dag = vdc.request({out});
  if (!dag.has_value()) return false;

  workflow::PlannerConfig cfg;
  cfg.vo = vo();
  cfg.walltime_slack = 1.4;
  cfg.site_preference = {{"VU_BTEV", 12.0}};
  const bool ok = launch(*dag, cfg, [this, runtime](
                                        const workflow::DagRunStats& s) {
    if (s.success) {
      events_ += runtime.to_seconds() * kEventsPerSecond;
    }
  });
  return ok;
}

}  // namespace grid3::apps
