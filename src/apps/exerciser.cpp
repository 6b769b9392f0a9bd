#include "apps/exerciser.h"

#include "util/calendar.h"

namespace grid3::apps {

CondorExerciser::CondorExerciser(core::Grid3& grid, Options opts)
    : AppBase{grid, "ivdgl", core::app::kExerciser, "exerciser"},
      opts_{opts},
      sites_{core::application_sites(core::app::kExerciser,
                                     core::grid3_roster())},
      // Probes average 0.13 h overall; December 2003's rapid-fire
      // campaign ran ~1-minute probes (Table 1: 72224 jobs yet only
      // 51.78 CPU-days that month).  A rare tail reaches the 36.45 h
      // maximum (wedged batch systems held probes for hours).
      runtime_{util::Distribution::clamped(
          util::Distribution::mixture(
              {util::Distribution::lognormal_mean_cv(0.155, 1.0),
               util::Distribution::lognormal_mean_cv(6.0, 1.0)},
              {0.995, 0.005}),
          0.02, 36.4)},
      december_runtime_{util::Distribution::clamped(
          util::Distribution::lognormal_mean_cv(0.016, 0.6), 0.005, 0.2)} {}

void CondorExerciser::start() {
  if (launcher_) return;
  LaunchSchedule schedule;
  schedule.monthly = {6000, 20000, 72224, 30000, 26000, 26000, 18000};
  schedule.monthly.resize(static_cast<std::size_t>(opts_.months), 18000.0);
  schedule.scale = opts_.job_scale * 1.17;  // completed-count compensation
  launcher_ = std::make_unique<PoissonLauncher>(
      sim(), schedule, [this] { probe_next_site(); }, rng().fork());
  launcher_->start();
}

void CondorExerciser::stop() {
  if (launcher_) launcher_->stop();
}

void CondorExerciser::probe_next_site() {
  if (sites_.empty()) return;
  // The probe frequency was far from uniform in practice (Table 1: one
  // site took 53.4% of exerciser jobs in the peak month and only 7 of
  // the 14 configured sites produced during it): each month's campaign
  // rotates over a 7-site window with a steep geometric weight decay.
  const int month = util::month_index_at(sim().now());
  const std::size_t window = std::min<std::size_t>(7, sites_.size());
  std::vector<double> weights(window);
  double w = 1.0;
  for (std::size_t i = window; i-- > 0;) {
    weights[i] = w;
    w *= 2.1;  // top site carries ~53% of probe volume
  }
  const std::size_t base =
      (static_cast<std::size_t>(std::max(month, 0)) * 3) % sites_.size();
  const std::size_t pick =
      (base + rng().weighted_index(weights)) % sites_.size();
  const std::string site = sites_[pick];
  gram::Gatekeeper* gk = grid().gatekeeper(site);
  if (gk == nullptr) return;

  const vo::Certificate& submitter = pick_submitter();
  auto proxy = grid().make_proxy(submitter, vo(), Time::hours(12));
  if (!proxy.has_value()) return;
  ++probes_;

  gram::GramJob job;
  job.proxy = *proxy;
  job.request.vo = vo();
  const bool december = month == 2;  // the 12-2003 rapid-fire campaign
  const Time runtime = Time::hours(
      (december ? december_runtime_ : runtime_).sample(rng()));
  job.request.actual_runtime = runtime;
  job.request.requested_walltime = runtime + Time::hours(1);
  job.request.priority = -1;  // backfill: never competes with production
  job.scratch = Bytes::mb(10);

  const std::string user_dn = submitter.subject_dn;
  grid().condor_g().submit_to(
      *gk, std::move(job),
      [this, user_dn, site](const gram::GramResult& res) {
        monitoring::JobRecord rec;
        rec.vo = "exerciser";
        rec.user_dn = user_dn;
        rec.site = site;
        rec.app = core::app::kExerciser;
        rec.submitted = res.submitted;
        rec.started = res.ok() ? res.outcome.started : res.submitted;
        rec.finished = res.finished;
        rec.success = res.ok();
        rec.site_problem = gram::is_site_problem(res.status);
        if (!res.ok()) rec.failure = gram::to_string(res.status);
        rec.submit_id = "exerciser/probe/" + std::to_string(probes_);
        rec.gram_contact = res.gram_contact;
        grid().igoc().job_db().insert(std::move(rec));
      });
}

}  // namespace grid3::apps
