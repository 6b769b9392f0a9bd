#include "apps/scenario.h"

#include "util/calendar.h"

namespace grid3::apps {

Window sc2003_window() {
  const Time from = util::time_of({2003, 10, 25});
  return {from, from + Time::days(30)};
}

Window table1_window() {
  return {util::time_of({2003, 10, 23}), util::time_of({2004, 4, 23})};
}

Window cms150_window() {
  const Time from = util::time_of({2003, 11, 1});
  return {from, from + Time::days(150)};
}

namespace {

/// Users registered for a VO during assembly.
const core::VoUsers* users_for(const core::Assembled& assembled,
                               const std::string& vo) {
  for (const auto& vu : assembled.users) {
    if (vu.vo == vo) return &vu;
  }
  return nullptr;
}

template <typename App>
void wire_users(App& app, const core::Assembled& assembled,
                const std::string& vo) {
  if (const core::VoUsers* vu = users_for(assembled, vo)) {
    app.set_users(vu->app_admins, vu->users);
  }
}

}  // namespace

Scenario::Scenario(sim::Simulation& sim, ScenarioOptions opts)
    : sim_{sim}, opts_{opts} {
  grid_ = std::make_unique<core::Grid3>(sim, opts.seed);
  core::AssembleOptions ao;
  ao.cpu_scale = opts.cpu_scale;
  ao.roster_replicas = opts.roster_replicas;
  assembled_ = core::assemble_grid3(*grid_, ao);

  // Brokers must exist before the apps: each AppBase binds its planner
  // to its VO's broker at construction.
  if (opts.broker_policy != broker::PolicyKind::kNone) {
    broker::BrokerConfig bcfg;
    bcfg.placement_leases = opts.placement_leases;
    for (const std::string& vo : core::canonical_vos()) {
      grid_->attach_broker(vo, opts.broker_policy, bcfg);
    }
  }

  // Bare-fabric mode: a workload-generator scenario drives its own
  // campaigns; skip the historical demonstrators entirely (their RNG
  // forks included, so campaign streams do not depend on them).
  if (!opts.standard_apps) return;

  AtlasGce::Options atlas_opts;
  atlas_opts.job_scale = opts.job_scale;
  atlas_opts.months = opts.months;
  atlas_ = std::make_unique<AtlasGce>(*grid_, atlas_opts);
  wire_users(*atlas_, assembled_, "usatlas");

  CmsMop::Options cms_opts;
  cms_opts.job_scale = opts.job_scale;
  cms_opts.months = opts.months;
  cms_ = std::make_unique<CmsMop>(*grid_, cms_opts);
  wire_users(*cms_, assembled_, "uscms");
  cms_->register_pileup_dataset();

  SdssCoadd::Options sdss_opts;
  sdss_opts.job_scale = opts.job_scale;
  sdss_opts.months = opts.months;
  sdss_ = std::make_unique<SdssCoadd>(*grid_, sdss_opts);
  wire_users(*sdss_, assembled_, "sdss");
  sdss_->register_survey_segments(8);

  LigoPulsar::Options ligo_opts;
  ligo_opts.job_scale = opts.job_scale;
  ligo_opts.months = opts.months;
  ligo_ = std::make_unique<LigoPulsar>(*grid_, ligo_opts);
  wire_users(*ligo_, assembled_, "ligo");

  BtevSim::Options btev_opts;
  btev_opts.job_scale = opts.job_scale;
  btev_opts.months = opts.months;
  btev_ = std::make_unique<BtevSim>(*grid_, btev_opts);
  wire_users(*btev_, assembled_, "btev");

  IvdglApps::Options ivdgl_opts;
  ivdgl_opts.job_scale = opts.job_scale;
  ivdgl_opts.months = opts.months;
  ivdgl_ = std::make_unique<IvdglApps>(*grid_, ivdgl_opts);

  CondorExerciser::Options ex_opts;
  ex_opts.job_scale = opts.job_scale;
  ex_opts.months = opts.months;
  exerciser_ = std::make_unique<CondorExerciser>(*grid_, ex_opts);

  // Table 1 user split inside the iVDGL VO: 24 members ran SnB/GADU, a
  // separate 3-identity Condor-group pool ran the exerciser; the rest
  // are authorized but idle.
  if (const core::VoUsers* iv = users_for(assembled_, "ivdgl")) {
    std::vector<vo::Certificate> snb_users{
        iv->users.begin(),
        iv->users.begin() +
            std::min<std::size_t>(22, iv->users.size())};
    ivdgl_->set_users(iv->app_admins, snb_users);
    std::vector<vo::Certificate> probe_users{
        iv->users.end() - std::min<std::size_t>(3, iv->users.size()),
        iv->users.end()};
    exerciser_->set_users(probe_users, {});
  }

  EntradaDemo::Options en_opts;
  en_opts.job_scale = opts.job_scale;
  en_opts.months = opts.months;
  entrada_ = std::make_unique<EntradaDemo>(*grid_, en_opts);
  if (const core::VoUsers* iv = users_for(assembled_, "ivdgl")) {
    entrada_->set_users(iv->app_admins, {});
  }
}

Scenario::~Scenario() = default;

void Scenario::start() {
  if (started_) return;
  started_ = true;
  fluct_rng_ = util::Rng{opts_.seed ^ 0xf1c7u};
  for (const auto& site : grid_->sites()) {
    base_cpus_.push_back(site->cpus());
  }
  // The section 7 CPU-count fluctuation: every two weeks, shared sites
  // resize within 80-105% of their base capacity (withdrawing nodes kills
  // the jobs on them, as the paper's disk/node replacements did at
  // unlucky sites); dedicated sites stay fixed.
  fluctuation_ = std::make_unique<sim::PeriodicProcess>(
      sim_, Time::days(14), [this] {
        const auto& sites = grid_->sites();
        for (std::size_t i = 0; i < sites.size(); ++i) {
          if (sites[i]->config().policy.dedicated) continue;
          const int target = std::max(
              2, static_cast<int>(base_cpus_[i] *
                                  fluct_rng_.uniform(0.80, 1.05)));
          sites[i]->scheduler().resize(target, fluct_rng_);
        }
        return true;
      });
  fluctuation_->start(Time::days(10));
  // The SC2003 conference demonstration (paper section 7: "On Nov. 20,
  // 2003 there were sustained periods when over 1300 jobs ran
  // simultaneously"): a coordinated push that floods the grid with
  // medium-length jobs for a day.  Sized to capacity, not to workload.
  if (!opts_.standard_apps) return;
  if (opts_.months >= 2) {
    const int burst_jobs = static_cast<int>(1400 * opts_.cpu_scale);
    if (burst_jobs > 0) {
      ivdgl_->demo_burst(util::time_of({2003, 11, 20}), burst_jobs);
    }
  }
  atlas_->start();
  cms_->start();
  sdss_->start();
  ligo_->start();
  btev_->start();
  ivdgl_->start();
  exerciser_->start();
  entrada_->start();
}

void Scenario::run() {
  start();
  run_until(util::month_start(opts_.months));
}

void Scenario::run_until(Time t) {
  start();
  sim_.run_until(t);
}

}  // namespace grid3::apps
