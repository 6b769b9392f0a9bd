#include "apps/cms.h"

#include "util/calendar.h"
#include "workflow/vdc.h"

namespace grid3::apps {

namespace {
constexpr const char* kPileupLfn = "uscms/minbias/pileup-2e33";
/// The FNAL Tier1: holds the pile-up sample and archives the output.
constexpr const char* kArchiveSite = "FNAL_CMS";
/// Fraction of post-SC2003 simulation jobs that run OSCAR (long);
/// before December 2003 production is nearly all CMSIM.
constexpr double kOscarFraction = 0.85;
}  // namespace

CmsMop::CmsMop(core::Grid3& grid, Options opts)
    : AppBase{grid, "uscms", core::app::kCmsMop},
      opts_{opts},
      // Table 1 seasonality: the SC2003-era sample was CMSIM (Geant3,
      // short -- Nov avg ~5 h/job); official OSCAR production (Geant4,
      // mean ~85 h with a 1238 h tail) ramped after SC2003.
      cmsim_runtime_{util::Distribution::clamped(
          util::Distribution::lognormal_mean_cv(6.0, 0.8), 0.5, 100.0)},
      oscar_runtime_{util::Distribution::clamped(
          util::Distribution::lognormal_mean_cv(108.0, 0.9), 5.0, 1235.0)},
      digi_runtime_{util::Distribution::constant(0.0)} {}

void CmsMop::register_pileup_dataset() {
  grid().rls(vo())->register_replica(
      kArchiveSite, kPileupLfn,
      {std::string{"gsiftp://"} + kArchiveSite + "/" + kPileupLfn,
       Bytes::gb(1.5),
       sim().now()},
      sim().now());
}

void CmsMop::start() {
  if (launcher_) return;
  // Workflows = jobs / 2 (simulation + digitization nodes).
  LaunchSchedule schedule;
  schedule.monthly = {600, 3900, 1800, 950, 800, 750, 580};
  schedule.monthly.resize(static_cast<std::size_t>(opts_.months), 550.0);
  // Table 1 counts *completed* jobs; compensate for the ~23% loss to
  // failures and walltime kills so completed counts land on the paper's.
  schedule.scale = opts_.job_scale * 1.30;
  launcher_ = std::make_unique<PoissonLauncher>(
      sim(), schedule, [this] { launch_workflow(); }, rng().fork());
  launcher_->start();
}

void CmsMop::stop() {
  if (launcher_) launcher_->stop();
}

bool CmsMop::launch_workflow() {
  const std::uint64_t id = ++seq_;
  const std::string tag = "uscms/dc04/" + std::to_string(id);
  // OSCAR ramps in December 2003 (post-SC2003), per section 6.2.
  const bool post_sc2003 = util::month_index_at(sim().now()) >= 2;
  const bool oscar =
      rng().chance(post_sc2003 ? kOscarFraction : 0.02);

  workflow::VirtualDataCatalog vdc;
  vdc.add_transformation({oscar ? "oscar" : "cmsim",
                          oscar ? "2.4.5" : "133", core::app::kCmsMop});
  vdc.add_transformation({"orca-digi", "7.6.1", core::app::kCmsMop});
  const double sim_hours = oscar ? oscar_runtime_.sample(rng())
                                 : cmsim_runtime_.sample(rng());
  vdc.add_derivation({.id = "sim-" + std::to_string(id),
                      .transformation = oscar ? "oscar" : "cmsim",
                      .inputs = {},
                      .outputs = {tag + ".fz"},
                      .runtime = Time::hours(sim_hours),
                      .output_size = Bytes::gb(1.5),
                      .scratch = Bytes::gb(3.0)});
  // Digitization folds in the minimum-bias pile-up sample staged from
  // the Tier1 SE (an external RLS-resolved input).
  // Digitization cost tracks the simulated sample's size (~50-90% of
  // the simulation step).
  vdc.add_derivation({.id = "digi-" + std::to_string(id),
                      .transformation = "orca-digi",
                      .inputs = {tag + ".fz", kPileupLfn},
                      .outputs = {tag + ".digi"},
                      .runtime = Time::hours(sim_hours *
                                             rng().uniform(0.6, 1.0)),
                      .output_size = Bytes::gb(1.0),
                      .scratch = Bytes::gb(3.0)});
  auto dag = vdc.request({tag + ".digi"});
  if (!dag.has_value()) return false;

  workflow::PlannerConfig cfg;
  cfg.vo = vo();
  cfg.archive_site = kArchiveSite;
  cfg.archive_all = false;  // only the digitized sample goes to tape
  cfg.walltime_slack = 1.3;
  cfg.site_preference = {{"FNAL_CMS", 14.0}, {"UFL_PG", 2.2},
                         {"CIT_PG", 1.6}};
  return launch(*dag, cfg);
}

}  // namespace grid3::apps
