// The Grid2003 operations scenario: October 2003 through April 2004.
//
// Composes the full fabric (27 sites, 6 VOs, users, failure injection)
// with all seven application demonstrator classes calibrated to Table 1,
// and exposes the analysis windows the paper's figures use.
#pragma once

#include <memory>

#include "apps/atlas.h"
#include "apps/btev.h"
#include "apps/cms.h"
#include "apps/entrada.h"
#include "apps/exerciser.h"
#include "apps/ivdgl.h"
#include "apps/ligo.h"
#include "apps/sdss.h"
#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "core/roster.h"
#include "monitoring/mdviewer.h"

namespace grid3::apps {

struct ScenarioOptions {
  /// Scale site CPU counts (1.0 = the ~2800-CPU roster).
  double cpu_scale = 1.0;
  /// Scale workload volumes (1.0 = the 291k-job accounting sample).
  double job_scale = 1.0;
  int months = 7;  ///< Oct 2003 .. Apr 2004
  std::uint64_t seed = 20031025;
  /// kNone = the paper's status quo (planner-side favorite sites, no
  /// broker).  Anything else attaches a per-VO resource broker with that
  /// ranking policy before the application drivers are built.
  broker::PolicyKind broker_policy = broker::PolicyKind::kNone;
  /// With a broker attached: acquire stage-out leases (SRM space at the
  /// destination SE) before binding.  False = the no-lease baseline.
  bool placement_leases = true;
  /// Fabric replication factor (see core::AssembleOptions): 1 = the
  /// historical 27-site roster, 10 = the "Grid30" 270-site fabric.
  int roster_replicas = 1;
  /// Build and start the seven historical application demonstrators.
  /// False assembles the bare fabric (sites, VOs, users, failure
  /// injection) so a workload-generator scenario (src/workload) can
  /// drive its own campaigns instead; the per-app accessors below must
  /// not be used then.
  bool standard_apps = true;
};

struct Window {
  Time from;
  Time to;
};

/// SC2003 analysis window: 30 days from October 25, 2003 (Figures 2/3/5).
[[nodiscard]] Window sc2003_window();
/// Table 1 accounting window: Oct 23, 2003 - Apr 23, 2004.
[[nodiscard]] Window table1_window();
/// CMS 150-day window from November 2003 (Figure 4).
[[nodiscard]] Window cms150_window();

class Scenario {
 public:
  Scenario(sim::Simulation& sim, ScenarioOptions opts = {});
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Start all application drivers (idempotent).
  void start();
  /// Run the simulation to the end of the configured months.
  void run();
  void run_until(Time t);

  [[nodiscard]] core::Grid3& grid() { return *grid_; }
  [[nodiscard]] const ScenarioOptions& options() const { return opts_; }
  /// Assembly outputs (per-VO user credentials): campaign drivers wire
  /// their submitter populations from here.
  [[nodiscard]] const core::Assembled& assembled() const { return assembled_; }
  [[nodiscard]] monitoring::MdViewer viewer() const {
    return grid_->igoc().viewer();
  }

  [[nodiscard]] AtlasGce& atlas() { return *atlas_; }
  [[nodiscard]] CmsMop& cms() { return *cms_; }
  [[nodiscard]] SdssCoadd& sdss() { return *sdss_; }
  [[nodiscard]] LigoPulsar& ligo() { return *ligo_; }
  [[nodiscard]] BtevSim& btev() { return *btev_; }
  [[nodiscard]] IvdglApps& ivdgl() { return *ivdgl_; }
  [[nodiscard]] CondorExerciser& exerciser() { return *exerciser_; }
  [[nodiscard]] EntradaDemo& entrada() { return *entrada_; }

 private:
  sim::Simulation& sim_;
  ScenarioOptions opts_;
  std::unique_ptr<core::Grid3> grid_;
  core::Assembled assembled_;
  std::unique_ptr<AtlasGce> atlas_;
  std::unique_ptr<CmsMop> cms_;
  std::unique_ptr<SdssCoadd> sdss_;
  std::unique_ptr<LigoPulsar> ligo_;
  std::unique_ptr<BtevSim> btev_;
  std::unique_ptr<IvdglApps> ivdgl_;
  std::unique_ptr<CondorExerciser> exerciser_;
  std::unique_ptr<EntradaDemo> entrada_;
  std::unique_ptr<sim::PeriodicProcess> fluctuation_;
  std::vector<int> base_cpus_;
  util::Rng fluct_rng_{1};
  bool started_ = false;
};

}  // namespace grid3::apps
