// Shared machinery for the application demonstrators.
//
// Each app (section 4) owns a planner configuration, a user population
// (mostly application administrators, who the paper says perform most
// submissions), and the accounting glue that turns DAGMan node results
// into ACDC job records and Figure 5 transfer entries.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/grid3.h"
#include "core/roster.h"
#include "util/distributions.h"
#include "workflow/dagman.h"
#include "workflow/planner.h"
#include "workflow/vdc.h"

namespace grid3::apps {

/// A demonstrator driver's run: its Table 1 launch profile scaled by
/// `job_scale`, over the first `months` months from the epoch.
struct DemonstratorOptions {
  double job_scale = 1.0;
  int months = 7;
};

class AppBase {
 public:
  /// `record_vo` is the ACDC user-classification label (usually the VO
  /// name; "exerciser" for the Condor exerciser, which runs under iVDGL
  /// credentials but is accounted separately in Table 1).
  AppBase(core::Grid3& grid, std::string vo, std::string app_name,
          std::string record_vo = {});
  virtual ~AppBase() = default;
  AppBase(const AppBase&) = delete;
  AppBase& operator=(const AppBase&) = delete;

  /// Register the user population used for submissions.
  void set_users(std::vector<vo::Certificate> admins,
                 std::vector<vo::Certificate> users);

  [[nodiscard]] const std::string& vo() const { return vo_; }
  [[nodiscard]] const std::string& app_name() const { return app_name_; }

 protected:
  [[nodiscard]] core::Grid3& grid() { return grid_; }
  [[nodiscard]] sim::Simulation& sim() { return grid_.sim(); }
  [[nodiscard]] util::Rng& rng() { return rng_; }
  [[nodiscard]] workflow::PegasusPlanner& planner() { return planner_; }

  /// ~90% of submissions come from application administrators.
  [[nodiscard]] const vo::Certificate& pick_submitter();

  /// Plan and execute an abstract DAG; node results are recorded into
  /// the iGOC job database automatically.  Returns false when planning
  /// found no eligible site (the workflow is dropped, as a real planner
  /// failure would surface to the operator).  `app_label` overrides the
  /// application name recorded in ACDC (for drivers running several
  /// distinct applications, e.g. SnB + GADU).
  bool launch(const workflow::AbstractDag& dag,
              const workflow::PlannerConfig& cfg,
              workflow::DagMan::DoneFn done = {},
              std::string app_label = {});

  /// Record one node result under this app's accounting labels.
  void record_node(const workflow::NodeResult& result,
                   const std::string& user_dn, const std::string& app_label);

 private:
  core::Grid3& grid_;
  std::string vo_;
  std::string app_name_;
  std::string record_vo_;
  util::Rng rng_;
  workflow::PegasusPlanner planner_;
  std::vector<vo::Certificate> admins_;
  std::vector<vo::Certificate> users_;
  /// Compute jobs recorded so far; numbers their ACDC submit ids.
  std::uint64_t jobs_ = 0;
};

}  // namespace grid3::apps
