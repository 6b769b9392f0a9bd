// SDSS cluster finding (paper section 4.3): galaxy-cluster searches over
// survey segments produce Chimera workflows with many short processing
// steps; pixel-level coadd analyses stage survey cutouts from the SDSS
// archive sites.
#pragma once

#include <memory>

#include "apps/appbase.h"
#include "apps/launcher.h"

namespace grid3::apps {

class SdssCoadd : public AppBase {
 public:
  using Options = DemonstratorOptions;

  SdssCoadd(core::Grid3& grid, Options opts = {});

  /// Production launcher calibrated to the Table 1 SDSS column
  /// (5410 jobs, peak 1564 in 02-2004 -- SDSS peaks late).
  void start();
  void stop();

  /// One cluster-finding workflow: 5 independent chains of 5
  /// derivations each (25 jobs), over one survey segment.
  bool launch_workflow();

  /// Register survey-segment input replicas at the archive sites.
  void register_survey_segments(int count);

 private:
  Options opts_;
  std::unique_ptr<PoissonLauncher> launcher_;
  std::uint64_t seq_ = 0;
  int segments_ = 0;
  util::Distribution step_runtime_;
};

}  // namespace grid3::apps
