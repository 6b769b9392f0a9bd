// U.S. CMS MOP production (paper sections 4.2, 6.2): MCRunJob reads
// production parameters from a control database and MOP writes DAGs for
// Condor-G.  Jobs are long -- CMSIM (Geant3, statically linked FORTRAN)
// and especially OSCAR (Geant4, dynamically linked C++), some beyond 30
// hours -- so not every site's queue limits can accommodate them.
// Output is archived through the FNAL Tier1 storage element.
#pragma once

#include <memory>
#include <string>

#include "apps/appbase.h"
#include "apps/launcher.h"

namespace grid3::apps {

class CmsMop : public AppBase {
 public:
  using Options = DemonstratorOptions;

  CmsMop(core::Grid3& grid, Options opts = {});

  /// Production launcher calibrated to the Table 1 USCMS column
  /// (19354 jobs, peak 8834 in 11-2003, mean runtime ~42 h).
  void start();
  void stop();

  /// One MOP assignment: simulation (CMSIM or OSCAR) + digitization with
  /// pile-up staged from the Tier1.
  bool launch_workflow();

  /// Register the minimum-bias pile-up dataset replica the digitization
  /// step stages in; called once at setup.
  void register_pileup_dataset();

 private:
  Options opts_;
  std::unique_ptr<PoissonLauncher> launcher_;
  std::uint64_t seq_ = 0;
  util::Distribution cmsim_runtime_;
  util::Distribution oscar_runtime_;
  util::Distribution digi_runtime_;
};

}  // namespace grid3::apps
