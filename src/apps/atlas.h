// U.S. ATLAS GCE: Geant-based simulation followed by reconstruction
// (paper sections 4.1, 6.1).  Workflows are two-step Chimera derivation
// chains planned by Pegasus; every dataset is archived at the BNL Tier1
// and registered in RLS, then available to DIAL-style analysis.
#pragma once

#include <memory>
#include <string>

#include "apps/appbase.h"
#include "apps/launcher.h"

namespace grid3::apps {

class AtlasGce : public AppBase {
 public:
  using Options = DemonstratorOptions;

  AtlasGce(core::Grid3& grid, Options opts = {});

  /// Start the production launcher (monthly profile calibrated to the
  /// Table 1 USATLAS column: 7455 jobs, peak 3198 in 11-2003).
  void start();
  void stop();

  /// Launch a single simulation+reconstruction workflow now.  Returns
  /// false when planning failed (no eligible site).
  bool launch_workflow();

  [[nodiscard]] std::uint64_t launched() const {
    return launcher_ ? launcher_->launches() : 0;
  }

 private:
  Options opts_;
  std::unique_ptr<PoissonLauncher> launcher_;
  std::uint64_t seq_ = 0;
  util::Distribution sim_runtime_;
  util::Distribution reco_runtime_;
  util::Distribution late_sim_runtime_;
  util::Distribution late_reco_runtime_;
};

}  // namespace grid3::apps
