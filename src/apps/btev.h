// BTeV Monte Carlo (paper section 4.5): CP-violation simulation in heavy
// quark decays, ~15 s/event, generated in batches as single-job Chimera
// derivations at scale ("2.5 million events generated with 1000 10-hour
// jobs across Grid3" in the challenge configuration).
#pragma once

#include <memory>

#include "apps/appbase.h"
#include "apps/launcher.h"

namespace grid3::apps {

class BtevSim : public AppBase {
 public:
  using Options = DemonstratorOptions;

  BtevSim(core::Grid3& grid, Options opts = {});

  /// Production launcher (Table 1 BTEV column: 2598 jobs, nearly all in
  /// the 11-2003 challenge month, 59.8% from a single resource).
  void start();
  void stop();

  /// Launch one generation job; returns the planned event yield.
  bool launch_job();

  /// Run the section 4.5 challenge shape: `jobs` jobs of `hours` each.
  bool run_challenge(int jobs, double hours);

  [[nodiscard]] double events_generated() const { return events_; }

 private:
  bool submit_generation(Time runtime);

  Options opts_;
  std::unique_ptr<PoissonLauncher> launcher_;
  std::uint64_t seq_ = 0;
  double events_ = 0.0;
  util::Distribution runtime_;
};

}  // namespace grid3::apps
