// iVDGL applications (paper section 4.6): SnB (Shake-and-Bake crystal
// structure determination from X-ray diffraction data) and GADU (genome
// analysis pipeline from Argonne MCS).  Both run as high-volume
// single-step derivations under the iVDGL VO, dominated by one big
// shared Condor pool (Table 1: 88.1% of peak production from a single
// resource).
#pragma once

#include <memory>

#include "apps/appbase.h"
#include "apps/launcher.h"

namespace grid3::apps {

class IvdglApps : public AppBase {
 public:
  using Options = DemonstratorOptions;

  IvdglApps(core::Grid3& grid, Options opts = {});

  /// Production launcher (Table 1 iVDGL column: 58145 jobs, peak 25722
  /// in 11-2003, mean runtime 1.22 h).
  void start();
  void stop();

  /// Launch one SnB trial-structure job or one GADU analysis job.
  bool launch_job();

  /// The SC2003 demonstration push: schedule `jobs` medium-length jobs
  /// over five hours starting at `at`, spread evenly across the grid (the
  /// paper's 1300-concurrent-jobs moment on Nov 20, 2003).
  void demo_burst(Time at, int jobs);

 private:
  Options opts_;
  std::unique_ptr<PoissonLauncher> launcher_;
  std::uint64_t seq_ = 0;
  util::Distribution runtime_;
  util::Distribution demo_runtime_;
};

}  // namespace grid3::apps
