// Condor exerciser (paper section 4.7): "An exerciser backfill
// application provided by the Condor group tested the status of the
// batch systems and operation characteristics of each Grid3 site.  This
// application ran repeatedly with a low priority at 15 minute
// intervals."  Probes submit straight through Condor-G (no DAGMan) at
// negative batch priority so they only consume otherwise-idle slots.
//
// ACDC accounts these separately from iVDGL (Table 1 "Exerciser"
// column) even though they run under iVDGL credentials.
#pragma once

#include <memory>
#include <vector>

#include "apps/appbase.h"
#include "apps/launcher.h"

namespace grid3::apps {

class CondorExerciser : public AppBase {
 public:
  using Options = DemonstratorOptions;

  CondorExerciser(core::Grid3& grid, Options opts = {});

  /// Production launcher (Table 1: 198272 jobs, peak 72224 in 12-2003,
  /// mean runtime 0.13 h).
  void start();
  void stop();

  /// Probe one site of the exerciser's Table 1 site set.
  void probe_next_site();

  [[nodiscard]] std::uint64_t probes() const { return probes_; }

 private:
  Options opts_;
  /// Sites probed: the exerciser's Table 1 site set.
  std::vector<std::string> sites_;
  std::unique_ptr<PoissonLauncher> launcher_;
  std::uint64_t probes_ = 0;
  util::Distribution runtime_;
  util::Distribution december_runtime_;
};

}  // namespace grid3::apps
