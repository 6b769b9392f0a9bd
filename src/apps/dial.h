// DIAL: Distributed Interactive Analysis of Large datasets (paper
// sections 4.1, 6.1): "A dataset catalog was created for produced
// samples, making them available to the DIAL distributed analysis
// package.  Output datasets were stored at BNL by the grid jobs, and
// continue to be analyzed by DIAL developers and the SUSY physics
// working group."
//
// DIAL consumes what production makes: it discovers archived datasets
// through RLS, fans short analysis jobs out to sites holding (or near)
// the replicas, and merges the per-dataset partial results into a
// histogram -- the interactive counterpart to the batch pipelines.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/appbase.h"
#include "util/stats.h"

namespace grid3::apps {

/// Result of one analysis round.
struct DialResult {
  std::size_t datasets_found = 0;
  std::size_t jobs_launched = 0;
  std::size_t jobs_ok = 0;
  util::Histogram histogram;
  [[nodiscard]] bool complete() const {
    return jobs_launched > 0 && jobs_ok == jobs_launched;
  }
};

class DialAnalysis : public AppBase {
 public:
  explicit DialAnalysis(core::Grid3& grid);

  /// Scan RLS for the ATLAS DC2 datasets `usatlas/dc2/<1..max_id>.esd`,
  /// launch one short analysis job per replica-holding dataset, and
  /// invoke `done` with the merged histogram (50 bins over 0-500 "GeV")
  /// when every job has terminated.
  void analyze(int max_dataset_id, std::function<void(DialResult)> done);

 private:
  std::uint64_t seq_ = 0;
};

}  // namespace grid3::apps
