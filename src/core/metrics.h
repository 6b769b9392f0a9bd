// Milestones and metrics evaluation (paper section 7).
//
// Computes the quantitative targets Grid2003 tracked, from the same
// redundant sources the project used: the ACDC job database, the Ganglia
// path collected by gmetad, the VOMS membership rolls, and the trouble
// ticket ledger.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/grid3.h"
#include "monitoring/mdviewer.h"
#include "util/units.h"

namespace grid3::core {

struct MilestoneTarget {
  std::string name;
  std::string target;    ///< the paper's target, verbatim-ish
  std::string paper;     ///< what the paper reports achieving
  std::string measured;  ///< what this run measured
  bool met = false;
};

struct Milestones {
  int cpus_now = 0;
  double cpus_peak = 0.0;
  std::size_t users = 0;
  std::size_t applications = 0;
  std::size_t multi_vo_sites = 0;     ///< sites running >= 2 VOs' jobs
  double data_tb_per_day = 0.0;
  double utilization = 0.0;           ///< 0..1 from the Ganglia path
  double peak_concurrent_jobs = 0.0;  ///< from the ACDC path
  std::map<std::string, double> efficiency_by_vo;  ///< success fraction
  double ops_ftes = 0.0;

  [[nodiscard]] std::vector<MilestoneTarget> scorecard() const;
};

/// Evaluate milestones over [from, to).  `grid` supplies fabric state
/// (CPUs, users); the job database and gmetad supply the history.
[[nodiscard]] Milestones compute_milestones(Grid3& grid, Time from, Time to);

}  // namespace grid3::core
