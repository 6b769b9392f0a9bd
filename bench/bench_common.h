// Shared plumbing for the reproduction benches: each binary regenerates
// one table/figure of the paper, printing the paper's reported values
// next to the values measured from the simulated grid.
//
// Environment knobs:
//   GRID3_JOB_SCALE  scale workload volumes (default 1.0 = the paper's
//                    291k-job accounting sample; smaller = faster)
//   GRID3_CPU_SCALE  scale site sizes (default 1.0 = ~2800 CPUs)
//   GRID3_SEED       scenario seed (default 20031025)
//   GRID3_BENCH_QUICK  any non-empty value = CI smoke mode: reduced
//                    horizons/workload so each ablation finishes in
//                    seconds while its acceptance verdict stays valid
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "util/table.h"
#include "workload/catalog.h"

namespace grid3::bench {

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

inline double job_scale() { return env_double("GRID3_JOB_SCALE", 1.0); }
inline double cpu_scale() { return env_double("GRID3_CPU_SCALE", 1.0); }
inline std::uint64_t seed() {
  return static_cast<std::uint64_t>(env_double("GRID3_SEED", 20031025));
}

/// CI smoke mode: reduced horizons, same acceptance semantics.
inline bool quick() {
  const char* v = std::getenv("GRID3_BENCH_QUICK");
  return v != nullptr && *v != '\0';
}

/// Pick the full-run or quick-run value of a bench knob.
template <typename T>
inline T quick_or(T full, T reduced) {
  return quick() ? reduced : full;
}

/// Run the first `months` of the catalog's table1-7month scenario (the
/// historical demonstrator mix) at the configured scales, under the
/// paper's favorite-sites stack: no broker, no leases, no breakers.
inline std::unique_ptr<workload::CatalogRun> run_scenario(int months) {
  workload::ScenarioSpec spec =
      workload::ScenarioCatalog::get("table1-7month", seed());
  spec.months = months;
  spec.job_scale = job_scale();
  spec.cpu_scale = cpu_scale();
  std::cout << "[scenario] months=" << months
            << " job_scale=" << spec.job_scale
            << " cpu_scale=" << spec.cpu_scale << " seed=" << spec.seed
            << " ... " << std::flush;
  auto run = std::make_unique<workload::CatalogRun>(
      spec, /*quick=*/false, workload::legacy_stack());
  run->run();
  std::cout << "done (" << run->sim().executed() << " events, "
            << run->grid().igoc().job_db().size() << " job records)\n\n";
  return run;
}

inline void header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==================================================\n"
            << title << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "==================================================\n";
}

/// Footnote reminding readers how to compare against the paper when the
/// run is scaled down.
inline void scale_note() {
  if (job_scale() != 1.0) {
    std::cout << "\nnote: job_scale=" << job_scale()
              << "; compare paper job counts against measured / "
              << job_scale() << "\n";
  }
}

}  // namespace grid3::bench
