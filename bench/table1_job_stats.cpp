// Regenerates Table 1: "Grid3 computational job statistics based on
// completed production jobs from the period of October 23, 2003 to
// April 23, 2004 (source ACDC University at Buffalo)."
#include <iostream>
#include <map>
#include <vector>

#include "bench_common.h"

namespace {

struct PaperColumn {
  const char* label;      // Table 1 header
  const char* record_vo;  // our ACDC classification key
  double users, sites, jobs, avg_h, max_h, cpu_days;
  double peak_jobs, peak_sites, max_single_jobs, max_single_pct;
  const char* peak_month;
  double peak_cpu_days;
};

// The paper's Table 1, verbatim.
constexpr PaperColumn kPaper[] = {
    {"BTEV", "btev", 1, 8, 2598, 1.77, 118.27, 191.88, 2377, 7, 1421, 59.8,
     "11-2003", 129.46},
    {"iVDGL", "ivdgl", 24, 19, 58145, 1.22, 291.74, 2945.79, 25722, 15,
     22671, 88.1, "11-2003", 1244.97},
    {"LIGO", "ligo", 7, 1, 3, 0.01, 0.02, 0.01, 3, 1, 3, 100.0, "12-2003",
     0.01},
    {"SDSS", "sdss", 9, 13, 5410, 1.46, 152.90, 329.44, 1564, 4, 1120, 71.6,
     "02-2004", 65.91},
    {"USATLAS", "usatlas", 25, 18, 7455, 8.81, 292.40, 2736.05, 3198, 17,
     901, 28.2, "11-2003", 696.48},
    {"USCMS", "uscms", 26, 18, 19354, 41.85, 1238.93, 33750.14, 8834, 17,
     4820, 48.4, "11-2003", 1981.95},
    {"Exerciser", "exerciser", 3, 14, 198272, 0.13, 36.45, 1034.28, 72224,
     7, 38512, 53.4, "12-2003", 51.78},
};

}  // namespace

int main() {
  using namespace grid3;
  using util::AsciiTable;
  bench::header("Table 1: Grid3 computational job statistics",
                "Table 1 (ACDC accounting, Oct 23 2003 - Apr 23 2004)");

  auto run = bench::run_scenario(/*months=*/7);
  const auto& db = run->grid().igoc().job_db();
  const auto w = workload::table1_window();

  AsciiTable table{{"metric", "source", "BTEV", "iVDGL", "LIGO", "SDSS",
                    "USATLAS", "USCMS", "Exerciser"}};
  std::vector<monitoring::VoJobStats> measured;
  for (const auto& col : kPaper) {
    measured.push_back(db.stats_for(col.record_vo, w.from, w.to));
  }

  auto row = [&](const char* metric, auto paper_of, auto measured_of) {
    std::vector<std::string> p{metric, "paper"};
    std::vector<std::string> m{"", "measured"};
    for (std::size_t i = 0; i < measured.size(); ++i) {
      p.push_back(paper_of(kPaper[i]));
      m.push_back(measured_of(measured[i]));
    }
    table.add_row(p).add_row(m);
  };

  row(
      "Number of Users",
      [](const PaperColumn& c) { return AsciiTable::num(c.users, 0); },
      [](const monitoring::VoJobStats& s) {
        return AsciiTable::integer(static_cast<std::int64_t>(s.users));
      });
  row(
      "Grid3 Sites Used",
      [](const PaperColumn& c) { return AsciiTable::num(c.sites, 0); },
      [](const monitoring::VoJobStats& s) {
        return AsciiTable::integer(static_cast<std::int64_t>(s.sites_used));
      });
  row(
      "Number of Jobs",
      [](const PaperColumn& c) { return AsciiTable::num(c.jobs, 0); },
      [](const monitoring::VoJobStats& s) {
        return AsciiTable::integer(static_cast<std::int64_t>(s.jobs));
      });
  row(
      "Avg. Runtime (hr)",
      [](const PaperColumn& c) { return AsciiTable::num(c.avg_h, 2); },
      [](const monitoring::VoJobStats& s) {
        return AsciiTable::num(s.avg_runtime_hours, 2);
      });
  row(
      "Max. Runtime (hr)",
      [](const PaperColumn& c) { return AsciiTable::num(c.max_h, 2); },
      [](const monitoring::VoJobStats& s) {
        return AsciiTable::num(s.max_runtime_hours, 2);
      });
  row(
      "Total CPU (days)",
      [](const PaperColumn& c) { return AsciiTable::num(c.cpu_days, 2); },
      [](const monitoring::VoJobStats& s) {
        return AsciiTable::num(s.total_cpu_days, 2);
      });
  row(
      "Peak Rate (jobs/month)",
      [](const PaperColumn& c) { return AsciiTable::num(c.peak_jobs, 0); },
      [](const monitoring::VoJobStats& s) {
        return AsciiTable::integer(
            static_cast<std::int64_t>(s.peak_rate_jobs_per_month));
      });
  row(
      "Peak Prod. Resources",
      [](const PaperColumn& c) { return AsciiTable::num(c.peak_sites, 0); },
      [](const monitoring::VoJobStats& s) {
        return AsciiTable::integer(
            static_cast<std::int64_t>(s.peak_resources));
      });
  row(
      "Max. Single Resource [%]",
      [](const PaperColumn& c) {
        return AsciiTable::num(c.max_single_jobs, 0) + " [" +
               AsciiTable::num(c.max_single_pct, 1) + "]";
      },
      [](const monitoring::VoJobStats& s) {
        return AsciiTable::integer(
                   static_cast<std::int64_t>(s.max_single_resource_jobs)) +
               " [" + AsciiTable::num(s.max_single_resource_percent, 1) +
               "]";
      });
  row(
      "Peak Month-Year",
      [](const PaperColumn& c) { return std::string{c.peak_month}; },
      [](const monitoring::VoJobStats& s) {
        return s.jobs ? s.peak_month : std::string{"n/a"};
      });
  row(
      "Peak CPU (days)",
      [](const PaperColumn& c) { return AsciiTable::num(c.peak_cpu_days, 2); },
      [](const monitoring::VoJobStats& s) {
        return AsciiTable::num(s.peak_cpu_days, 2);
      });

  table.print(std::cout);
  std::size_t total = 0;
  for (const auto& s : measured) total += s.jobs;
  std::cout << "total completed production jobs: measured " << total
            << " vs paper sample 291052\n";
  bench::scale_note();
  return 0;
}
