// Regenerates the section 6.1 ATLAS failure analysis: ">5000 jobs ...
// processed at 18 sites, with total data I/O of about 1.1 TB.  We
// observed a failure rate of approximately 30% ... Approximately 90% of
// failures were due to site problems: disk filling errors, gatekeeper
// overloading, or network interruptions."
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace grid3;
  bench::header("Section 6.1: U.S. ATLAS GCE failure analysis",
                "section 6.1 narrative metrics");

  auto run = bench::run_scenario(/*months=*/4);
  const auto& db = run->grid().igoc().job_db();
  const auto f = db.failures("usatlas", Time::zero(), run->sim().now());
  const auto stats =
      db.stats_for("usatlas", Time::zero(), run->sim().now());

  util::AsciiTable table{{"metric", "paper", "measured"}};
  table.add_row({"jobs processed", ">5000 (through Apr: 7455)",
                 util::AsciiTable::integer(
                     static_cast<std::int64_t>(stats.jobs))});
  table.add_row({"sites used", "18",
                 util::AsciiTable::integer(
                     static_cast<std::int64_t>(stats.sites_used))});
  table.add_row({"failure rate", "~30%",
                 util::AsciiTable::percent(f.failure_rate())});
  table.add_row({"failures that are site problems", "~90%",
                 util::AsciiTable::percent(f.site_problem_share())});

  // Data I/O: ATLAS stage-in + archive traffic.
  Bytes io;
  for (const auto& t : db.transfers()) {
    if (t.vo == "usatlas") io += t.size;
  }
  table.add_row({"total data I/O", "~1.1 TB",
                 util::AsciiTable::num(io.to_tb(), 2) + " TB"});
  table.print(std::cout);

  std::cout << "\nfailure classes (paper: disk filling, gatekeeper "
               "overloading, network interruptions; plus the ACDC nightly "
               "rollover reprocessing):\n";
  for (const auto& [cls, count] : f.by_class) {
    std::cout << "  " << cls << ": " << count << "\n";
  }
  bench::scale_note();
  return 0;
}
