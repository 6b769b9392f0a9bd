// Regenerates Figure 5: "Data consumed by Grid3 sites, by VO.  Nearly
// 100 TB was transferred during 30 days before and after SC2003 (top
// curve is total from all sources).  The GridFTP demonstrator accounted
// for most data transferred on Grid3."
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace grid3;
  bench::header("Figure 5: data consumed by Grid3 sites, by VO",
                "Figure 5, section 6.3");

  auto run = bench::run_scenario(/*months=*/2);
  const auto& db = run->grid().igoc().job_db();
  const auto w = workload::sc2003_window();

  const auto by_vo = db.bytes_consumed_by_vo(w.from, w.to);
  util::AsciiTable table{{"VO", "total TB", "demonstrator TB", "app TB"}};
  Bytes total, demo;
  for (const auto& [vo, pair] : by_vo) {
    table.add_row({vo, util::AsciiTable::num(pair.first.to_tb(), 2),
                   util::AsciiTable::num(pair.second.to_tb(), 2),
                   util::AsciiTable::num(
                       (pair.first - pair.second).to_tb(), 2)});
    total += pair.first;
    demo += pair.second;
  }
  table.print(std::cout);
  std::cout << "\ntotal consumed in the 30-day window: "
            << util::AsciiTable::num(total.to_tb(), 1)
            << " TB (paper: ~100 TB before+after SC2003)\n"
            << "demonstrator share: "
            << util::AsciiTable::percent(demo / std::max(total, Bytes::of(1)))
            << " (paper: the GridFTP demo accounted for most data)\n"
            << "average per day: "
            << util::AsciiTable::num(total.to_tb() / 30.0, 2)
            << " TB/day (target 2-3, achieved 4)\n";

  std::cout << "\ntop consuming sites:\n";
  const auto by_site = db.bytes_consumed_by_site(w.from, w.to);
  std::vector<std::pair<std::string, double>> chart;
  for (const auto& [site, bytes] : by_site) {
    chart.emplace_back(site, bytes.to_tb());
  }
  std::sort(chart.begin(), chart.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (chart.size() > 10) chart.resize(10);
  std::cout << util::bar_chart(chart, 40, "TB");
  bench::scale_note();
  return 0;
}
