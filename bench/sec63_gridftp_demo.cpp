// Regenerates the section 6.3 GridFTP data-transfer demonstrator: "We
// met our goal of transferring 2 TB across Grid3 per day, and
// long-running data transfers ran reliably.  Issues of account
// privileges, ports, and firewalls caused the main problems in
// deployment and configuration."
//
// This bench runs the Entrada matrix generator alone on the full fabric
// for ten days, including a firewall-misconfiguration phase, and reads
// reliability out of the NetLogger event stream.
#include <iostream>

#include "apps/entrada.h"
#include "bench_common.h"
#include "core/roster.h"

int main() {
  using namespace grid3;
  bench::header("Section 6.3: GridFTP data-transfer demonstrator",
                "section 6.3 narrative metrics");

  sim::Simulation sim;
  core::Grid3 grid{sim, bench::seed()};
  core::AssembleOptions opts;
  opts.cpu_scale = bench::cpu_scale();
  auto assembled = core::assemble_grid3(grid, opts);

  apps::EntradaDemo::Options en;
  en.months = 1;
  en.sc2003_per_day = 200.0;
  apps::EntradaDemo entrada{grid, en};
  for (const auto& vu : assembled.users) {
    if (vu.vo == "ivdgl") entrada.set_users(vu.app_admins, vu.users);
  }

  // Deployment-phase problems: a few closed firewall routes, fixed after
  // two days (the section 6.3 "ports and firewalls" issues).
  auto& net = grid.network();
  const auto& sites = grid.sites();
  for (std::size_t i = 0; i + 1 < sites.size() && i < 6; i += 2) {
    net.block_route(sites[i]->node(), sites[i + 1]->node());
  }
  sim.schedule_at(Time::days(2), [&] {
    for (std::size_t i = 0; i + 1 < sites.size() && i < 6; i += 2) {
      net.unblock_route(sites[i]->node(), sites[i + 1]->node());
    }
  });

  entrada.start();
  sim.run_until(Time::days(10));
  entrada.stop();

  const auto& logger = grid.netlogger();
  const auto counts = logger.counts_by_event();
  auto count = [&](const char* e) {
    auto it = counts.find(e);
    return it == counts.end() ? std::size_t{0} : it->second;
  };

  util::AsciiTable table{{"metric", "paper", "measured"}};
  table.add_row({"TB per day", "2-3 target, 4 achieved",
                 util::AsciiTable::num(entrada.moved().to_tb() / 10.0, 2)});
  const double reliability =
      entrada.transfers_ok() + entrada.transfers_failed() > 0
          ? static_cast<double>(entrada.transfers_ok()) /
                static_cast<double>(entrada.transfers_ok() +
                                    entrada.transfers_failed())
          : 0.0;
  table.add_row({"long-running transfer reliability", "ran reliably",
                 util::AsciiTable::percent(reliability)});
  table.add_row({"netlogger transfer.start events", "(instrumented)",
                 util::AsciiTable::integer(
                     static_cast<std::int64_t>(count("transfer.start")))});
  table.add_row({"netlogger transfer.error events",
                 "mainly ports/firewalls during deployment",
                 util::AsciiTable::integer(
                     static_cast<std::int64_t>(count("transfer.error")))});
  table.add_row({"netlogger retry events", "(retry on interruption)",
                 util::AsciiTable::integer(
                     static_cast<std::int64_t>(count("transfer.retry")))});
  table.print(std::cout);

  std::cout << "\nfirewall-phase failures clear after day 2 (deployment "
               "problems, then reliable operation) -- errors by day:\n";
  std::vector<std::size_t> by_day(10, 0);
  for (const auto& e : logger.events()) {
    if (e.event == "transfer.error") {
      const auto d = static_cast<std::size_t>(e.t.to_days());
      if (d < by_day.size()) ++by_day[d];
    }
  }
  for (std::size_t d = 0; d < by_day.size(); ++d) {
    std::cout << "  day " << d + 1 << ": " << by_day[d] << "\n";
  }
  return 0;
}
