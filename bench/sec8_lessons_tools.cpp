// Section 8 "lessons learned" tooling demonstration: the paper's own
// improvement list, implemented and run against a production window:
//   * troubleshooting API (job-ID linking, failure bursts correlated to
//     iGOC tickets -- no log parsing);
//   * job-execution-policy audit;
//   * end-to-end efficiency analysis per application class.
#include <iostream>

#include "bench_common.h"
#include "core/policy_audit.h"
#include "monitoring/troubleshoot.h"

int main() {
  using namespace grid3;
  bench::header("Section 8: lessons-learned tooling",
                "section 8 improvement list, implemented");

  auto run = bench::run_scenario(/*months=*/2);
  auto& grid = run->grid();
  const auto w = workload::sc2003_window();

  // --- Troubleshooting: burst detection + ticket correlation ---------
  monitoring::Troubleshooter ts{grid.igoc().job_db()};
  std::vector<monitoring::IncidentWindow> incidents;
  for (const auto& t : grid.igoc().tickets().tickets()) {
    incidents.push_back({t.id, t.site, t.issue, t.opened,
                         t.closed.value_or(Time::max())});
  }
  auto bursts = monitoring::Troubleshooter::correlate(
      ts.find_bursts(w.from, w.to, /*min_failures=*/8), incidents);
  std::cout << "failure bursts in the SC2003 window: " << bursts.size()
            << "\n";
  std::size_t explained = 0;
  for (const auto& b : bursts) {
    if (b.ticket.has_value()) ++explained;
  }
  std::cout << "bursts explained by an iGOC ticket: " << explained << "/"
            << bursts.size() << "\n";
  if (!bursts.empty()) {
    const auto& b = bursts.front();
    std::cout << "largest burst: " << b.failures << " failures at "
              << b.site << " (" << b.dominant_class << ")"
              << (b.ticket ? ", ticket #" + std::to_string(*b.ticket)
                           : ", UNEXPLAINED")
              << "\n";
  }
  std::cout << "\ntop failure classes (direct query, no log parsing):\n";
  for (const auto& [cls, n] : ts.top_failure_classes(w.from, w.to, 5)) {
    std::cout << "  " << cls << ": " << n << "\n";
  }

  // ID linking round-trip on a sample record.
  for (const auto& r : grid.igoc().job_db().records()) {
    if (!r.gram_contact.empty() && !r.submit_id.empty()) {
      const auto* linked = ts.find_by_gram_contact(r.gram_contact);
      std::cout << "\nID linkage: execution-side " << r.gram_contact
                << " <-> submit-side "
                << (linked ? linked->submit_id : "??") << "\n";
      break;
    }
  }

  // --- Policy audit ----------------------------------------------------
  const auto report = core::PolicyAuditor{grid}.audit(w.from, w.to);
  std::cout << "\npolicy audit over " << report.sites_audited
            << " sites: " << report.count(core::AuditSeverity::kViolation)
            << " violations, " << report.count(core::AuditSeverity::kWarning)
            << " warnings\n";
  for (const auto& f : report.findings) {
    std::cout << "  [" << core::to_string(f.severity) << "] " << f.site
              << " " << f.check << ": " << f.detail << "\n";
  }

  // --- End-to-end efficiency -------------------------------------------
  std::cout << "\nend-to-end latency breakdown (queue+staging wait vs "
               "compute):\n";
  const auto viewer = run->viewer();
  util::AsciiTable table{{"VO", "jobs", "avg wait (h)", "avg run (h)",
                          "compute efficiency"}};
  for (const auto& vo : grid.igoc().job_db().vos()) {
    if (vo == "local") continue;
    const auto lb = viewer.latency_breakdown(vo, w.from, w.to);
    if (lb.jobs == 0) continue;
    table.add_row({vo,
                   util::AsciiTable::integer(
                       static_cast<std::int64_t>(lb.jobs)),
                   util::AsciiTable::num(lb.avg_wait_hours, 2),
                   util::AsciiTable::num(lb.avg_run_hours, 2),
                   util::AsciiTable::percent(lb.compute_efficiency())});
  }
  table.print(std::cout);
  std::cout << "\nreading: the paper's unmet efficiency target traces to "
               "end-to-end wait, not compute -- exactly the analysis the "
               "lessons list calls for.\n";
  bench::scale_note();
  return 0;
}
