// Regenerates the section 6.4 gatekeeper-load analysis: "a typical
// gatekeeper using a queue manager will experience a sustained one
// minute load of ~225 when managing ~1000 computational jobs.  This load
// can sharply increase when the job submission frequency is high ...
// For computational jobs that only require a minimal amount of
// production node file staging, a factor of two can be applied to the
// sustained load; on the other hand computational jobs requiring a
// substantial amount of file staging the factor can increase to three
// or four."
#include <iostream>

#include "batch/scheduler.h"
#include "bench_common.h"
#include "gram/gatekeeper.h"
#include "gridftp/gridftp.h"
#include "net/network.h"
#include "vo/gridmap.h"

namespace {

using namespace grid3;

struct Harness {
  sim::Simulation sim;
  net::Network net{sim};
  gridftp::GridFtpClient ftp_client{sim, net};
  vo::CertificateAuthority ca{"CA"};
  vo::VomsServer voms{"vo"};
  vo::GridMapFile gridmap;
  srm::DiskVolume scratch{"s:/scratch", Bytes::tb(500)};
  net::NodeId node = net.add_node({Bandwidth::gbps(10),
                                   Bandwidth::gbps(10), true});
  net::NodeId data = net.add_node({Bandwidth::gbps(10),
                                   Bandwidth::gbps(10), true});
  gridftp::GridFtpServer ftp{"S", node};
  gridftp::GridFtpServer data_ftp{"D", data};
  batch::SchedulerConfig cfg{.site_name = "S", .slots = 4000,
                             .max_walltime = Time::hours(2000)};
  batch::PbsScheduler lrms{sim, cfg};
  gram::GatekeeperConfig gkc{.site = "S",
                             .overload_threshold = 1e9};  // observe, not shed
  gram::Gatekeeper gk{sim, gkc, lrms, gridmap, ca, ftp_client, ftp, scratch};
  vo::VomsProxy proxy;

  Harness() {
    const auto cert = ca.issue("/CN=a", sim.now(), Time::days(999));
    voms.add_member("/CN=a", vo::Role::kAppAdmin);
    gridmap.support_vo("vo", {"vo1", "vo"});
    gridmap.regenerate({&voms});
    proxy = *vo::issue_proxy(voms, cert, sim.now(), Time::days(30));
  }

  /// Spread `jobs` long submissions over 30 minutes with the given
  /// staging volume, then read the sustained 1-minute load.
  double sustained_load(int jobs, Bytes stage_in) {
    for (int i = 0; i < jobs; ++i) {
      sim.schedule_in(Time::seconds(1800.0 * i / jobs), [this, stage_in] {
        gram::GramJob job;
        job.proxy = proxy;
        job.request.vo = "vo";
        job.request.actual_runtime = Time::hours(500);
        job.request.requested_walltime = Time::hours(600);
        if (stage_in > Bytes::zero()) {
          job.stage_in = stage_in;
          job.stage_in_source = &data_ftp;
        }
        gk.submit(std::move(job), {});
      });
    }
    sim.run_until(sim.now() + Time::minutes(35));
    return gk.one_minute_load();
  }
};

}  // namespace

int main() {
  using grid3::util::AsciiTable;
  grid3::bench::header("Section 6.4: gatekeeper load model",
                       "section 6.4 load analysis");

  AsciiTable table{{"managed jobs", "staging class", "paper load",
                    "measured 1-min load"}};
  struct Case {
    int jobs;
    grid3::Bytes staging;
    const char* cls;
    const char* paper;
  };
  const Case cases[] = {
      {250, grid3::Bytes::zero(), "none", "~56 (0.225/job)"},
      {500, grid3::Bytes::zero(), "none", "~113"},
      {1000, grid3::Bytes::zero(), "none", "~225"},
      {2000, grid3::Bytes::zero(), "none", "~450"},
      {1000, grid3::Bytes::mb(100), "minimal (x2)", "~450"},
      {1000, grid3::Bytes::gb(2), "substantial (x3)", "~675"},
      {1000, grid3::Bytes::gb(6), "heavy (x4)", "~900"},
  };
  for (const Case& c : cases) {
    Harness h;
    const double load = h.sustained_load(c.jobs, c.staging);
    table.add_row({AsciiTable::integer(c.jobs), c.cls, c.paper,
                   AsciiTable::num(load, 1)});
  }
  table.print(std::cout);

  // Burst sensitivity: same 1000 jobs submitted in one minute instead of
  // thirty ("load can sharply increase when the job submission frequency
  // is high").
  Harness slow;
  const double sustained = slow.sustained_load(1000, grid3::Bytes::zero());
  Harness fast;
  for (int i = 0; i < 1000; ++i) {
    fast.sim.schedule_in(grid3::Time::seconds(0.05 * i), [&fast] {
      grid3::gram::GramJob job;
      job.proxy = fast.proxy;
      job.request.vo = "vo";
      job.request.actual_runtime = grid3::Time::hours(500);
      job.request.requested_walltime = grid3::Time::hours(600);
      fast.gk.submit(std::move(job), {});
    });
  }
  fast.sim.run_until(grid3::Time::seconds(51));
  std::cout << "\nsubmission-frequency sensitivity:\n"
            << "  1000 jobs over 30 min -> sustained load "
            << AsciiTable::num(sustained, 1) << "\n"
            << "  1000 jobs in 50 s     -> peak load "
            << AsciiTable::num(fast.gk.one_minute_load(), 1)
            << "  (paper: sharply increases with high submit frequency)\n";
  return 0;
}
