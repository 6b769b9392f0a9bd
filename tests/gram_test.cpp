// Unit tests for the GRAM gatekeeper: authentication, staging, the
// section 6.4 load model, overload behaviour, and Condor-G retries.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "batch/scheduler.h"
#include "gram/condor_g.h"
#include "gram/gatekeeper.h"
#include "gridftp/gridftp.h"
#include "gridftp/netlogger.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "srm/disk.h"
#include "vo/gridmap.h"
#include "vo/voms.h"

namespace grid3::gram {
namespace {

class GramTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  net::Network net{sim};
  gridftp::NetLogger netlog;
  gridftp::GridFtpClient ftp_client{sim, net, &netlog};
  vo::CertificateAuthority ca{"TestCA"};
  vo::VomsServer voms{"usatlas"};
  vo::GridMapFile gridmap;
  srm::DiskVolume scratch{"site:/scratch", Bytes::tb(1)};

  net::NodeId site_node = net.add_node({Bandwidth::mbps(155),
                                        Bandwidth::mbps(155), true});
  net::NodeId data_node = net.add_node({Bandwidth::mbps(622),
                                        Bandwidth::mbps(622), true});
  gridftp::GridFtpServer site_ftp{"SITE", site_node};
  gridftp::GridFtpServer data_ftp{"DATA", data_node};

  batch::SchedulerConfig sched_cfg{.site_name = "SITE", .slots = 8,
                                   .max_walltime = Time::hours(48)};
  batch::PbsScheduler lrms{sim, sched_cfg};
  // Deterministic unit tests: disable the stochastic flake/error rates
  // (they are exercised by their own tests and the integration suite).
  GatekeeperConfig gk_cfg{.site = "SITE",
                          .submission_flake_rate = 0.0,
                          .app_error_rate = 0.0};
  Gatekeeper gk{sim, gk_cfg, lrms, gridmap, ca,
                ftp_client, site_ftp, scratch};

  vo::Certificate alice_cert;
  vo::VomsProxy alice;

  void SetUp() override {
    alice_cert = ca.issue("/CN=alice", sim.now(), Time::days(365));
    voms.add_member("/CN=alice", vo::Role::kAppAdmin);
    gridmap.support_vo("usatlas", {"usatlas1", "usatlas"});
    gridmap.regenerate({&voms});
    alice = *vo::issue_proxy(voms, alice_cert, sim.now(), Time::hours(96));
  }

  GramJob simple_job(double runtime_h, double walltime_h = 0.0) {
    GramJob job;
    job.proxy = alice;
    job.request.vo = "usatlas";
    job.request.actual_runtime = Time::hours(runtime_h);
    job.request.requested_walltime =
        Time::hours(walltime_h > 0 ? walltime_h : runtime_h + 1);
    return job;
  }
};

TEST_F(GramTest, AuthorizedJobCompletes) {
  std::optional<GramResult> result;
  gk.submit(simple_job(2.0), [&](const GramResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->outcome.state, batch::JobState::kCompleted);
  EXPECT_EQ(gk.completions(), 1u);
}

TEST_F(GramTest, UnknownDnRejected) {
  GramJob job = simple_job(1.0);
  job.proxy.identity.subject_dn = "/CN=mallory";
  std::optional<GramResult> result;
  gk.submit(std::move(job), [&](const GramResult& r) { result = r; });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, GramStatus::kAuthenticationFailed);
  EXPECT_FALSE(is_site_problem(result->status));
}

TEST_F(GramTest, ExpiredProxyRejected) {
  GramJob job = simple_job(1.0);
  job.proxy.expires = Time::zero();
  std::optional<GramResult> result;
  gk.submit(std::move(job), [&](const GramResult& r) { result = r; });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, GramStatus::kAuthenticationFailed);
}

TEST_F(GramTest, VoMismatchRejected) {
  GramJob job = simple_job(1.0);
  job.proxy.vo = "uscms";  // proxy VO does not match the mapped account
  std::optional<GramResult> result;
  gk.submit(std::move(job), [&](const GramResult& r) { result = r; });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, GramStatus::kAuthenticationFailed);
}

TEST_F(GramTest, DownGatekeeperRefuses) {
  gk.set_available(false);
  std::optional<GramResult> result;
  gk.submit(simple_job(1.0), [&](const GramResult& r) { result = r; });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, GramStatus::kGatekeeperDown);
  EXPECT_TRUE(is_site_problem(result->status));
}

TEST_F(GramTest, StageInRunsBeforeJob) {
  GramJob job = simple_job(1.0);
  job.stage_in = Bytes::gb(4);
  job.stage_in_source = &data_ftp;
  std::optional<GramResult> result;
  gk.submit(std::move(job), [&](const GramResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
  // 4 GB at 155 Mbps ~= 206 s; the batch start reflects the staging wait.
  EXPECT_GT(result->outcome.started.to_seconds(), 150.0);
  // The one completed transfer moved all 4 GB into the site.
  ASSERT_EQ(netlog.count("transfer.end"), 1u);
  for (const gridftp::NetLogEvent& e : netlog.events()) {
    if (e.event == "transfer.end") {
      EXPECT_EQ(e.value, static_cast<double>(Bytes::gb(4).count()));
      EXPECT_EQ(e.detail.rfind("stage-in/SITE/", 0), 0u);
    }
  }
}

TEST_F(GramTest, StageOutAfterCompletion) {
  srm::DiskVolume data_disk{"DATA:/archive", Bytes::tb(1)};
  GramJob job = simple_job(1.0);
  job.stage_out = Bytes::gb(2);
  job.stage_out_dest = &data_ftp;
  job.stage_out_volume = &data_disk;
  std::optional<GramResult> result;
  gk.submit(std::move(job), [&](const GramResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(data_disk.used(), Bytes::gb(2));
}

TEST_F(GramTest, ProxyExpiryBeforeStageOutFails) {
  GramJob job = simple_job(1.0);
  job.proxy = *vo::issue_proxy(voms, alice_cert, sim.now(),
                               Time::minutes(30));  // outlived by the job
  job.stage_out = Bytes::gb(1);
  job.stage_out_dest = &data_ftp;
  std::optional<GramResult> result;
  gk.submit(std::move(job), [&](const GramResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, GramStatus::kProxyExpired);
}

TEST_F(GramTest, ScratchExhaustionReportsDiskFull) {
  scratch.consume_unmanaged(Bytes::tb(1));
  GramJob job = simple_job(1.0);
  job.scratch = Bytes::gb(5);
  std::optional<GramResult> result;
  gk.submit(std::move(job), [&](const GramResult& r) { result = r; });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, GramStatus::kDiskFull);
  EXPECT_TRUE(is_site_problem(result->status));
}

TEST_F(GramTest, ScratchReleasedAfterCompletion) {
  GramJob job = simple_job(1.0);
  job.scratch = Bytes::gb(10);
  gk.submit(std::move(job), {});
  EXPECT_EQ(scratch.used(), Bytes::gb(10));
  sim.run();
  EXPECT_EQ(scratch.used(), Bytes::zero());
}

TEST_F(GramTest, WalltimeKillSurfacesAsJobKilled) {
  std::optional<GramResult> result;
  gk.submit(simple_job(10.0, 2.0), [&](const GramResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, GramStatus::kJobKilled);
  EXPECT_EQ(result->outcome.state, batch::JobState::kKilledWalltime);
}

TEST_F(GramTest, LoadModelMatchesPaperCoefficient) {
  // ~1000 managed no-staging jobs -> sustained 1-minute load ~225.
  // Spread the submissions over half an hour so the burst term stays
  // below the overload threshold (as production submission did).
  for (int i = 0; i < 1000; ++i) {
    // 30 h jobs fit the 48 h queue limit, so all jobs stay managed.
    sim.schedule_at(Time::seconds(i * 1.8),
                    [this] { gk.submit(simple_job(30.0), {}); });
  }
  // Let the burst term decay: advance past the last submission.
  sim.run_until(Time::minutes(32));
  EXPECT_EQ(gk.managed_jobs(), 1000u);
  EXPECT_NEAR(gk.one_minute_load(), 225.0, 5.0);
}

TEST_F(GramTest, StagingFactorsFromSection64) {
  EXPECT_DOUBLE_EQ(staging_load_factor(Bytes::zero(), Bytes::zero()), 1.0);
  EXPECT_DOUBLE_EQ(staging_load_factor(Bytes::mb(100), Bytes::zero()), 2.0);
  EXPECT_DOUBLE_EQ(staging_load_factor(Bytes::gb(1), Bytes::gb(1)), 3.0);
  EXPECT_DOUBLE_EQ(staging_load_factor(Bytes::gb(4), Bytes::gb(1)), 4.0);
}

TEST_F(GramTest, OverloadSheddsNewSubmissions) {
  GatekeeperConfig tight{.site = "SITE", .overload_threshold = 50.0,
                         .submission_flake_rate = 0.0, .app_error_rate = 0.0};
  Gatekeeper small_gk{sim, tight, lrms, gridmap, ca,
                      ftp_client, site_ftp, scratch};
  int overloaded = 0;
  for (int i = 0; i < 400; ++i) {
    small_gk.submit(simple_job(100.0), [&](const GramResult& r) {
      if (r.status == GramStatus::kGatekeeperOverloaded) ++overloaded;
    });
  }
  EXPECT_GT(overloaded, 0);
  EXPECT_GT(small_gk.overload_rejections(), 0u);
  EXPECT_LT(small_gk.managed_jobs(), 400u);
}

TEST_F(GramTest, CondorGRetriesTransientOverload) {
  GatekeeperConfig tight{.site = "SITE", .overload_threshold = 12.0,
                         .submission_flake_rate = 0.0, .app_error_rate = 0.0};
  Gatekeeper small_gk{sim, tight, lrms, gridmap, ca,
                      ftp_client, site_ftp, scratch};
  CondorG condor_g{
      sim, {.retry = {.base = Time::minutes(2), .max_retries = 5}}};
  // A burst of 40 short jobs overloads the gatekeeper; Condor-G retries
  // shed load across backoff windows and eventually land everything.
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    condor_g.submit_to(small_gk, simple_job(0.1), [&](const GramResult& r) {
      if (r.ok()) ++completed;
    });
  }
  sim.run();
  EXPECT_GT(condor_g.retries(), 0u);
  EXPECT_EQ(completed, 40);
}

TEST_F(GramTest, EveryTerminalPathEndsTheJobOnce) {
  // Scratch starts 100 GB short of empty, so one job's footprint cannot
  // fit; every other job holds 1 GB of it until it ends.
  scratch.consume_unmanaged(Bytes::tb(1) - Bytes::gb(100));
  const Bytes free_at_start = scratch.free();
  gridftp::GridFtpServer dead_ftp{"DEAD", data_node};
  dead_ftp.set_available(false);
  srm::DiskVolume full_se{"DATA:/full", Bytes::gb(1)};
  // The application-error rate has no setter: a second gatekeeper on the
  // same LRMS and scratch spoils every job that completes there, and its
  // tight load threshold refuses its second submission as overloaded.
  Gatekeeper spoiler{sim,
                     {.site = "SITE",
                      .overload_threshold = 0.5,
                      .submission_flake_rate = 0.0,
                      .app_error_rate = 1.0},
                     lrms, gridmap, ca, ftp_client, site_ftp, scratch};

  std::map<std::string, std::vector<GramStatus>> ended;
  auto submit = [&](Gatekeeper& g, const std::string& path, GramJob job) {
    if (job.scratch == Bytes::zero()) job.scratch = Bytes::gb(1);
    g.submit(std::move(job), [&ended, path](const GramResult& r) {
      ended[path].push_back(r.status);
    });
  };

  submit(gk, "completed", simple_job(1.0));
  gk.set_available(false);
  submit(gk, "down", simple_job(1.0));
  gk.set_available(true);
  gk.set_submission_flake_rate(1.0);
  submit(gk, "flaked", simple_job(1.0));
  gk.set_submission_flake_rate(0.0);
  GramJob stranger = simple_job(1.0);
  stranger.proxy.identity.subject_dn = "/CN=mallory";
  submit(gk, "authentication", std::move(stranger));
  GramJob huge = simple_job(1.0);
  huge.scratch = Bytes::gb(200);
  submit(gk, "scratch-full", std::move(huge));
  GramJob unstaged = simple_job(1.0);
  unstaged.stage_in = Bytes::gb(1);
  unstaged.stage_in_source = &dead_ftp;
  submit(gk, "stage-in", std::move(unstaged));
  submit(gk, "lrms-rejected", simple_job(1.0, 100.0));  // over the 48 h limit
  submit(gk, "walltime-kill", simple_job(10.0, 2.0));
  // The only job that leaves the LRMS between 4.5 h and 5.5 h, while the
  // site environment is broken.
  submit(gk, "environment", simple_job(5.0));
  sim.schedule_at(Time::hours(4.5),
                  [this] { gk.set_environment_error_rate(1.0); });
  sim.schedule_at(Time::hours(5.5),
                  [this] { gk.set_environment_error_rate(0.0); });
  GramJob lapsing = simple_job(1.0);
  lapsing.proxy = *vo::issue_proxy(voms, alice_cert, sim.now(),
                                   Time::minutes(30));
  lapsing.stage_out = Bytes::gb(1);
  lapsing.stage_out_dest = &data_ftp;
  submit(gk, "proxy-expired", std::move(lapsing));
  GramJob archiving = simple_job(1.0);
  archiving.stage_out = Bytes::gb(2);
  archiving.stage_out_dest = &data_ftp;
  archiving.stage_out_volume = &full_se;
  submit(gk, "stage-out-full-se", std::move(archiving));
  submit(spoiler, "application", simple_job(1.0));
  submit(spoiler, "overloaded", simple_job(1.0));
  sim.run();

  const std::map<std::string, GramStatus> want = {
      {"completed", GramStatus::kCompleted},
      {"down", GramStatus::kGatekeeperDown},
      {"flaked", GramStatus::kGatekeeperDown},
      {"authentication", GramStatus::kAuthenticationFailed},
      {"scratch-full", GramStatus::kDiskFull},
      {"stage-in", GramStatus::kStageInFailed},
      {"lrms-rejected", GramStatus::kSubmitRejected},
      {"walltime-kill", GramStatus::kJobKilled},
      {"environment", GramStatus::kEnvironmentError},
      {"proxy-expired", GramStatus::kProxyExpired},
      {"stage-out-full-se", GramStatus::kDiskFull},
      {"application", GramStatus::kApplicationError},
      {"overloaded", GramStatus::kGatekeeperOverloaded},
  };
  EXPECT_EQ(ended.size(), want.size());
  for (const auto& [path, status] : want) {
    SCOPED_TRACE(path);
    ASSERT_EQ(ended[path].size(), 1u);  // the callback fired exactly once
    EXPECT_EQ(ended[path].front(), status) << to_string(ended[path].front());
  }
  for (const Gatekeeper* g : {&gk, &spoiler}) {
    EXPECT_EQ(g->submissions(), g->completions() + g->failures());
    EXPECT_EQ(g->managed_jobs(), 0u);
  }
  EXPECT_EQ(gk.completions(), 1u);
  EXPECT_EQ(gk.stage_out_no_space(), 1u);
  EXPECT_EQ(scratch.free(), free_at_start);
}

TEST_F(GramTest, TransientClassification) {
  EXPECT_TRUE(is_transient(GramStatus::kGatekeeperOverloaded));
  EXPECT_TRUE(is_transient(GramStatus::kGatekeeperDown));
  EXPECT_TRUE(is_transient(GramStatus::kDiskFull));
  EXPECT_FALSE(is_transient(GramStatus::kAuthenticationFailed));
  EXPECT_FALSE(is_transient(GramStatus::kSubmitRejected));
}

}  // namespace
}  // namespace grid3::gram
