// GRAM gatekeeper and jobmanager lifecycle.
//
// Every grid job passes through the site gatekeeper: GSI authentication
// against the grid-map file, stage-in over GridFTP, hand-off to the
// local batch scheduler, and stage-out of outputs.  The gatekeeper host
// load follows the paper's section 6.4 analysis:
//
//   "a typical gatekeeper using a queue manager will experience a
//    sustained one minute load of ~225 when managing ~1000 computational
//    jobs.  This load can sharply increase when the job submission
//    frequency is high ... For computational jobs that only require a
//    minimal amount of production node file staging, a factor of two can
//    be applied to the sustained load; on the other hand computational
//    jobs requiring a substantial amount of file staging the factor can
//    increase to three or four."
//
// i.e. load = 0.225 * sum_over_managed_jobs(staging_factor) + burst term,
// with staging_factor 1 (none), 2 (minimal), 3 (substantial), 4 (heavy).
// Above an overload threshold new submissions start timing out -- the
// "gatekeeper overloading" failures of section 6.1.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "batch/scheduler.h"
#include "gridftp/gridftp.h"
#include "net/network.h"
#include "srm/disk.h"
#include "srm/srm.h"
#include "util/rng.h"
#include "util/units.h"
#include "vo/gridmap.h"
#include "vo/voms.h"

namespace grid3::gram {

enum class GramStatus {
  kCompleted,
  kAuthenticationFailed,  ///< no grid-map entry / bad proxy
  kGatekeeperDown,
  kGatekeeperOverloaded,
  kStageInFailed,
  kSubmitRejected,   ///< LRMS refused (walltime, policy)
  kJobKilled,        ///< walltime or node failure at the LRMS
  kStageOutFailed,
  kProxyExpired,     ///< credential lapsed before stage-out
  kDiskFull,         ///< scratch allocation failed
  kApplicationError, ///< the job itself crashed (bad code/data; not site)
  kEnvironmentError, ///< broken site environment (latent misconfiguration)
};

[[nodiscard]] const char* to_string(GramStatus s);
/// Paper section 6.1 classifies ~90% of failures as site problems; this
/// mirrors that taxonomy (true = the site, not the application/user).
[[nodiscard]] bool is_site_problem(GramStatus s);

/// Staging intensity classes from section 6.4.
[[nodiscard]] double staging_load_factor(Bytes stage_in, Bytes stage_out);

struct GramJob {
  vo::VomsProxy proxy;
  batch::JobRequest request;
  Bytes stage_in;                 ///< input to pull before the job runs
  Bytes stage_out;                ///< output to push after success
  gridftp::GridFtpServer* stage_in_source = nullptr;   ///< null = no stage-in
  gridftp::GridFtpServer* stage_out_dest = nullptr;    ///< null = no stage-out
  /// Destination-SE space accounting for the stage-out (null = unmanaged
  /// archive).  When a placement lease pre-reserved SRM space, the bytes
  /// land inside `stage_out_reservation` and the TOCTOU window is closed;
  /// a full destination surfaces as kDiskFull (transient -> the broker
  /// re-matches) rather than a generic stage-out failure.
  srm::DiskVolume* stage_out_volume = nullptr;
  srm::StorageResourceManager* stage_out_srm = nullptr;
  srm::ReservationId stage_out_reservation = 0;
  Bytes scratch;                  ///< working-directory footprint
};

struct GramResult {
  GramStatus status = GramStatus::kGatekeeperDown;
  std::string gram_contact;  ///< "<site>/jobmanager/<id>"
  batch::JobOutcome outcome; ///< valid when the job reached the LRMS
  Time submitted;
  Time finished;
  int stage_attempts = 0;
  [[nodiscard]] bool ok() const { return status == GramStatus::kCompleted; }
};

using GramCallback = std::function<void(const GramResult&)>;

struct GatekeeperConfig {
  std::string site;
  /// Load above which new submissions start failing.
  double overload_threshold = 400.0;
  /// Probability a submission bounces off a flaky jobmanager (transient
  /// GRAM errors; a site problem, retried by DAGMan and visible in the
  /// accounting, as on the real grid).
  double submission_flake_rate = 0.05;
  /// Probability a completed job is spoiled by its own application
  /// (user error; not a site problem).
  double app_error_rate = 0.02;
  /// Probability a completed job dies to a broken site environment
  /// (latent install misconfigurations; a site problem).  Sites set this
  /// from their install reports.
  double environment_error_rate = 0.0;
};

/// The gatekeeper service at one site.
class Gatekeeper {
 public:
  /// Load contribution of one submission burst unit (decays over a
  /// minute).
  static constexpr double kBurstWeight = 0.4;

  Gatekeeper(sim::Simulation& sim, GatekeeperConfig cfg,
             batch::BatchScheduler& lrms, const vo::GridMapFile& gridmap,
             const vo::CertificateAuthority& ca,
             gridftp::GridFtpClient& ftp_client,
             gridftp::GridFtpServer& local_ftp, srm::DiskVolume& scratch);

  Gatekeeper(const Gatekeeper&) = delete;
  Gatekeeper& operator=(const Gatekeeper&) = delete;

  /// Submit a grid job.  The callback fires exactly once with the final
  /// disposition.
  void submit(GramJob job, GramCallback done);

  /// One-minute load average per the section 6.4 model.
  [[nodiscard]] double one_minute_load() const;

  /// Highest one-minute load observed at any submission, over the
  /// gatekeeper's lifetime (the overload-ablation headline number).
  [[nodiscard]] double peak_one_minute_load() const { return peak_load_; }

  /// Burst arrival accounting: submissions that landed within the last
  /// minute (each contributes kBurstWeight to the section 6.4 load),
  /// and the lifetime peak of that count.  Gang matching predicts its
  /// burst impact from exactly this term: submitting a whole DAG level
  /// at once adds width * kBurstWeight in one minute, which the broker
  /// caps against its load ceiling before binding the gang.
  [[nodiscard]] std::size_t arrivals_last_minute() const;
  [[nodiscard]] std::size_t peak_one_minute_arrivals() const {
    return peak_arrivals_;
  }

  [[nodiscard]] std::size_t managed_jobs() const { return managed_.size(); }
  [[nodiscard]] const std::string& site() const { return cfg_.site; }
  [[nodiscard]] const GatekeeperConfig& config() const { return cfg_; }

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

  /// Install quality wiring: latent misconfigurations raise the chance
  /// that otherwise-successful jobs die to the site environment and make
  /// the jobmanager itself flakier.
  void set_environment_error_rate(double rate) {
    cfg_.environment_error_rate = rate;
  }
  void set_submission_flake_rate(double rate) {
    cfg_.submission_flake_rate = rate;
  }

  // Accounting.
  [[nodiscard]] std::uint64_t submissions() const { return submissions_; }
  [[nodiscard]] std::uint64_t completions() const { return completions_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  [[nodiscard]] std::uint64_t overload_rejections() const {
    return overload_rejections_;
  }
  /// Stage-out attempts that died to a full destination SE -- the
  /// failure class placement leases convert into match-time rejections.
  [[nodiscard]] std::uint64_t stage_out_no_space() const {
    return stage_out_no_space_;
  }

 private:
  struct Managed {
    std::uint64_t id = 0;  ///< 0 = refused before a jobmanager existed
    GramJob job;
    GramCallback done;
    Time submitted;
    double staging_factor = 1.0;
    bool scratch_held = false;
  };

  void record_burst();
  [[nodiscard]] double burst_load() const;
  /// Remove a managed job from the table for end().
  [[nodiscard]] Managed take(std::uint64_t id);
  /// The one exit of every submission: releases the job's scratch,
  /// counts a completion or a failure, and fires the callback with
  /// `status`, the batch outcome when the job ended in the LRMS, and the
  /// stage-in/out transfer attempts.
  void end(Managed m, GramStatus status,
           const batch::JobOutcome* outcome = nullptr,
           int stage_attempts = 0);
  void stage_in(std::uint64_t id);
  void to_lrms(std::uint64_t id);
  void stage_out(std::uint64_t id, const batch::JobOutcome& outcome);
  [[nodiscard]] std::string contact_for(std::uint64_t id) const;

  sim::Simulation& sim_;
  GatekeeperConfig cfg_;
  batch::BatchScheduler& lrms_;
  const vo::GridMapFile& gridmap_;
  const vo::CertificateAuthority& ca_;
  gridftp::GridFtpClient& ftp_;
  gridftp::GridFtpServer& local_ftp_;
  srm::DiskVolume& scratch_;
  bool up_ = true;
  util::Rng rng_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Managed> managed_;
  std::deque<Time> recent_submissions_;  ///< for the burst term
  std::uint64_t submissions_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t overload_rejections_ = 0;
  std::uint64_t stage_out_no_space_ = 0;
  double peak_load_ = 0.0;
  std::size_t peak_arrivals_ = 0;  ///< max submissions in any one minute
};

}  // namespace grid3::gram
