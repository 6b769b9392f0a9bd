#include "gram/gatekeeper.h"

#include <algorithm>
#include <cassert>

namespace grid3::gram {

namespace {

/// Sustained per-job load coefficient from the paper (225/1000).
constexpr double kPerJobLoad = 0.225;
/// Seed of every gatekeeper's RNG (flake, environment and application
/// draws).  The same at every site and for every scenario seed.
constexpr std::uint64_t kRngSeed = 0x6a0b5;

}  // namespace

const char* to_string(GramStatus s) {
  switch (s) {
    case GramStatus::kCompleted: return "completed";
    case GramStatus::kAuthenticationFailed: return "authentication-failed";
    case GramStatus::kGatekeeperDown: return "gatekeeper-down";
    case GramStatus::kGatekeeperOverloaded: return "gatekeeper-overloaded";
    case GramStatus::kStageInFailed: return "stage-in-failed";
    case GramStatus::kSubmitRejected: return "submit-rejected";
    case GramStatus::kJobKilled: return "job-killed";
    case GramStatus::kStageOutFailed: return "stage-out-failed";
    case GramStatus::kProxyExpired: return "proxy-expired";
    case GramStatus::kDiskFull: return "disk-full";
    case GramStatus::kApplicationError: return "application-error";
    case GramStatus::kEnvironmentError: return "environment-error";
  }
  return "?";
}

bool is_site_problem(GramStatus s) {
  switch (s) {
    case GramStatus::kGatekeeperDown:
    case GramStatus::kGatekeeperOverloaded:
    case GramStatus::kStageInFailed:
    case GramStatus::kJobKilled:
    case GramStatus::kStageOutFailed:
    case GramStatus::kDiskFull:
    case GramStatus::kEnvironmentError:
      return true;
    case GramStatus::kCompleted:
    case GramStatus::kAuthenticationFailed:
    case GramStatus::kSubmitRejected:
    case GramStatus::kProxyExpired:
    case GramStatus::kApplicationError:
      return false;
  }
  return false;
}

double staging_load_factor(Bytes stage_in, Bytes stage_out) {
  const Bytes total = stage_in + stage_out;
  if (total == Bytes::zero()) return 1.0;
  if (total < Bytes::mb(500)) return 2.0;
  if (total < Bytes::gb(4)) return 3.0;
  return 4.0;
}

Gatekeeper::Gatekeeper(sim::Simulation& sim, GatekeeperConfig cfg,
                       batch::BatchScheduler& lrms,
                       const vo::GridMapFile& gridmap,
                       const vo::CertificateAuthority& ca,
                       gridftp::GridFtpClient& ftp_client,
                       gridftp::GridFtpServer& local_ftp,
                       srm::DiskVolume& scratch)
    : sim_{sim},
      cfg_{std::move(cfg)},
      lrms_{lrms},
      gridmap_{gridmap},
      ca_{ca},
      ftp_{ftp_client},
      local_ftp_{local_ftp},
      scratch_{scratch},
      rng_{kRngSeed} {}

void Gatekeeper::record_burst() {
  recent_submissions_.push_back(sim_.now());
}

std::size_t Gatekeeper::arrivals_last_minute() const {
  const Time cutoff = sim_.now() - Time::minutes(1);
  std::size_t n = 0;
  for (auto it = recent_submissions_.rbegin();
       it != recent_submissions_.rend() && *it >= cutoff; ++it) {
    ++n;
  }
  return n;
}

double Gatekeeper::burst_load() const {
  // Submissions within the last minute each add kBurstWeight.
  return kBurstWeight * static_cast<double>(arrivals_last_minute());
}

double Gatekeeper::one_minute_load() const {
  double sustained = 0.0;
  for (const auto& [id, m] : managed_) {
    sustained += kPerJobLoad * m.staging_factor;
  }
  return sustained + burst_load();
}

std::string Gatekeeper::contact_for(std::uint64_t id) const {
  return cfg_.site + "/jobmanager/" + std::to_string(id);
}

void Gatekeeper::submit(GramJob job, GramCallback done) {
  ++submissions_;
  const Time now = sim_.now();
  // Refusals before a jobmanager exists end with no contact (id 0).
  Managed m;
  m.done = std::move(done);
  m.submitted = now;

  if (!up_) {
    end(std::move(m), GramStatus::kGatekeeperDown);
    return;
  }
  // Trim the burst window lazily, then check overload *including* this
  // submission attempt (connecting costs load even when refused).
  while (!recent_submissions_.empty() &&
         recent_submissions_.front() < now - Time::minutes(1)) {
    recent_submissions_.pop_front();
  }
  record_burst();
  peak_load_ = std::max(peak_load_, one_minute_load());
  peak_arrivals_ = std::max(peak_arrivals_, arrivals_last_minute());
  if (one_minute_load() > cfg_.overload_threshold) {
    ++overload_rejections_;
    end(std::move(m), GramStatus::kGatekeeperOverloaded);
    return;
  }
  // Flaky jobmanagers bounce a fraction of submissions outright (the
  // transient GRAM errors every Grid3 operator chased).
  if (rng_.chance(cfg_.submission_flake_rate)) {
    end(std::move(m), GramStatus::kGatekeeperDown);
    return;
  }
  // GSI: proxy validity, CA chain on the identity, grid-map entry.
  if (!job.proxy.valid(now) || !ca_.verify(job.proxy.identity, now)) {
    end(std::move(m), GramStatus::kAuthenticationFailed);
    return;
  }
  const auto account = gridmap_.map(job.proxy.identity.subject_dn);
  if (!account.has_value() || account->vo != job.proxy.vo) {
    end(std::move(m), GramStatus::kAuthenticationFailed);
    return;
  }

  const std::uint64_t id = next_id_++;
  m.id = id;
  m.staging_factor = staging_load_factor(job.stage_in, job.stage_out);
  m.job = std::move(job);
  // Claim scratch space for the working directory + staged input.
  const Bytes footprint = m.job.scratch + m.job.stage_in;
  if (footprint > Bytes::zero()) {
    if (!scratch_.allocate(footprint)) {
      end(std::move(m), GramStatus::kDiskFull);
      return;
    }
    m.scratch_held = true;
  }
  managed_.emplace(id, std::move(m));
  stage_in(id);
}

void Gatekeeper::stage_in(std::uint64_t id) {
  Managed& m = managed_.at(id);
  if (m.job.stage_in == Bytes::zero() || m.job.stage_in_source == nullptr) {
    to_lrms(id);
    return;
  }
  gridftp::TransferRequest req;
  req.src = m.job.stage_in_source;
  req.dst = &local_ftp_;
  req.size = m.job.stage_in;
  req.lfn = "stage-in/" + contact_for(id);
  // Scratch was already claimed at submission, so no volume double-count.
  ftp_.transfer(std::move(req), [this, id](const gridftp::TransferRecord& t) {
    auto it = managed_.find(id);
    if (it == managed_.end()) return;
    if (!t.ok()) {
      end(take(id), GramStatus::kStageInFailed, nullptr, t.attempts);
      return;
    }
    to_lrms(id);
  });
}

void Gatekeeper::to_lrms(std::uint64_t id) {
  Managed& m = managed_.at(id);
  // A refusal fires the callback with kRejected before submit returns.
  lrms_.submit(
      m.job.request, [this, id](const batch::JobOutcome& outcome) {
        auto it = managed_.find(id);
        if (it == managed_.end()) return;
        switch (outcome.state) {
          case batch::JobState::kCompleted: {
            // The batch job ended, but production steps can still have
            // spoiled the output: broken site environments (latent
            // misconfigurations) and plain application crashes.
            if (rng_.chance(cfg_.environment_error_rate)) {
              end(take(id), GramStatus::kEnvironmentError);
              return;
            }
            if (rng_.chance(cfg_.app_error_rate)) {
              end(take(id), GramStatus::kApplicationError);
              return;
            }
            stage_out(id, outcome);
            return;
          }
          case batch::JobState::kRejected:
            end(take(id), GramStatus::kSubmitRejected);
            return;
          default:
            end(take(id), GramStatus::kJobKilled, &outcome);
            return;
        }
      });
}

void Gatekeeper::stage_out(std::uint64_t id, const batch::JobOutcome& outcome) {
  Managed& m = managed_.at(id);
  if (m.job.stage_out == Bytes::zero() || m.job.stage_out_dest == nullptr) {
    end(take(id), GramStatus::kCompleted, &outcome);
    return;
  }
  // Credential check: long jobs outlive default proxies.
  if (!m.job.proxy.valid(sim_.now())) {
    end(take(id), GramStatus::kProxyExpired);
    return;
  }
  gridftp::TransferRequest req;
  req.src = &local_ftp_;
  req.dst = m.job.stage_out_dest;
  req.size = m.job.stage_out;
  req.lfn = "stage-out/" + contact_for(id);
  // Destination-SE accounting: a placement lease's SRM reservation when
  // one was acquired, else the raw volume (TOCTOU path).
  req.dest_volume = m.job.stage_out_volume;
  req.dest_srm = m.job.stage_out_srm;
  req.reservation = m.job.stage_out_reservation;
  ftp_.transfer(std::move(req),
                [this, id, outcome](const gridftp::TransferRecord& t) {
                  auto it = managed_.find(id);
                  if (it == managed_.end()) return;
                  if (!t.ok()) {
                    const bool no_space =
                        t.status == gridftp::TransferStatus::kFailedNoSpace;
                    if (no_space) ++stage_out_no_space_;
                    end(take(id),
                        no_space ? GramStatus::kDiskFull
                                 : GramStatus::kStageOutFailed,
                        nullptr, t.attempts);
                    return;
                  }
                  end(take(id), GramStatus::kCompleted, &outcome);
                });
}

Gatekeeper::Managed Gatekeeper::take(std::uint64_t id) {
  auto node = managed_.extract(id);
  assert(!node.empty());
  return std::move(node.mapped());
}

void Gatekeeper::end(Managed m, GramStatus status,
                     const batch::JobOutcome* outcome, int stage_attempts) {
  if (m.scratch_held) scratch_.release(m.job.scratch + m.job.stage_in);
  ++(status == GramStatus::kCompleted ? completions_ : failures_);
  GramResult r;
  r.status = status;
  if (m.id != 0) r.gram_contact = contact_for(m.id);
  if (outcome != nullptr) r.outcome = *outcome;
  r.submitted = m.submitted;
  r.finished = sim_.now();
  r.stage_attempts = stage_attempts;
  if (m.done) m.done(r);
}

}  // namespace grid3::gram
