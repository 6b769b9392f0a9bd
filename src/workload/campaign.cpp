#include "workload/campaign.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/calendar.h"
#include "workflow/planner.h"
#include "workflow/vdc.h"

namespace grid3::workload {

std::uint64_t fnv1a64(std::string_view s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string digest_hex(std::uint64_t h) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

const char* to_string(DagShape s) {
  switch (s) {
    case DagShape::kAssignmentChain: return "assignment-chain";
    case DagShape::kFlatProduction: return "flat-production";
    case DagShape::kBackfill: return "backfill";
  }
  return "?";
}

double ArrivalSpec::base_rate_per_day(Time t) const {
  const int mi = util::month_index_at(t);
  if (mi < 0 || mi >= months()) return 0.0;
  const util::CalendarDate d = util::date_at(t);
  const double days =
      static_cast<double>(util::days_in_month(d.year, d.month));
  return monthly[static_cast<std::size_t>(mi)] * scale / days;
}

namespace {

/// Assignment chains: validate/merge runtimes as fractions of the
/// workflow's mean production-job runtime.
constexpr double kValidateFraction = 0.08;
constexpr double kMergeFraction = 0.25;

/// Diurnal factor at t: 1 + A * cos(2pi * (hour - peak) / 24).
double diurnal_factor(const ArrivalSpec& spec, Time t) {
  if (spec.diurnal_amplitude <= 0.0) return 1.0;
  const double hour =
      std::fmod(t.to_hours(), 24.0);  // epoch is midnight, so this is
                                      // local time-of-day directly
  constexpr double kTwoPi = 6.283185307179586;
  return 1.0 + spec.diurnal_amplitude *
                   std::cos(kTwoPi * (hour - spec.diurnal_peak_hour) / 24.0);
}

}  // namespace

ThinningSampler::ThinningSampler(ArrivalSpec spec, util::Rng rng)
    : spec_{std::move(spec)},
      end_{util::month_start(spec_.months())},
      rng_{rng} {
  double peak_monthly = 0.0;
  for (const double m : spec_.monthly) peak_monthly = std::max(peak_monthly, m);
  // Shortest month is 28 days; using it for the envelope keeps the
  // acceptance ratio <= 1 in every month.
  envelope_ = peak_monthly * spec_.scale / 28.0;
  envelope_ *= 1.0 + std::max(0.0, spec_.diurnal_amplitude);
  if (spec_.bursts_per_month > 0.0 && spec_.burst_multiplier > 1.0) {
    envelope_ *= spec_.burst_multiplier;
  }
  // Burst windows, drawn up front so rate_per_day() is a pure function
  // of t afterwards (the thinning loop needs that).
  if (spec_.bursts_per_month > 0.0) {
    for (int m = 0; m < spec_.months(); ++m) {
      const Time from = util::month_start(m);
      const Time to = util::month_start(m + 1);
      // Poisson count via exponential gaps in "burst index" space.
      double acc = rng_.exponential(1.0);
      while (acc < spec_.bursts_per_month) {
        const Time start =
            from + (to - from) * rng_.uniform(0.0, 1.0);
        bursts_.emplace_back(start, start + spec_.burst_duration);
        acc += rng_.exponential(1.0);
      }
    }
    std::sort(bursts_.begin(), bursts_.end());
  }
}

double ThinningSampler::rate_per_day(Time t) const {
  double rate = spec_.base_rate_per_day(t) * diurnal_factor(spec_, t);
  for (const auto& [from, to] : bursts_) {
    if (t >= from && t < to) {
      rate *= spec_.burst_multiplier;
      break;
    }
    if (from > t) break;  // sorted; no later window can contain t
  }
  return rate;
}

std::optional<Time> ThinningSampler::next(Time t) {
  if (envelope_ <= 0.0) return std::nullopt;
  Time cursor = t;
  while (cursor < end_) {
    const Time gap = Time::days(rng_.exponential(1.0 / envelope_));
    cursor += std::max(gap, Time::micros(1));
    if (cursor >= end_) break;
    const double accept = rate_per_day(cursor) / envelope_;
    if (rng_.uniform() < accept) return cursor;
  }
  return std::nullopt;
}

std::string CampaignSpec::serialize() const {
  std::ostringstream os;
  os << "campaign vo=" << vo << " app=" << app
     << " required_app=" << required_app << " lfn=" << lfn_prefix
     << " shape=" << to_string(shape.shape) << " width=[" << shape.width_min
     << "," << shape.width_max << "]"
     << " months=" << arrivals.months() << " scale=" << arrivals.scale
     << " diurnal=" << arrivals.diurnal_amplitude << "@"
     << arrivals.diurnal_peak_hour << " bursts=" << arrivals.bursts_per_month
     << "x" << arrivals.burst_multiplier << " archive=" << archive_site;
  for (const std::string& fb : archive_fallbacks) os << "+" << fb;
  os << " monthly=";
  for (std::size_t i = 0; i < arrivals.monthly.size(); ++i) {
    os << (i > 0 ? "," : "") << arrivals.monthly[i];
  }
  return os.str();
}

CampaignGenerator::CampaignGenerator(CampaignSpec spec, std::uint64_t seed)
    : spec_{std::move(spec)},
      // Independent streams for arrivals and shapes: inserting a draw
      // into one never shifts the other.
      sampler_{spec_.arrivals, util::Rng{seed ^ 0xa77e5ca1edULL}},
      shape_rng_{seed ^ 0x5ca1ab1e5ULL} {}

std::optional<WorkflowBlueprint> CampaignGenerator::next() {
  const std::optional<Time> at = sampler_.next(cursor_);
  if (!at.has_value()) return std::nullopt;
  cursor_ = *at;

  WorkflowBlueprint wf;
  wf.at = *at;
  wf.seq = ++seq_;
  const std::string tag =
      spec_.lfn_prefix + "/" + std::to_string(wf.seq);
  const ShapeSpec& sh = spec_.shape;
  const int width =
      sh.shape == DagShape::kBackfill
          ? 1
          : static_cast<int>(shape_rng_.uniform_int(sh.width_min,
                                                    sh.width_max));

  double runtime_sum = 0.0;
  double output_sum = 0.0;
  std::vector<std::string> prod_outputs;
  for (int i = 0; i < width; ++i) {
    JobBlueprint job;
    job.id = "prod-" + std::to_string(wf.seq) + "-" + std::to_string(i);
    job.transformation = spec_.app + "-prod";
    job.outputs = {tag + "/part-" + std::to_string(i)};
    job.runtime_hours = sh.runtime_hours.sample(shape_rng_);
    job.output_gb = sh.output_gb.sample(shape_rng_);
    job.scratch_gb = sh.scratch_gb;
    runtime_sum += job.runtime_hours;
    output_sum += job.output_gb;
    prod_outputs.push_back(job.outputs.front());
    wf.jobs.push_back(std::move(job));
  }

  switch (sh.shape) {
    case DagShape::kFlatProduction:
    case DagShape::kBackfill:
      wf.targets = prod_outputs;
      break;
    case DagShape::kAssignmentChain: {
      const double mean_runtime = runtime_sum / width;
      JobBlueprint validate;
      validate.id = "validate-" + std::to_string(wf.seq);
      validate.transformation = spec_.app + "-validate";
      validate.inputs = prod_outputs;
      validate.outputs = {tag + "/validated"};
      validate.runtime_hours = mean_runtime * kValidateFraction;
      validate.output_gb = 0.01;
      validate.scratch_gb = sh.scratch_gb;
      wf.jobs.push_back(validate);

      JobBlueprint merge;
      merge.id = "merge-" + std::to_string(wf.seq);
      merge.transformation = spec_.app + "-merge";
      merge.inputs = prod_outputs;
      merge.inputs.push_back(validate.outputs.front());
      merge.outputs = {tag + "/merged"};
      merge.runtime_hours = mean_runtime * kMergeFraction;
      merge.output_gb = output_sum * 0.8;
      merge.scratch_gb = sh.scratch_gb + output_sum;
      wf.targets = merge.outputs;
      wf.jobs.push_back(std::move(merge));
      break;
    }
  }
  return wf;
}

std::string CampaignGenerator::serialize(const WorkflowBlueprint& wf) {
  std::ostringstream os;
  os << "wf seq=" << wf.seq << " at_us=" << wf.at.ticks() << "\n";
  for (const JobBlueprint& j : wf.jobs) {
    os << "  job id=" << j.id << " xf=" << j.transformation
       << " runtime_us=" << Time::hours(j.runtime_hours).ticks()
       << " out_b=" << Bytes::gb(j.output_gb).count() << " in=";
    for (std::size_t i = 0; i < j.inputs.size(); ++i) {
      os << (i > 0 ? "," : "") << j.inputs[i];
    }
    os << " out=";
    for (std::size_t i = 0; i < j.outputs.size(); ++i) {
      os << (i > 0 ? "," : "") << j.outputs[i];
    }
    os << "\n";
  }
  return os.str();
}

CampaignDriver::CampaignDriver(core::Grid3& grid, CampaignSpec spec,
                               std::uint64_t seed)
    : apps::AppBase{grid, spec.vo, spec.app},
      spec_{std::move(spec)},
      gen_{spec_, seed} {}

CampaignDriver::~CampaignDriver() { stop(); }

void CampaignDriver::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void CampaignDriver::stop() {
  running_ = false;
  if (pending_ != 0) {
    sim().cancel(pending_);
    pending_ = 0;
  }
}

void CampaignDriver::arm() {
  if (!running_) return;
  std::optional<WorkflowBlueprint> wf = gen_.next();
  // Arrivals before the driver started are skipped, not replayed late:
  // the campaign joined in progress.
  while (wf.has_value() && wf->at < sim().now()) wf = gen_.next();
  if (!wf.has_value()) {
    running_ = false;
    return;
  }
  pending_ = sim().schedule_at(wf->at, [this, wf = std::move(*wf)] {
    pending_ = 0;
    if (!running_) return;
    launch_blueprint(wf);
    arm();
  });
}

void CampaignDriver::launch_blueprint(const WorkflowBlueprint& wf) {
  workflow::VirtualDataCatalog vdc;
  // One transformation per distinct name (re-adding is harmless but
  // keeps the catalog minimal).
  std::vector<std::string> seen;
  for (const JobBlueprint& j : wf.jobs) {
    if (std::find(seen.begin(), seen.end(), j.transformation) == seen.end()) {
      vdc.add_transformation({j.transformation, "1", spec_.required_app});
      seen.push_back(j.transformation);
    }
  }
  for (const JobBlueprint& j : wf.jobs) {
    vdc.add_derivation({.id = j.id,
                        .transformation = j.transformation,
                        .inputs = j.inputs,
                        .outputs = j.outputs,
                        .runtime = Time::hours(j.runtime_hours),
                        .output_size = Bytes::gb(j.output_gb),
                        .scratch = Bytes::gb(j.scratch_gb)});
  }
  const std::optional<workflow::AbstractDag> dag = vdc.request(wf.targets);
  if (!dag.has_value()) return;

  workflow::PlannerConfig cfg;
  cfg.vo = spec_.vo;
  cfg.archive_site = spec_.archive_site;
  cfg.archive_fallbacks = spec_.archive_fallbacks;
  cfg.site_preference = spec_.site_preference;
  if (launch(*dag, cfg)) ++launched_;
}

}  // namespace grid3::workload
