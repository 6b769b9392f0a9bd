#include "apps/ligo.h"

#include <cmath>

#include "util/calendar.h"
#include "workflow/vdc.h"

namespace grid3::apps {

namespace {
/// The SFT archive endpoint, where search results also return.
constexpr const char* kDataHost = "LIGO_Hanford";
/// The one site with the LIGO application installed.
constexpr const char* kRunSite = "UWM_LIGO";
}  // namespace

LigoPulsar::LigoPulsar(core::Grid3& grid, Options opts)
    : AppBase{grid, "ligo", core::app::kLigoPulsar},
      opts_{opts},
      // "Each workflow instance runs for several hours on an average
      // processor."
      search_runtime_{util::Distribution::clamped(
          util::Distribution::lognormal_mean_cv(5.0, 0.5), 1.0, 24.0)} {}

void LigoPulsar::register_sft_bands(int count) {
  auto* catalog = grid().rls(vo());
  for (int i = 0; i < count; ++i) {
    const std::string lfn =
        "ligo/s2/sft-band-" + std::to_string(bands_available_++);
    catalog->register_replica(
        kDataHost, lfn,
        {std::string{"gsiftp://"} + kDataHost + "/" + lfn, Bytes::gb(4.0),
         sim().now()},
        sim().now());
  }
}

void LigoPulsar::start() {
  if (started_) return;
  started_ = true;
  // The ACDC sample records exactly three LIGO jobs, all in December
  // 2003 -- a historical fact, not a rate, so schedule them verbatim
  // (scaled down only when the whole workload is).
  if (opts_.months <= 2) return;
  const int n = static_cast<int>(std::lround(3.0 * opts_.job_scale));
  for (int i = 0; i < n; ++i) {
    sim().schedule_at(
        util::month_start(2) + Time::days(4 + 8 * i) +
            Time::hours(rng().uniform(0.0, 12.0)),
        [this] { launch_registration_test(); });
  }
}

void LigoPulsar::stop() { started_ = false; }

bool LigoPulsar::launch_registration_test() {
  const std::uint64_t id = ++seq_;
  workflow::VirtualDataCatalog vdc;
  vdc.add_transformation({"lalapps-version", "1.0", core::app::kLigoPulsar});
  vdc.add_derivation({.id = "ligo-test-" + std::to_string(id),
                      .transformation = "lalapps-version",
                      .inputs = {},
                      .outputs = {"ligo/test/" + std::to_string(id)},
                      .runtime = Time::seconds(36),
                      .output_size = Bytes::kb(4),
                      .scratch = Bytes::mb(10)});
  auto dag = vdc.request({"ligo/test/" + std::to_string(id)});
  if (!dag.has_value()) return false;
  workflow::PlannerConfig cfg;
  cfg.vo = vo();
  cfg.site_preference = {{kRunSite, 100.0}};
  return launch(*dag, cfg);
}

bool LigoPulsar::run_search(int bands) {
  if (bands_available_ < bands) {
    register_sft_bands(bands - bands_available_);
  }
  bool all_ok = true;
  for (int b = 0; b < bands; ++b) {
    all_ok = launch_band(b) && all_ok;
  }
  return all_ok;
}

bool LigoPulsar::launch_band(int band) {
  const std::uint64_t id = ++seq_;
  const std::string sft = "ligo/s2/sft-band-" + std::to_string(band);
  const std::string out = "ligo/s2/candidates-" + std::to_string(id);

  workflow::VirtualDataCatalog vdc;
  vdc.add_transformation(
      {"computefstatistic", "S2", core::app::kLigoPulsar});
  // The search consumes the staged SFT band (4 GB, resolved via RLS at
  // the LIGO facility) and produces a small candidate list which is
  // staged back and registered.
  vdc.add_derivation({.id = "fstat-" + std::to_string(id),
                      .transformation = "computefstatistic",
                      .inputs = {sft},
                      .outputs = {out},
                      .runtime = Time::hours(search_runtime_.sample(rng())),
                      .output_size = Bytes::mb(50),
                      .scratch = Bytes::gb(5.0)});
  auto dag = vdc.request({out});
  if (!dag.has_value()) return false;

  workflow::PlannerConfig cfg;
  cfg.vo = vo();
  cfg.archive_site = kDataHost;  // results return to the facility
  cfg.archive_all = true;
  cfg.walltime_slack = 1.6;
  cfg.site_preference = {{kRunSite, 50.0}};
  return launch(*dag, cfg);
}

}  // namespace grid3::apps
