#include "apps/dial.h"

#include "workflow/vdc.h"

namespace grid3::apps {

namespace {
/// The datasets scanned: kDatasetPrefix<id>kDatasetSuffix.
constexpr const char* kDatasetPrefix = "usatlas/dc2/";
constexpr const char* kDatasetSuffix = ".esd";
/// Mean analysis job length; analysis jobs are short.
constexpr double kJobHoursMean = 0.4;
/// Binning of the merged physics histogram ("GeV").
constexpr double kHistLo = 0.0;
constexpr double kHistHi = 500.0;
constexpr std::size_t kHistBins = 50;
}  // namespace

DialAnalysis::DialAnalysis(core::Grid3& grid)
    : AppBase{grid, "usatlas", "dial"} {}

void DialAnalysis::analyze(int max_dataset_id,
                           std::function<void(DialResult)> done) {
  auto* rls = grid().rls(vo());
  auto result = std::make_shared<DialResult>(DialResult{
      0, 0, 0,
      util::Histogram{kHistLo, kHistHi, kHistBins}});
  auto outstanding = std::make_shared<std::size_t>(0);
  auto finished_scan = std::make_shared<bool>(false);
  auto maybe_done = [result, outstanding, finished_scan, done] {
    if (*finished_scan && *outstanding == 0 && done) done(*result);
  };

  for (int id = 1; id <= max_dataset_id; ++id) {
    const std::string lfn =
        kDatasetPrefix + std::to_string(id) + kDatasetSuffix;
    const auto replicas = rls->locate(lfn, sim().now());
    if (replicas.empty()) continue;
    ++result->datasets_found;

    // One analysis derivation per dataset, preferring the replica site
    // (move the code to the data, not the data to the code).
    const std::uint64_t run_id = ++seq_;
    workflow::VirtualDataCatalog vdc;
    vdc.add_transformation({"dial-fill", "1.0", core::app::kAtlasGce});
    vdc.add_derivation(
        {.id = "dial-" + std::to_string(run_id),
         .transformation = "dial-fill",
         .inputs = {lfn},
         .outputs = {"usatlas/dial/hist-" + std::to_string(run_id)},
         .runtime = Time::hours(
             std::max(0.05, rng().exponential(kJobHoursMean))),
         .output_size = Bytes::mb(5),
         .scratch = Bytes::gb(1)});
    auto dag = vdc.request({"usatlas/dial/hist-" + std::to_string(run_id)});
    if (!dag.has_value()) continue;

    workflow::PlannerConfig cfg;
    cfg.vo = vo();
    cfg.reuse_existing = false;  // a fresh histogram every time
    cfg.site_preference = {{replicas.front().first, 20.0}};
    ++result->jobs_launched;
    ++*outstanding;
    const bool launched = launch(
        *dag, cfg,
        [this, result, outstanding, maybe_done](
            const workflow::DagRunStats& s) {
          if (s.success) {
            ++result->jobs_ok;
            // Fill the merged histogram with this dataset's candidates
            // (a deterministic pseudo-spectrum: a falling exponential
            // with a resonance bump -- the shape a SUSY search plots).
            for (int i = 0; i < 200; ++i) {
              double mass = rng().exponential(120.0);
              if (rng().chance(0.08)) mass = rng().normal(250.0, 15.0);
              result->histogram.add(mass);
            }
          }
          --*outstanding;
          maybe_done();
        },
        "dial");
    if (!launched) {
      --*outstanding;
      --result->jobs_launched;
    }
  }
  *finished_scan = true;
  maybe_done();
}

}  // namespace grid3::apps
