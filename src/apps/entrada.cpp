#include "apps/entrada.h"

namespace grid3::apps {

namespace {
/// Mean chunk size per matrix transfer, in GB.
constexpr double kChunkGb = 14.0;
/// Transfers per day in steady state after the SC2003 push.
constexpr double kSteadyPerDay = 80.0;
}  // namespace

EntradaDemo::EntradaDemo(core::Grid3& grid, Options opts)
    : AppBase{grid, "ivdgl", core::app::kEntrada},
      opts_{opts},
      chunk_gb_{util::Distribution::clamped(
          util::Distribution::lognormal_mean_cv(kChunkGb, 0.5), 1.0,
          60.0)} {}

void EntradaDemo::start() {
  if (launcher_) return;
  LaunchSchedule schedule;
  // Daily rates -> monthly totals (30.5-day months are close enough for
  // shaping; the Poisson launcher re-reads exact month lengths).
  schedule.monthly = {opts_.sc2003_per_day * 31, opts_.sc2003_per_day * 30,
                      kSteadyPerDay * 31, kSteadyPerDay * 31,
                      kSteadyPerDay * 29, kSteadyPerDay * 31,
                      kSteadyPerDay * 30};
  schedule.monthly.resize(static_cast<std::size_t>(opts_.months),
                          kSteadyPerDay * 30);
  schedule.scale = opts_.job_scale;
  launcher_ = std::make_unique<PoissonLauncher>(
      sim(), schedule, [this] { transfer_once(); }, rng().fork());
  launcher_->start();
}

void EntradaDemo::stop() {
  if (launcher_) launcher_->stop();
}

void EntradaDemo::transfer_once() {
  const auto& sites = grid().sites();
  if (sites.size() < 2) return;
  const std::size_t a = rng().index(sites.size());
  std::size_t b = rng().index(sites.size() - 1);
  if (b >= a) ++b;
  core::Site& src = *sites[a];
  core::Site& dst = *sites[b];

  gridftp::TransferRequest req;
  req.src = &src.ftp();
  req.dst = &dst.ftp();
  req.size = Bytes::gb(chunk_gb_.sample(rng()));
  req.lfn = "entrada/chunk-" + std::to_string(ok_ + failed_);
  // Entrada traffic cycles through scratch: claim-then-release so the
  // matrix does not permanently fill destination disks.
  req.dest_volume = &dst.disk();
  const std::string src_name = src.name();
  const std::string dst_name = dst.name();
  srm::DiskVolume* volume = &dst.disk();
  grid().ftp_client().transfer(
      std::move(req), [this, src_name, dst_name,
                       volume](const gridftp::TransferRecord& rec) {
        if (rec.ok()) {
          ++ok_;
          moved_ += rec.transferred;
          grid().igoc().job_db().insert_transfer(
              {src_name, dst_name, "ivdgl", rec.transferred, rec.finished,
               /*demo=*/true});
          // Demonstrator data is ephemeral: release the scratch the
          // transfer landed in once accounted.
          volume->release(rec.transferred);
        } else {
          ++failed_;
        }
      });
}

}  // namespace grid3::apps
