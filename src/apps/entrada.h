// Entrada GridFTP data-transfer demonstrator (paper sections 4.7, 6.3):
// "A Java-based plug-in environment (Entrada) was used to generate
// simulated traffic between a matrix of sites in a periodic fashion";
// NetLogger-instrumented GridFTP monitored the transfers.  The
// demonstrator carried most of the bytes in Figure 5 and pushed the
// grid past its 2 TB/day milestone.
#pragma once

#include <memory>
#include <vector>

#include "apps/appbase.h"
#include "apps/launcher.h"

namespace grid3::apps {

struct EntradaOptions {
  double job_scale = 1.0;
  int months = 7;
  /// Transfers per day during the SC2003 push (Oct/Nov 2003).
  double sc2003_per_day = 200.0;
};


class EntradaDemo : public AppBase {
 public:
  using Options = EntradaOptions;

  EntradaDemo(core::Grid3& grid, Options opts = {});

  void start();
  void stop();

  /// Fire one matrix transfer between a random pair of sites.
  void transfer_once();

  [[nodiscard]] Bytes moved() const { return moved_; }
  [[nodiscard]] std::uint64_t transfers_ok() const { return ok_; }
  [[nodiscard]] std::uint64_t transfers_failed() const { return failed_; }

 private:
  Options opts_;
  std::unique_ptr<PoissonLauncher> launcher_;
  Bytes moved_;
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
  util::Distribution chunk_gb_;
};

}  // namespace grid3::apps
