// LIGO blind pulsar search (paper section 4.4): an all-sky search for
// continuous-wave signals in the S2 data set.  Each search job stages a
// short-Fourier-transform band file (~4 GB) plus ephemeris data from the
// LIGO facility via GridFTP, runs several hours, stages results back and
// updates catalog entries.
//
// Accounting note: the ACDC Table 1 row for LIGO shows only 3 tiny jobs
// (the bulk of S2 analysis ran outside Grid3 accounting), so the
// production schedule reproduces exactly that; the full search workflow
// remains available through run_search() and is exercised by the
// examples and benches.
#pragma once

#include <memory>

#include "apps/appbase.h"
#include "apps/launcher.h"

namespace grid3::apps {

class LigoPulsar : public AppBase {
 public:
  using Options = DemonstratorOptions;

  LigoPulsar(core::Grid3& grid, Options opts = {});

  /// The ACDC-visible production: three sub-minute registration-test
  /// jobs in December 2003 (Table 1's LIGO column).
  void start();
  void stop();

  /// Launch `bands` real search workflows: stage SFT band + ephemeris,
  /// search, stage results back to the LIGO facility.
  bool run_search(int bands);

  /// Publish SFT band replicas at the LIGO facility.
  void register_sft_bands(int count);

 private:
  bool launch_band(int band);
  bool launch_registration_test();

  Options opts_;
  bool started_ = false;
  std::uint64_t seq_ = 0;
  int bands_available_ = 0;
  util::Distribution search_runtime_;
};

}  // namespace grid3::apps
