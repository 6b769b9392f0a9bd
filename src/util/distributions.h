// Composable runtime distributions used to describe workload parameters
// (job runtimes, dataset sizes, inter-arrival gaps) in configuration.
//
// A Distribution is a small value type: cheap to copy, samples through an
// Rng passed at call time so the distribution itself carries no state.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace grid3::util {

/// A sampleable non-negative real-valued distribution.
class Distribution {
 public:
  /// Constant value.
  [[nodiscard]] static Distribution constant(double v);
  /// Exponential with the given mean.
  [[nodiscard]] static Distribution exponential(double mean);
  /// Lognormal specified by its *mean* and coefficient of variation
  /// (cv = sigma/mean of the resulting lognormal, not of the log).
  [[nodiscard]] static Distribution lognormal_mean_cv(double mean, double cv);
  /// Mixture of components with the given non-negative weights.
  [[nodiscard]] static Distribution mixture(std::vector<Distribution> comps,
                                            std::vector<double> weights);
  /// `base` clamped into [lo, hi].
  [[nodiscard]] static Distribution clamped(Distribution base, double lo,
                                            double hi);

  [[nodiscard]] double sample(Rng& rng) const;

  /// Analytic mean where known; mixture/clamp compute from components
  /// (clamp returns the un-clamped mean as an approximation).
  [[nodiscard]] double mean() const;

  struct Impl;  // public so the implementation file can define it

 private:
  explicit Distribution(std::shared_ptr<const Impl> impl)
      : impl_{std::move(impl)} {}
  std::shared_ptr<const Impl> impl_;
};

}  // namespace grid3::util
