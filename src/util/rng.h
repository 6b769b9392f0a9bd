// Deterministic pseudo-random number generation for the simulator.
//
// We implement xoshiro256++ seeded through splitmix64 rather than using
// std::mt19937 so that (a) streams are cheap to fork per-subsystem and
// (b) results are identical across standard-library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace grid3::util {

/// xoshiro256++ generator.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next_u64(); }
  std::uint64_t next_u64();

  /// Fork an independent stream (jump-free: reseeds from this stream).
  /// Children seeded from distinct draws do not overlap in practice for
  /// simulation-scale consumption.
  [[nodiscard]] Rng fork();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial.
  bool chance(double p);
  /// Exponential with the given mean (rate = 1/mean).
  double exponential(double mean);
  /// Normal via Box-Muller (no cached spare: keeps fork() semantics simple).
  double normal(double mean, double sigma);
  /// Lognormal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma);
  /// Weibull with shape k and scale lambda.
  double weibull(double shape, double scale);
  /// Pareto (Lomax-style, xm minimum, alpha tail index).
  double pareto(double xm, double alpha);

  /// Uniformly chosen index into a container of the given size (size > 0).
  std::size_t index(std::size_t size);

  /// Sample an index according to non-negative weights (at least one > 0).
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace grid3::util
