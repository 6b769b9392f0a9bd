#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace grid3::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // Avoid the all-zero state (cannot occur from splitmix64, but be safe).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork() { return Rng{next_u64()}; }

double Rng::uniform() {
  // 53 random bits into [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Debiased modulo (Lemire-style rejection).
  std::uint64_t x = next_u64();
  const std::uint64_t threshold = (0 - range) % range;
  while (x % range < threshold && x < range) x = next_u64();
  return lo + static_cast<std::int64_t>(x % range);
}

bool Rng::chance(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(1.0 - u);
}

double Rng::normal(double mean, double sigma) {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + sigma * r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::size_t Rng::index(std::size_t size) {
  assert(size > 0);
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace grid3::util
