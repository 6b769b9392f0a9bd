#include "util/distributions.h"

#include <algorithm>
#include <cmath>

namespace grid3::util {

struct Distribution::Impl {
  enum class Kind {
    kConstant,
    kExponential,
    kLognormal,
    kMixture,
    kClamped,
  };
  Kind kind{};
  double a = 0.0;  // meaning depends on kind
  double b = 0.0;
  double c = 0.0;
  std::vector<Distribution> components;
  std::vector<double> weights;
};

namespace {
using Impl = Distribution::Impl;
}  // namespace

Distribution Distribution::constant(double v) {
  auto impl = std::make_shared<Impl>();
  impl->kind = Impl::Kind::kConstant;
  impl->a = v;
  return Distribution{std::move(impl)};
}

Distribution Distribution::exponential(double mean) {
  assert(mean > 0.0);
  auto impl = std::make_shared<Impl>();
  impl->kind = Impl::Kind::kExponential;
  impl->a = mean;
  return Distribution{std::move(impl)};
}

Distribution Distribution::lognormal_mean_cv(double mean, double cv) {
  assert(mean > 0.0 && cv > 0.0);
  // For lognormal with parameters (mu, s): mean = exp(mu + s^2/2),
  // cv^2 = exp(s^2) - 1  =>  s^2 = ln(1 + cv^2), mu = ln(mean) - s^2/2.
  const double s2 = std::log(1.0 + cv * cv);
  auto impl = std::make_shared<Impl>();
  impl->kind = Impl::Kind::kLognormal;
  impl->a = std::log(mean) - 0.5 * s2;  // mu
  impl->b = std::sqrt(s2);              // sigma
  impl->c = mean;                       // cached analytic mean
  return Distribution{std::move(impl)};
}

Distribution Distribution::mixture(std::vector<Distribution> comps,
                                   std::vector<double> weights) {
  assert(!comps.empty() && comps.size() == weights.size());
  auto impl = std::make_shared<Impl>();
  impl->kind = Impl::Kind::kMixture;
  impl->components = std::move(comps);
  impl->weights = std::move(weights);
  return Distribution{std::move(impl)};
}

Distribution Distribution::clamped(Distribution base, double lo, double hi) {
  assert(lo <= hi);
  auto impl = std::make_shared<Impl>();
  impl->kind = Impl::Kind::kClamped;
  impl->components.push_back(std::move(base));
  impl->a = lo;
  impl->b = hi;
  return Distribution{std::move(impl)};
}

double Distribution::sample(Rng& rng) const {
  const Impl& d = *impl_;
  switch (d.kind) {
    case Impl::Kind::kConstant:
      return d.a;
    case Impl::Kind::kExponential:
      return rng.exponential(d.a);
    case Impl::Kind::kLognormal:
      return rng.lognormal(d.a, d.b);
    case Impl::Kind::kMixture:
      return d.components[rng.weighted_index(d.weights)].sample(rng);
    case Impl::Kind::kClamped:
      return std::clamp(d.components.front().sample(rng), d.a, d.b);
  }
  return 0.0;
}

double Distribution::mean() const {
  const Impl& d = *impl_;
  switch (d.kind) {
    case Impl::Kind::kConstant:
      return d.a;
    case Impl::Kind::kExponential:
      return d.a;
    case Impl::Kind::kLognormal:
      return d.c;
    case Impl::Kind::kMixture: {
      double total_w = 0.0;
      double acc = 0.0;
      for (std::size_t i = 0; i < d.components.size(); ++i) {
        acc += d.weights[i] * d.components[i].mean();
        total_w += d.weights[i];
      }
      return acc / total_w;
    }
    case Impl::Kind::kClamped:
      return std::clamp(d.components.front().mean(), d.a, d.b);
  }
  return 0.0;
}

}  // namespace grid3::util
