#include "online/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace nldl::online {

void JobMix::validate() const {
  NLDL_REQUIRE(load_lo > 0.0, "job loads must be positive");
  NLDL_REQUIRE(load_lo <= load_hi, "JobMix requires load_lo <= load_hi");
  NLDL_REQUIRE(std::isfinite(load_hi), "JobMix requires a finite load_hi");
  if (load_dist == LoadDistribution::kPareto) {
    NLDL_REQUIRE(pareto_shape > 0.0,
                 "JobMix requires a positive Pareto shape");
  }
  NLDL_REQUIRE(!alphas.empty(), "JobMix requires at least one alpha class");
  NLDL_REQUIRE(alphas.size() == alpha_weights.size(),
               "JobMix requires one weight per alpha class");
  double total = 0.0;
  for (const double alpha : alphas) {
    NLDL_REQUIRE(std::isfinite(alpha) && alpha >= 1.0,
                 "JobMix alphas must be finite and >= 1");
  }
  // sample() scales a uniform draw by the weight total: an infinite
  // weight (or total) would pin every draw to one class.
  for (const double weight : alpha_weights) {
    NLDL_REQUIRE(std::isfinite(weight) && weight >= 0.0,
                 "JobMix weights must be finite and >= 0");
    total += weight;
  }
  NLDL_REQUIRE(std::isfinite(total) && total > 0.0,
               "JobMix weights must sum to a finite positive total");
}

double JobMix::mean_load() const {
  if (load_dist == LoadDistribution::kUniform || load_lo == load_hi) {
    return 0.5 * (load_lo + load_hi);
  }
  // Mean of min(X, load_hi) with X ~ Pareto(load_lo, a):
  //   ∫_lo^hi x·a·lo^a·x^(−a−1) dx + hi·P(X > hi).
  const double a = pareto_shape;
  const double lo = load_lo;
  const double hi = load_hi;
  const double tail = std::pow(lo / hi, a);  // P(X > hi)
  const double body =
      a == 1.0 ? lo * std::log(hi / lo)  // nldl-lint: allow(double-eq): exact exponent switch between closed forms at a == 1
               : (a / (a - 1.0)) * std::pow(lo, a) *
                     (std::pow(lo, 1.0 - a) - std::pow(hi, 1.0 - a));
  return body + hi * tail;
}

Job JobMix::sample(std::size_t id, double arrival, util::Rng& rng) const {
  Job job;
  job.id = id;
  job.arrival = arrival;
  if (load_lo == load_hi) {
    job.load = load_lo;
  } else if (load_dist == LoadDistribution::kPareto) {
    job.load = std::min(rng.pareto(load_lo, pareto_shape), load_hi);
  } else {
    job.load = rng.uniform(load_lo, load_hi);
  }
  double total = 0.0;
  for (const double weight : alpha_weights) total += weight;
  double draw = rng.uniform() * total;
  job.alpha = alphas.back();
  for (std::size_t k = 0; k < alphas.size(); ++k) {
    draw -= alpha_weights[k];
    if (draw < 0.0) {
      job.alpha = alphas[k];
      break;
    }
  }
  return job;
}

PoissonArrivals::PoissonArrivals(double rate, JobMix mix)
    : rate_(rate), mix_(std::move(mix)) {
  // An infinite rate draws every inter-arrival as 0, so generate() would
  // append jobs at t = 0 until allocation fails.
  NLDL_REQUIRE(std::isfinite(rate) && rate > 0.0,
               "arrival rate must be finite and positive");
  mix_.validate();
}

std::vector<Job> PoissonArrivals::generate(double horizon,
                                           util::Rng& rng) const {
  NLDL_REQUIRE(std::isfinite(horizon) && horizon > 0.0,
               "arrival horizon must be finite and positive");
  util::Rng arrival_rng = rng.split();
  util::Rng size_rng = rng.split();
  std::vector<Job> jobs;
  double t = arrival_rng.exponential(rate_);
  while (t < horizon) {
    jobs.push_back(mix_.sample(jobs.size(), t, size_rng));
    t += arrival_rng.exponential(rate_);
  }
  return jobs;
}

}  // namespace nldl::online
