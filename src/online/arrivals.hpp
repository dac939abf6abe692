// Job streams for the online and qos servers: a Poisson arrival process
// whose jobs draw their load and cost exponent from a JobMix. The serving
// benches, examples, qos::generate_tenant_traffic and servebench draw
// their traffic here; a test that needs an exact stream builds its
// std::vector<Job> directly.
//
// Determinism contract: generate() consumes only the util::Rng it is
// handed, splitting it into an arrival-time sub-stream and a job-size
// sub-stream first — so the arrival point process and the size marks
// cannot perturb each other, and a stream driven from a util::Sweep
// point's pre-split RNG is bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "online/job.hpp"
#include "util/rng.hpp"

namespace nldl::online {

/// How job sizes (load units) are drawn.
enum class LoadDistribution {
  kUniform,  ///< uniform in [load_lo, load_hi]
  /// Pareto(scale = load_lo, shape = pareto_shape) truncated at load_hi —
  /// the heavy-tailed regime where a few giant jobs dominate the load and
  /// size-aware preemption (SRPT) classically earns its keep.
  kPareto,
};

/// How job sizes (load units) and cost exponents are drawn: loads follow
/// `load_dist` over [load_lo, load_hi]; alpha is picked from `alphas`
/// with probability proportional to `alpha_weights`. Defaults to a single
/// linear class of mid-sized uniform jobs.
struct JobMix {
  double load_lo = 50.0;
  double load_hi = 150.0;
  LoadDistribution load_dist = LoadDistribution::kUniform;
  /// Pareto tail exponent (only read under kPareto); shape <= 1 has an
  /// infinite untruncated mean, so keep it > 1 unless load_hi clamps.
  double pareto_shape = 1.5;
  std::vector<double> alphas{1.0};
  std::vector<double> alpha_weights{1.0};

  void validate() const;

  /// Expected load per job under the configured distribution (the
  /// truncated-Pareto closed form under kPareto) — the quantity the
  /// drivers use to map a load factor to an arrival rate.
  [[nodiscard]] double mean_load() const;

  /// Draw one job (load then alpha, two rng consumptions).
  [[nodiscard]] Job sample(std::size_t id, double arrival,
                           util::Rng& rng) const;
};

/// Poisson process: i.i.d. exponential inter-arrival times at `rate`.
class PoissonArrivals {
 public:
  /// `rate` must be finite and positive; `mix` must validate.
  PoissonArrivals(double rate, JobMix mix);

  /// Jobs with arrival times in [0, horizon), ids 0..n-1 in
  /// non-decreasing arrival order. `horizon` must be finite and positive.
  /// See the file comment for the RNG splitting contract.
  [[nodiscard]] std::vector<Job> generate(double horizon,
                                          util::Rng& rng) const;

 private:
  double rate_;
  JobMix mix_;
};

}  // namespace nldl::online
