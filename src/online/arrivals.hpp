// Arrival processes for the online subsystem: how job streams are born.
//
// Four generators, spanning the traffic shapes the queueing literature
// cares about: deterministic (fixed period), Poisson (memoryless),
// bursty MMPP (two-state Markov-modulated Poisson — heavy bursts between
// quiet stretches), and trace replay (explicit arrival/load/alpha rows,
// e.g. recorded from production).
//
// Determinism contract: generate() consumes only the util::Rng it is
// handed, splitting it into an arrival-time sub-stream and a job-size
// sub-stream first — so the arrival point process and the size marks
// cannot perturb each other, and a stream driven from a util::Sweep
// point's pre-split RNG is bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <string>
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

/// Abstract generator of job streams.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Jobs with arrival times in [0, horizon), ids 0..n-1 in
  /// non-decreasing arrival order. See the file comment for the RNG
  /// splitting contract.
  [[nodiscard]] virtual std::vector<Job> generate(double horizon,
                                                  util::Rng& rng) const = 0;
};

/// One arrival every `period` time units, starting at t = 0.
class DeterministicArrivals final : public ArrivalProcess {
 public:
  DeterministicArrivals(double period, JobMix mix);

  [[nodiscard]] std::vector<Job> generate(double horizon,
                                          util::Rng& rng) const override;

 private:
  double period_;
  JobMix mix_;
};

/// Poisson process: i.i.d. exponential inter-arrival times at `rate`.
class PoissonArrivals final : public ArrivalProcess {
 public:
  PoissonArrivals(double rate, JobMix mix);

  [[nodiscard]] std::vector<Job> generate(double horizon,
                                          util::Rng& rng) const override;

 private:
  double rate_;
  JobMix mix_;
};

/// Two-state Markov-modulated Poisson process: the stream alternates
/// between a quiet state (rate_low) and a burst state (rate_high), with
/// exponentially distributed dwell times. Starts in the quiet state.
class MmppArrivals final : public ArrivalProcess {
 public:
  MmppArrivals(double rate_low, double rate_high, double dwell_low,
               double dwell_high, JobMix mix);

  [[nodiscard]] std::vector<Job> generate(double horizon,
                                          util::Rng& rng) const override;

 private:
  double rate_low_;
  double rate_high_;
  double dwell_low_;
  double dwell_high_;
  JobMix mix_;
};

/// Replay of an explicit job list (ignores the RNG). The trace is sorted
/// by arrival and re-numbered on construction; generate() keeps the jobs
/// arriving before the horizon.
class TraceArrivals final : public ArrivalProcess {
 public:
  explicit TraceArrivals(std::vector<Job> trace);

  /// Parse a whitespace-separated text trace: one `arrival load alpha`
  /// row per line; blank lines and lines starting with '#' are skipped.
  /// Numbers are parsed locale-independently (std::from_chars).
  [[nodiscard]] static TraceArrivals from_file(const std::string& path);

  [[nodiscard]] std::vector<Job> generate(double horizon,
                                          util::Rng& rng) const override;

  [[nodiscard]] const std::vector<Job>& trace() const noexcept {
    return trace_;
  }

 private:
  std::vector<Job> trace_;
};

}  // namespace nldl::online
