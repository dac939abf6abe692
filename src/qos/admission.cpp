#include "qos/admission.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/assert.hpp"

namespace nldl::qos {

namespace {

/// Calls the degrade search may make beyond a plain bisection's depth.
constexpr int kSpareCalls = 4;

void validate_options(const AdmissionOptions& options) {
  NLDL_REQUIRE(options.min_load_fraction > 0.0 &&
                   options.min_load_fraction <= 1.0,
               "min_load_fraction must be in (0, 1]");
  NLDL_REQUIRE(options.bisection_iterations >= 1 &&
                   options.bisection_iterations <= kMaxSearchDepth,
               "bisection_iterations must be in [1, 40]");
}

/// Leaf k of a `depth`-step bisection over [floor, 1]: the same halvings,
/// in the same order, as the bisection that takes k's path.
double leaf(std::uint64_t k, double floor, int depth) {
  double lo = floor;
  double hi = 1.0;
  for (int bit = depth - 1; bit >= 0; --bit) {
    const double mid = 0.5 * (lo + hi);
    if (((k >> bit) & 1U) != 0U) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

FeasibleFraction largest_feasible_fraction(
    const std::function<double(double)>& service_of_fraction, double slack,
    double floor, int depth, double floor_service, double full_service) {
  NLDL_REQUIRE(depth >= 1 && depth <= kMaxSearchDepth,
               "the search depth must be in [1, 40]");
  NLDL_REQUIRE(floor > 0.0 && floor < 1.0, "floor must be in (0, 1)");
  NLDL_REQUIRE(!(floor_service > slack) && !(full_service <= slack),
               "the floor must fit the slack and the full load must not");
  const std::uint64_t leaves = std::uint64_t{1} << depth;

  // Bracket [a, b] of leaf indices: a fits the slack, b does not. Each end
  // keeps log(fraction) and log(service / slack) for the secant; the
  // Illinois step halves the second at an end kept twice in a row.
  std::uint64_t a = 0;
  std::uint64_t b = leaves;
  FeasibleFraction fits{floor, floor_service};
  double xa = std::log(floor);
  double ya = std::log(floor_service / slack);
  double xb = 0.0;
  double yb = std::log(full_service / slack);
  int kept = 0;  // +1: b was kept last step, -1: a was
  int calls_left = depth + kSpareCalls;
  while (b - a > 1) {
    // Both sub-brackets must stay within reach of bisection in the calls
    // left after this one (b - a <= 2^calls_left holds on entry).
    const std::uint64_t reach = std::uint64_t{1} << (calls_left - 1);
    const std::uint64_t lowest = std::max(a + 1, b > reach ? b - reach : 0);
    const std::uint64_t highest = std::min(b - 1, a + reach);
    // The secant's root, rounded down to a leaf index (leaves sit close to
    // evenly spaced), or the midpoint, which is always in reach, when an
    // end's value is not finite.
    std::uint64_t k = a + (b - a) / 2;
    const double dy = yb - ya;
    if (std::isfinite(dy)) {
      const double f = std::exp(xa - ya * (xb - xa) / dy);
      const double guess = std::floor((f - floor) / (1.0 - floor) *
                                      static_cast<double>(leaves));
      if (std::isfinite(guess)) {
        k = static_cast<std::uint64_t>(
            std::clamp(guess, static_cast<double>(lowest),
                       static_cast<double>(highest)));
      }
    }
    --calls_left;

    const double fraction = leaf(k, floor, depth);
    const double service = service_of_fraction(fraction);
    const double x = std::log(fraction);
    const double y = std::log(service / slack);
    if (service <= slack) {
      a = k;
      fits = {fraction, service};
      xa = x;
      ya = y;
      if (kept == 1) yb *= 0.5;
      kept = 1;
    } else {
      b = k;
      xb = x;
      yb = y;
      if (kept == -1) ya *= 0.5;
      kept = -1;
    }
  }
  return fits;
}

AdmissionController::AdmissionController(InstallmentSolver& solver,
                                         AdmissionOptions options)
    : solver_(&solver), options_(options) {
  validate_options(options);
}

AdmissionDecision AdmissionController::decide(const online::Job& job) const {
  NLDL_REQUIRE(job.load > 0.0, "admission requires a positive load");
  AdmissionDecision decision;
  const auto service_of = [&](double load) {
    return solver_->predicted_service(load, job.alpha);
  };

  const double full = service_of(job.load);
  if (!job.has_deadline() || options_.mode == AdmissionMode::kAdmitAll ||
      full <= job.slack()) {
    decision.served_load = job.load;
    decision.predicted_service = full;
    return decision;
  }

  if (options_.mode == AdmissionMode::kReject) {
    decision.admitted = false;
    return decision;
  }

  // kDegrade: the floor fraction must itself fit the slack, else reject.
  const double floor_load = options_.min_load_fraction * job.load;
  const double floor_service = service_of(floor_load);
  if (floor_service > job.slack()) {
    decision.admitted = false;
    return decision;
  }

  const FeasibleFraction fits = largest_feasible_fraction(
      [&](double fraction) { return service_of(fraction * job.load); },
      job.slack(), options_.min_load_fraction,
      options_.bisection_iterations, floor_service, full);
  decision.degraded = true;
  decision.served_load = fits.fraction * job.load;
  decision.predicted_service = fits.service;
  return decision;
}

}  // namespace nldl::qos
