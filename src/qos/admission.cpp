#include "qos/admission.hpp"

#include "util/assert.hpp"

namespace nldl::qos {

namespace {

void validate_options(const AdmissionOptions& options) {
  NLDL_REQUIRE(options.min_load_fraction > 0.0 &&
                   options.min_load_fraction <= 1.0,
               "min_load_fraction must be in (0, 1]");
  NLDL_REQUIRE(options.bisection_iterations >= 1,
               "bisection_iterations must be >= 1");
}

}  // namespace

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

  // Largest feasible fraction by bisection (service is strictly
  // increasing in load; the infeasible end is f = 1, checked above).
  double lo = options_.min_load_fraction;  // feasible
  double hi = 1.0;                         // infeasible
  for (int i = 0; i < options_.bisection_iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (service_of(mid * job.load) <= job.slack()) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  decision.degraded = true;
  decision.served_load = lo * job.load;
  decision.predicted_service = service_of(decision.served_load);
  return decision;
}

}  // namespace nldl::qos
