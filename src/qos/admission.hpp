// SLO-aware admission control: reject (or degrade) work that provably
// cannot meet its deadline.
//
// The controller compares a job's slack (deadline − arrival) against the
// predicted uninterrupted service time of its load under the server's own
// ServiceModel: InstallmentSolver::predicted_service, rounds × the replayed
// makespan of one installment's allocation. That is not the allocator's
// makespan the SPMF scheduler ranks by (online::predicted_makespan): under
// bounded multiport the replay runs 1.04–3.7× longer. The check is
// optimistic: queueing delay is not modeled, so an admitted job may still
// miss its deadline under load, but a REJECTED job provably could not make
// it even on an idle platform. (Under qos::ServerOptions::concurrency > 1
// the prediction stays whole-platform while service happens on a 1/k
// subset with contention, widening the optimism: rejections remain sound
// — subset service is never faster than whole-platform service — but
// admit/degrade decisions are looser than at concurrency 1; see
// qos/server.hpp.) Three modes:
//
//   kAdmitAll   SLO bookkeeping only (the baseline).
//   kReject     infeasible jobs are turned away whole.
//   kDegrade    infeasible jobs are shrunk to the largest load fraction
//               whose predicted service fits the slack (serving a smaller
//               partition of the work — a degraded but on-time answer,
//               e.g. a coarser approximation of the full result), down to
//               `min_load_fraction`; below the floor they are rejected.
//
// Degradation returns the fraction a bisection of `bisection_iterations`
// steps would, with the bisection's bits, in a handful of solves
// (largest_feasible_fraction); predicted service is strictly increasing in
// load, so that fraction is the one crossing of the slack. Best-effort
// jobs (no deadline) are always admitted whole.
#pragma once

#include <functional>

#include "online/job.hpp"
#include "qos/plan.hpp"

namespace nldl::qos {

enum class AdmissionMode {
  kAdmitAll,
  kReject,
  kDegrade,
};

/// Deepest degrade search. Deeper leaves sit a few ULPs apart, where
/// computed service is not monotone in load, so a search could end on
/// another crossing of the slack than bisection does. Leaf indices must
/// also stay exact doubles (below 2^53).
inline constexpr int kMaxSearchDepth = 40;

struct AdmissionOptions {
  AdmissionMode mode = AdmissionMode::kReject;
  /// Smallest admissible fraction of a degraded job's load.
  double min_load_fraction = 0.25;
  /// Depth of the degrade search: a degraded job gets the fraction a
  /// bisection of this many steps over [min_load_fraction, 1] returns
  /// (2^-32 load resolution at 32). In [1, kMaxSearchDepth].
  int bisection_iterations = 32;
};

struct AdmissionDecision {
  bool admitted = true;
  bool degraded = false;
  /// Load the server will actually dispatch (0 when rejected).
  double served_load = 0.0;
  /// Predicted uninterrupted service time of served_load (0 when
  /// rejected).
  double predicted_service = 0.0;
};

/// A load fraction and the service predicted for it.
struct FeasibleFraction {
  double fraction = 0.0;
  double service = 0.0;
};

/// The degrade search: the fraction a `depth`-step bisection over
/// [floor, 1] returns, with the service `service_of_fraction` gave there.
///
/// Leaf k of the bisection (0 <= k <= 2^depth) is the double it reaches by
/// halving `mid = 0.5 * (lo + hi)` down k's bits, most significant first;
/// leaf 0 is `floor`, leaf 2^depth is 1, and every point bisection
/// evaluates is a leaf. Bisection returns the leaf k whose service fits
/// the slack while leaf k + 1's does not, and so does any search that ends
/// on such an adjacent pair, as long as service crosses the slack once
/// along the leaves. This one runs Illinois (regula falsi that halves the
/// value at the end that stays put) on log(service / slack) against
/// log(fraction), rounds each estimate down to a leaf, and keeps it where
/// bisection could still finish either side in the calls left of a budget
/// of depth + 4. So it calls `service_of_fraction` at most depth + 4
/// times, and about four times when service is smooth in load.
///
/// The caller has evaluated both ends and passes what bisection would
/// have checked: !(floor_service > slack) and !(full_service <= slack).
/// Requires floor in (0, 1) and depth in [1, kMaxSearchDepth].
[[nodiscard]] FeasibleFraction largest_feasible_fraction(
    const std::function<double(double)>& service_of_fraction, double slack,
    double floor, int depth, double floor_service, double full_service);

class AdmissionController {
 public:
  /// Controller over the caller's solver (the qos::Server wires its own
  /// through, so admission predictions are memo hits when the
  /// ServicePlan later solves the same installment). The solver must
  /// outlive the controller.
  explicit AdmissionController(InstallmentSolver& solver,
                               AdmissionOptions options = {});

  [[nodiscard]] const AdmissionOptions& options() const noexcept {
    return options_;
  }

  [[nodiscard]] AdmissionDecision decide(const online::Job& job) const;

 private:
  InstallmentSolver* solver_;
  AdmissionOptions options_;
};

}  // namespace nldl::qos
