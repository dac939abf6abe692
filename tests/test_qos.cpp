// Unit tests for the qos subsystem: preemptable service plans, SLO
// admission, chunk-boundary policies, the preemptive server, multi-tenant
// traffic, and the QoS metrics.
//
// Two results are pinned here:
//   - zero-restart-cost equivalence: preemption at a chunk boundary
//     reproduces an uninterrupted run's completion time exactly when the
//     restart surcharge is zero;
//   - the no-free-lunch flip: with free restarts SRPT beats FCFS on mean
//     latency and deadline misses, and a nonlinear restart cost REVERSES
//     that ranking on the same job stream.
#include "qos/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dlt/nonlinear_dlt.hpp"
#include "online/arrivals.hpp"
#include "qos/admission.hpp"
#include "qos/metrics.hpp"
#include "qos/plan.hpp"
#include "qos/policy.hpp"
#include "qos/tenant.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::qos {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

online::Job make_job(std::size_t id, double arrival, double load,
                     double alpha, double deadline = kInf,
                     std::size_t tenant = 0) {
  online::Job job;
  job.id = id;
  job.arrival = arrival;
  job.load = load;
  job.alpha = alpha;
  job.deadline = deadline;
  job.tenant = tenant;
  return job;
}

ServiceModel make_service(std::size_t rounds, double restart_fraction) {
  ServiceModel service;
  service.plan.rounds = rounds;
  service.plan.restart_load_fraction = restart_fraction;
  return service;
}

// The comm model a ServiceModel describes and a solver over it, for cases
// that predict or admit outside a Server. `plat` must outlive it.
struct ModelSolver {
  ModelSolver(const platform::Platform& plat, const ServiceModel& service)
      : model(make_model(service)), solver(plat, *model, service) {}
  std::unique_ptr<sim::CommModel> model;
  InstallmentSolver solver;
};

// --- ServicePlan ------------------------------------------------------------

TEST(ServicePlan, UninterruptedServiceIsRoundsTimesCleanDuration) {
  const auto plat = platform::Platform::homogeneous(4);
  const ServiceModel service = make_service(4, 0.0);
  const auto model = make_model(service);
  InstallmentSolver solver(plat, *model, service);
  const online::Job job = make_job(0, 0.0, 80.0, 1.0);
  ServicePlan plan(solver, job, job.load);

  // Homogeneous linear: one installment of 20 load -> n_i = 5 each,
  // T = c·5 + w·5 = 10.
  EXPECT_NEAR(plan.clean_duration(), 10.0, 1e-6);
  EXPECT_DOUBLE_EQ(plan.total_duration(), 4.0 * plan.clean_duration());
  EXPECT_DOUBLE_EQ(
      plan.total_duration(),
      ModelSolver(plat, service).solver.predicted_service(job.load,
                                                          job.alpha));

  double served = 0.0;
  while (!plan.done()) {
    EXPECT_DOUBLE_EQ(plan.next_duration(), plan.clean_duration());
    served += plan.next_duration();
    plan.advance();
  }
  EXPECT_DOUBLE_EQ(served, plan.total_duration());
  EXPECT_EQ(plan.preemptions(), 0u);
  EXPECT_DOUBLE_EQ(plan.restart_time(), 0.0);
  EXPECT_DOUBLE_EQ(plan.remaining_load(), 0.0);
}

TEST(ServicePlan, ZeroRestartResumeIsBitIdenticalToUninterrupted) {
  // THE PINNED EQUIVALENCE: with restart cost zero, a plan paused and
  // resumed at a chunk boundary charges the exact same installment
  // durations as a plan that never yielded.
  const auto plat = platform::Platform::two_class(4, 1.0, 3.0);
  const ServiceModel service = make_service(3, 0.0);
  const auto model = make_model(service);
  InstallmentSolver solver(plat, *model, service);
  const online::Job job = make_job(0, 0.0, 90.0, 2.0);

  ServicePlan straight(solver, job, job.load);
  ServicePlan preempted(solver, job, job.load);

  double straight_total = 0.0;
  double preempted_total = 0.0;
  for (int round = 0; round < 3; ++round) {
    const double straight_duration = straight.next_duration();
    straight_total += straight_duration;
    straight.advance();
    preempted.pause();  // yield at every chunk boundary
    EXPECT_EQ(preempted.next_duration(), straight_duration);
    preempted_total += preempted.next_duration();
    preempted.advance();
  }
  EXPECT_EQ(straight_total, preempted_total);  // bitwise
  EXPECT_DOUBLE_EQ(preempted.restart_time(), 0.0);
  EXPECT_EQ(preempted.preemptions(), 2u);  // pauses after rounds 1 and 2
  EXPECT_EQ(straight.compute_time(), preempted.compute_time());
}

TEST(ServicePlan, RestartInflationChargesTheResumedInstallment) {
  const auto plat = platform::Platform::homogeneous(4);
  const ServiceModel service = make_service(2, 0.5);
  const auto model = make_model(service);
  InstallmentSolver solver(plat, *model, service);
  const online::Job job = make_job(0, 0.0, 80.0, 1.0);
  ServicePlan plan(solver, job, job.load);

  // Installment 40 -> T = 20; inflated installment 60 -> T = 30.
  EXPECT_NEAR(plan.clean_duration(), 20.0, 1e-6);
  plan.advance();
  plan.pause();
  EXPECT_NEAR(plan.next_duration(), 30.0, 1e-6);
  EXPECT_NEAR(plan.remaining_duration(), 30.0, 1e-6);
  plan.advance();
  EXPECT_TRUE(plan.done());
  EXPECT_NEAR(plan.restart_time(), 10.0, 1e-6);
  EXPECT_EQ(plan.preemptions(), 1u);
}

TEST(ServicePlan, RestartSurchargeIsSuperlinearInAlpha) {
  // The no-free-lunch core: the SAME restart fraction costs a quadratic
  // job proportionally more than a linear one, because the inflated
  // chunks pay w·X^alpha.
  const auto plat = platform::Platform::homogeneous(4);
  const ServiceModel service = make_service(2, 0.5);
  const auto model = make_model(service);
  InstallmentSolver solver(plat, *model, service);

  const auto surcharge_ratio = [&](double alpha) {
    const online::Job job = make_job(0, 0.0, 80.0, alpha);
    ServicePlan plan(solver, job, job.load);
    plan.advance();
    plan.pause();
    const double inflated = plan.next_duration();
    return (inflated - plan.clean_duration()) / plan.clean_duration();
  };
  const double linear = surcharge_ratio(1.0);
  const double quadratic = surcharge_ratio(2.0);
  // Linear: 30/20 - 1 = 50% (comm and compute both scale by 1.5).
  EXPECT_NEAR(linear, 0.5, 1e-6);
  // Quadratic: T(60) = 15 + 225 vs T(40) = 10 + 100 -> ~118%.
  EXPECT_GT(quadratic, 1.0);
  EXPECT_GT(quadratic, 1.5 * linear);
}

TEST(ServicePlan, PauseIsANoopOutsideService) {
  const auto plat = platform::Platform::homogeneous(2);
  const ServiceModel service = make_service(2, 1.0);
  const auto model = make_model(service);
  InstallmentSolver solver(plat, *model, service);
  const online::Job job = make_job(0, 0.0, 10.0, 1.0);
  ServicePlan plan(solver, job, job.load);

  plan.pause();  // never started: nothing dispatched, nothing to restart
  EXPECT_EQ(plan.preemptions(), 0u);
  EXPECT_DOUBLE_EQ(plan.next_duration(), plan.clean_duration());
  plan.advance();
  plan.pause();
  plan.pause();  // double pause while queued is ONE preemption
  EXPECT_EQ(plan.preemptions(), 1u);
  plan.advance();
  EXPECT_TRUE(plan.done());
  plan.pause();  // after completion: no-op
  EXPECT_EQ(plan.preemptions(), 1u);
}

TEST(ServicePlan, ValidatesItsInputs) {
  const auto plat = platform::Platform::homogeneous(2);
  const auto model = make_model(make_service(1, 0.0));
  const online::Job job = make_job(0, 0.0, 10.0, 1.0);
  // A zero-round plan is rejected at the solver.
  EXPECT_THROW(InstallmentSolver(plat, *model, make_service(0, 0.0)),
               util::PreconditionError);
  InstallmentSolver solver(plat, *model, make_service(2, 0.0));
  EXPECT_THROW(ServicePlan(solver, job, 0.0), util::PreconditionError);
  EXPECT_THROW(ServicePlan(solver, job, 20.0), util::PreconditionError);
  EXPECT_THROW((void)solver.predicted_service(-1.0, 1.0),
               util::PreconditionError);
}

// --- InstallmentSolver -----------------------------------------------------

// The solver's replay run points at the solver's own engine, so a copy or
// a move would leave the run pointing at the original.
static_assert(!std::is_copy_constructible_v<InstallmentSolver> &&
              !std::is_copy_assignable_v<InstallmentSolver> &&
              !std::is_move_constructible_v<InstallmentSolver> &&
              !std::is_move_assignable_v<InstallmentSolver>);

/// Test-local oracle: one installment the unshared way, a fresh engine
/// with the job's alpha replaying the matched allocation's schedule.
InstallmentSolver::Installment fresh_replay(const platform::Platform& plat,
                                            const sim::CommModel& model,
                                            sim::CommModelKind comm,
                                            double load, double alpha) {
  const auto allocation =
      dlt::nonlinear_single_round_for(comm, plat, load, alpha);
  const sim::Engine engine(plat, {alpha});
  const sim::SimResult result = engine.run(allocation.to_schedule(), model);
  InstallmentSolver::Installment installment;
  installment.duration = result.makespan;
  for (const double t : result.worker_compute_time) installment.busy += t;
  return installment;
}

TEST(InstallmentSolver, EverySolveMatchesAFreshEngineWhateverCameBefore) {
  // One long-lived solver per comm model replays every memo miss on the
  // same run. Loads go ascending, then descending, then interleaved low
  // and high (each pass on its own grid, so every call is a miss), each
  // load at every alpha: whatever the run replayed last, the answer must
  // carry the oracle's bits.
  const auto plat = platform::Platform::two_class(8, 1.0, 4.0);
  std::vector<double> grid;
  for (double load = 0.5; load < 500.0; load *= 1.7) grid.push_back(load);
  std::vector<double> loads = grid;
  for (auto it = grid.rbegin(); it != grid.rend(); ++it) {
    loads.push_back(*it * 1.1);
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::size_t k = i % 2 == 0 ? i / 2 : grid.size() - 1 - i / 2;
    loads.push_back(grid[k] * 1.2);
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };

  for (const sim::CommModelKind comm :
       {sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
        sim::CommModelKind::kBoundedMultiport}) {
    ServiceModel service = make_service(1, 0.0);
    service.comm = comm;
    if (comm == sim::CommModelKind::kBoundedMultiport) service.capacity = 2.0;
    const auto model = make_model(service);
    InstallmentSolver solver(plat, *model, service);
    for (const double load : loads) {
      for (const double alpha : {1.0, 1.5, 2.0, 3.0}) {
        const InstallmentSolver::Installment got = solver.solve(load, alpha);
        const InstallmentSolver::Installment want =
            fresh_replay(plat, *model, comm, load, alpha);
        EXPECT_EQ(bits(got.duration), bits(want.duration))
            << "comm " << static_cast<int>(comm) << " load " << load
            << " alpha " << alpha;
        EXPECT_EQ(bits(got.busy), bits(want.busy))
            << "comm " << static_cast<int>(comm) << " load " << load
            << " alpha " << alpha;
      }
    }
  }
}

TEST(InstallmentSolver, BoundedMemoAnswersLikeAFreshSolverAcrossClears) {
  // One long-lived solver sees more than twice as many distinct keys as
  // its memo holds, so the memo clears at least twice. Between new keys
  // come repeats of recent keys (hits while the memo holds them), repeats
  // of old keys (misses again once a clear dropped them), and loads and
  // alphas one ulp from the key just asked. Every answer must carry the
  // bits of a fresh solver's, whose memo is empty.
  const auto plat = platform::Platform::two_class(8, 1.0, 4.0);
  ServiceModel service = make_service(3, 0.3);
  service.comm = sim::CommModelKind::kBoundedMultiport;
  service.capacity = 2.0;
  const auto model = make_model(service);
  InstallmentSolver solver(plat, *model, service);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };

  std::vector<std::pair<double, double>> asked;
  std::set<std::pair<std::uint64_t, std::uint64_t>> distinct;
  const auto check = [&](double load, double alpha) {
    const InstallmentSolver::Installment got = solver.solve(load, alpha);
    InstallmentSolver fresh(plat, *model, service);
    const InstallmentSolver::Installment want = fresh.solve(load, alpha);
    EXPECT_EQ(bits(got.duration), bits(want.duration))
        << "load " << load << " alpha " << alpha;
    EXPECT_EQ(bits(got.busy), bits(want.busy))
        << "load " << load << " alpha " << alpha;
    asked.emplace_back(load, alpha);
    distinct.emplace(bits(load), bits(alpha));
    return got;
  };

  util::Rng rng(20261018);
  const double alphas[] = {1.0, 1.5, 2.0, 3.0};
  std::size_t ulp_moves = 0;
  const std::size_t two_clears = 2 * InstallmentSolver::kMemoEntries + 1;
  for (std::size_t i = 0; distinct.size() < two_clears; ++i) {
    const double load = rng.uniform(1.0, 200.0);
    const double alpha = alphas[rng.uniform_int(0, 3)];
    const InstallmentSolver::Installment base = check(load, alpha);
    if (i % 3 == 0) {
      const InstallmentSolver::Installment up =
          check(std::nextafter(load, kInf), alpha);
      if (bits(up.duration) != bits(base.duration)) ++ulp_moves;
    }
    if (i % 5 == 0) (void)check(load, std::nextafter(alpha, kInf));
    if (i % 2 == 0) {
      const std::size_t back =
          static_cast<std::size_t>(rng.uniform_int(1, 16));
      const auto [l, a] = asked[asked.size() - std::min(back, asked.size())];
      (void)check(l, a);
    }
    if (i % 7 == 0) {
      const auto [l, a] = asked[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(asked.size()) - 1))];
      (void)check(l, a);
    }
  }
  // The ulp neighbours test the keying only where their answers differ:
  // a table that confused two keys would hand one the other's bits.
  EXPECT_GT(ulp_moves, 0u);
}

// --- Admission --------------------------------------------------------------

TEST(Admission, BestEffortJobsAreAlwaysAdmittedWhole) {
  const auto plat = platform::Platform::homogeneous(4);
  ModelSolver owned(plat, make_service(2, 0.0));
  const AdmissionController admission(owned.solver);
  const AdmissionDecision decision =
      admission.decide(make_job(0, 0.0, 80.0, 1.0));
  EXPECT_TRUE(decision.admitted);
  EXPECT_FALSE(decision.degraded);
  EXPECT_DOUBLE_EQ(decision.served_load, 80.0);
  EXPECT_NEAR(decision.predicted_service, 40.0, 1e-6);
}

TEST(Admission, RejectsProvablyInfeasibleDeadlines) {
  const auto plat = platform::Platform::homogeneous(4);
  const ServiceModel service = make_service(2, 0.0);
  // Predicted service of 80 load is ~40; slack 30 cannot work even on an
  // idle platform.
  const online::Job infeasible = make_job(0, 10.0, 80.0, 1.0, 40.0);
  const online::Job feasible = make_job(1, 10.0, 80.0, 1.0, 60.0);

  ModelSolver owned(plat, service);
  const AdmissionController reject(owned.solver,
                                   {AdmissionMode::kReject, 0.25, 32});
  EXPECT_FALSE(reject.decide(infeasible).admitted);
  EXPECT_TRUE(reject.decide(feasible).admitted);

  const AdmissionController admit_all(owned.solver,
                                      {AdmissionMode::kAdmitAll, 0.25, 32});
  EXPECT_TRUE(admit_all.decide(infeasible).admitted);
}

TEST(Admission, DegradeShrinksTheLoadToTheSlack) {
  const auto plat = platform::Platform::homogeneous(4);
  const ServiceModel service = make_service(2, 0.0);
  ModelSolver owned(plat, service);
  const AdmissionController degrade(owned.solver,
                                    {AdmissionMode::kDegrade, 0.25, 40});
  // Slack 30 fits 3/4 of the load (service is linear in load here:
  // T(f·80) = 40f <= 30 -> f = 0.75).
  const AdmissionDecision decision =
      degrade.decide(make_job(0, 0.0, 80.0, 1.0, 30.0));
  EXPECT_TRUE(decision.admitted);
  EXPECT_TRUE(decision.degraded);
  EXPECT_NEAR(decision.served_load, 60.0, 1e-4);
  EXPECT_LE(decision.predicted_service, 30.0 + 1e-9);

  // Below the floor fraction the job is rejected outright.
  const AdmissionDecision hopeless =
      degrade.decide(make_job(1, 0.0, 80.0, 1.0, 5.0));
  EXPECT_FALSE(hopeless.admitted);
  EXPECT_DOUBLE_EQ(hopeless.served_load, 0.0);

  // A feasible job passes through whole, not degraded.
  const AdmissionDecision whole =
      degrade.decide(make_job(2, 0.0, 80.0, 1.0, 50.0));
  EXPECT_TRUE(whole.admitted);
  EXPECT_FALSE(whole.degraded);
  EXPECT_DOUBLE_EQ(whole.served_load, 80.0);
}

TEST(Admission, SearchDepthIsBetweenOneAndForty) {
  // Deeper than 40 steps the leaves sit a few ULPs apart, where computed
  // service is not monotone in load and a search could end on another
  // crossing of the slack than bisection.
  const auto plat = platform::Platform::homogeneous(4);
  ModelSolver owned(plat, make_service(2, 0.0));
  for (const int depth : {0, 41}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    EXPECT_THROW(AdmissionController(owned.solver,
                                     {AdmissionMode::kDegrade, 0.25, depth}),
                 util::PreconditionError);
    const auto twice = [](double fraction) { return 2.0 * fraction; };
    EXPECT_THROW((void)largest_feasible_fraction(twice, 1.5, 0.25, depth,
                                                 0.5, 2.0),
                 util::PreconditionError);
  }
  const AdmissionController deepest(owned.solver,
                                    {AdmissionMode::kDegrade, 0.25, 40});
  EXPECT_TRUE(deepest.decide(make_job(0, 0.0, 80.0, 1.0, 30.0)).degraded);
}

// --- The degrade search against bisection -----------------------------------

/// Leaf k of a `depth`-step bisection over [floor, 1]: the halvings
/// `mid = 0.5 * (lo + hi)` down k's bits, most significant first.
double bisection_leaf(std::uint64_t k, double floor, int depth) {
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

/// The fixed bisection the degrade search replaced, over a fraction.
FeasibleFraction bisection_fraction(
    const std::function<double(double)>& service_of, double slack,
    double floor, int depth) {
  double lo = floor;
  double hi = 1.0;
  for (int i = 0; i < depth; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (service_of(mid) <= slack) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return {lo, service_of(lo)};
}

/// AdmissionController::decide as it was with the fixed bisection: the
/// oracle every decision of the search must equal bit for bit.
AdmissionDecision bisection_decide(InstallmentSolver& solver,
                                   const AdmissionOptions& options,
                                   const online::Job& job) {
  AdmissionDecision decision;
  const auto service_of = [&](double load) {
    return solver.predicted_service(load, job.alpha);
  };
  const double full = service_of(job.load);
  if (!job.has_deadline() || options.mode == AdmissionMode::kAdmitAll ||
      full <= job.slack()) {
    decision.served_load = job.load;
    decision.predicted_service = full;
    return decision;
  }
  if (options.mode == AdmissionMode::kReject) {
    decision.admitted = false;
    return decision;
  }
  if (service_of(options.min_load_fraction * job.load) > job.slack()) {
    decision.admitted = false;
    return decision;
  }
  const FeasibleFraction fits = bisection_fraction(
      [&](double fraction) { return service_of(fraction * job.load); },
      job.slack(), options.min_load_fraction, options.bisection_iterations);
  decision.degraded = true;
  decision.served_load = fits.fraction * job.load;
  decision.predicted_service = fits.service;
  return decision;
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Checks one degrade decision of the library against the bisection oracle
/// and tallies the solver calls of a degraded one: the full load and the
/// floor, then decide's search rerun with a counting callable.
struct DegradeCheck {
  std::size_t decisions = 0;
  std::size_t degraded = 0;
  std::size_t calls_at_32 = 0;
  std::size_t degraded_at_32 = 0;
  std::size_t most_at_32 = 0;

  void check(const platform::Platform& plat, const ServiceModel& service,
             const AdmissionOptions& options, const online::Job& job) {
    ModelSolver library(plat, service);
    ModelSolver oracle(plat, service);
    const AdmissionDecision got =
        AdmissionController(library.solver, options).decide(job);
    const AdmissionDecision want =
        bisection_decide(oracle.solver, options, job);
    ++decisions;
    EXPECT_EQ(got.admitted, want.admitted);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(bits_of(got.served_load), bits_of(want.served_load));
    EXPECT_EQ(bits_of(got.predicted_service),
              bits_of(want.predicted_service));
    if (!want.degraded) return;
    ++degraded;

    std::size_t calls = 2;  // the full load and the floor
    const auto service_of = [&](double fraction) {
      ++calls;
      return oracle.solver.predicted_service(fraction * job.load, job.alpha);
    };
    const double floor = options.min_load_fraction;
    const FeasibleFraction fits = largest_feasible_fraction(
        service_of, job.slack(), floor, options.bisection_iterations,
        oracle.solver.predicted_service(floor * job.load, job.alpha),
        oracle.solver.predicted_service(job.load, job.alpha));
    EXPECT_EQ(bits_of(fits.fraction * job.load), bits_of(got.served_load));
    EXPECT_EQ(bits_of(fits.service), bits_of(got.predicted_service));
    EXPECT_LE(calls,
              static_cast<std::size_t>(options.bisection_iterations) + 6);
    if (options.bisection_iterations == 32) {
      calls_at_32 += calls;
      ++degraded_at_32;
      most_at_32 = std::max(most_at_32, calls);
    }
  }
};

TEST(Admission, DegradeSearchCarriesTheBisectionsBits) {
  // Generated platforms, comm models, alphas, rounds, floors, depths and
  // slacks: every decision must equal the bisection oracle's bit for bit,
  // and a degraded one at depth 32 must take a handful of solver calls
  // where bisection takes 35. Dropping the Illinois halving, or a budget
  // of depth + 2, pushes the worst case here past 16.
  constexpr double kFloors[] = {0.25, 0.1, 1.0 / 3.0, 0.9, 0.999, 1e-6};
  constexpr int kDepths[] = {1, 2, 3, 7, 16, 31, 32, 40};
  constexpr double kAlphas[] = {1.0, 1.5, 2.0, 3.0};
  constexpr sim::CommModelKind kComms[] = {
      sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
      sim::CommModelKind::kBoundedMultiport};
  const auto pick = [](util::Rng& rng, const auto& values) {
    const auto count = static_cast<std::int64_t>(std::size(values));
    return values[static_cast<std::size_t>(rng.uniform_int(0, count - 1))];
  };
  util::Rng rng(20261016);
  DegradeCheck tally;
  for (int setting = 0; setting < 150; ++setting) {
    const double c = rng.uniform(0.2, 2.0);
    const auto p = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const platform::Platform plat = [&] {
      switch (setting % 3) {
        case 0:
          return platform::Platform::homogeneous(2 * p - 1, c);
        case 1:
          return platform::Platform::two_class(2 * p, rng.uniform(0.5, 2.0),
                                               rng.uniform(1.0, 8.0), c);
        default: {
          std::vector<double> speeds(2 * p);
          for (double& speed : speeds) speed = rng.uniform(0.2, 5.0);
          return platform::Platform::from_speeds(speeds, c);
        }
      }
    }();
    ServiceModel service =
        make_service(static_cast<std::size_t>(rng.uniform_int(1, 4)), 0.0);
    service.comm = pick(rng, kComms);
    if (service.comm == sim::CommModelKind::kBoundedMultiport) {
      service.capacity = rng.uniform(0.5, 4.0);
    }
    ModelSolver slack_solver(plat, service);
    for (int j = 0; j < 12; ++j) {
      const double alpha = pick(rng, kAlphas);
      const double load = rng.uniform(1.0, 200.0);
      const double full = slack_solver.solver.predicted_service(load, alpha);
      const online::Job job = make_job(tally.decisions, 0.0, load, alpha,
                                       rng.uniform(0.05, 1.05) * full);
      const AdmissionOptions options{AdmissionMode::kDegrade,
                                     pick(rng, kFloors), pick(rng, kDepths)};
      SCOPED_TRACE("setting " + std::to_string(setting) + " job " +
                   std::to_string(j));
      tally.check(plat, service, options, job);
    }
  }
  // The servebench shape: reference tenants at 0.35x their slack factors
  // on two_class(8, 1, 4), bounded multiport at capacity 2, 3 rounds.
  const auto plat = platform::Platform::two_class(8, 1.0, 4.0);
  ServiceModel service = make_service(3, 0.3);
  service.comm = sim::CommModelKind::kBoundedMultiport;
  service.capacity = 2.0;
  std::vector<TenantSpec> tenants = reference_tenants();
  const double rate = 0.8 / mean_predicted_service(tenants, plat, service);
  for (TenantSpec& tenant : tenants) {
    tenant.rate *= rate;
    tenant.slo_slack_factor *= 0.35;
  }
  util::Rng traffic_rng(20130520);
  const auto jobs = generate_tenant_traffic(tenants, plat, service,
                                            400.0 / rate, traffic_rng);
  ASSERT_GT(jobs.size(), 300u);
  const std::size_t degraded_before = tally.degraded;
  for (const online::Job& job : jobs) {
    SCOPED_TRACE("tenant job " + std::to_string(job.id));
    tally.check(plat, service, AdmissionOptions{AdmissionMode::kDegrade}, job);
  }
  EXPECT_GT(tally.degraded - degraded_before, 50u);

  EXPECT_GT(tally.degraded, tally.decisions / 4);
  ASSERT_GT(tally.degraded_at_32, 100u);
  EXPECT_LE(static_cast<double>(tally.calls_at_32) /
                static_cast<double>(tally.degraded_at_32),
            8.0);
  EXPECT_LE(tally.most_at_32, 16u);
}

TEST(Admission, DegradeSearchFindsTheBisectionsLeafOnSyntheticService) {
  // Steps, flat-then-steep, power laws, exponentials, an exact tie at a
  // leaf and an infinite full load: the search must return bisection's
  // leaf and service, within depth + 4 calls whatever the shape.
  struct Case {
    std::string name;
    std::function<double(double)> service;
    double slack = 1.0;
  };
  constexpr double kFloors[] = {0.25, 1e-6, 0.9, 0.999};
  constexpr int kDepths[] = {1, 2, 3, 7, 16, 31, 32, 40};
  util::Rng rng(20130520);
  for (const double floor : kFloors) {
    for (const int depth : kDepths) {
      const auto last = (std::int64_t{1} << depth) - 1;
      const auto leaf_at = [&](std::int64_t k) {
        return bisection_leaf(static_cast<std::uint64_t>(k), floor, depth);
      };
      // A crossing strictly inside (floor, 1).
      const double u = floor + (1.0 - floor) * rng.uniform(0.01, 0.99);
      std::vector<Case> cases;
      for (const std::int64_t step :
           {std::int64_t{0}, last, rng.uniform_int(0, last),
            rng.uniform_int(0, last)}) {
        const double edge = leaf_at(step);
        cases.push_back({"step after leaf " + std::to_string(step),
                         [edge](double f) { return f <= edge ? 0.5 : 2.0; }});
      }
      cases.push_back({"flat then steep", [u](double f) {
                         return 0.9 + 1e6 * std::max(0.0, f - u) / (1.0 - u);
                       }});
      for (const double power : {0.5, 1.0, 2.0, 3.0, 5.0, 8.0}) {
        cases.push_back({"power " + std::to_string(power),
                         [power](double f) { return std::pow(f, power); },
                         std::pow(u, power)});
      }
      for (const double rate : {1.0, 10.0, 100.0}) {
        cases.push_back({"exponential " + std::to_string(rate),
                         [rate](double f) { return std::exp(rate * f); },
                         std::exp(rate * u)});
      }
      const auto linear = [](double f) { return 3.7 * f; };
      cases.push_back({"linear, slack at a leaf", linear,
                       linear(leaf_at(rng.uniform_int(0, last)))});
      cases.push_back({"infinite full load",
                       [](double f) { return f < 1.0 ? 2.0 * f : kInf; },
                       2.0 * u});

      for (const Case& c : cases) {
        SCOPED_TRACE(c.name + ", floor " + std::to_string(floor) +
                     ", depth " + std::to_string(depth));
        std::size_t calls = 0;
        const auto counted = [&](double fraction) {
          ++calls;
          return c.service(fraction);
        };
        const FeasibleFraction got =
            largest_feasible_fraction(counted, c.slack, floor, depth,
                                      c.service(floor), c.service(1.0));
        const FeasibleFraction want =
            bisection_fraction(c.service, c.slack, floor, depth);
        EXPECT_EQ(bits_of(got.fraction), bits_of(want.fraction));
        EXPECT_EQ(bits_of(got.service), bits_of(want.service));
        EXPECT_LE(calls, static_cast<std::size_t>(depth) + 4);
      }
    }
  }
}

// --- Policies ---------------------------------------------------------------

std::vector<Candidate> two_candidates(const online::Job& a,
                                      const online::Job& b,
                                      double remaining_a, double remaining_b,
                                      bool a_active) {
  std::vector<Candidate> ready(2);
  ready[0].job = &a;
  ready[0].remaining_duration = remaining_a;
  ready[0].total_duration = remaining_a;
  ready[0].started = a_active;
  ready[0].active = a_active;
  ready[1].job = &b;
  ready[1].remaining_duration = remaining_b;
  ready[1].total_duration = remaining_b;
  return ready;
}

TEST(Policy, FcfsNeverPreemptsAndServesArrivalOrder) {
  FcfsPolicy fcfs;
  const online::Job slow = make_job(0, 0.0, 100.0, 1.0);
  const online::Job fast = make_job(1, 1.0, 1.0, 1.0);
  // Active long job keeps the platform even though a shorter one waits.
  EXPECT_EQ(fcfs.pick(two_candidates(slow, fast, 50.0, 1.0, true), 2.0),
            0u);
  // Nobody active: earliest arrival wins.
  EXPECT_EQ(fcfs.pick(two_candidates(slow, fast, 50.0, 1.0, false), 2.0),
            0u);
}

TEST(Policy, SrptPreemptsForTheShorterRemainingTime) {
  SrptPolicy srpt;
  const online::Job slow = make_job(0, 0.0, 100.0, 1.0);
  const online::Job fast = make_job(1, 1.0, 1.0, 1.0);
  EXPECT_EQ(srpt.pick(two_candidates(slow, fast, 50.0, 1.0, true), 2.0),
            1u);
}

TEST(Policy, EdfRanksByDeadlineWithBestEffortLast) {
  EdfPolicy edf;
  const online::Job loose = make_job(0, 0.0, 10.0, 1.0, 100.0);
  const online::Job tight = make_job(1, 1.0, 10.0, 1.0, 20.0);
  const online::Job best_effort = make_job(2, 0.0, 10.0, 1.0);
  EXPECT_EQ(edf.pick(two_candidates(loose, tight, 5.0, 5.0, true), 2.0),
            1u);
  EXPECT_EQ(edf.pick(two_candidates(best_effort, tight, 5.0, 5.0, false),
                     2.0),
            1u);
}

TEST(Policy, WfqServesTheLeastAttainedWeightedTenant) {
  WfqPolicy wfq({3.0, 1.0});
  wfq.reset(2);
  const online::Job heavy = make_job(0, 0.0, 10.0, 1.0, kInf, 0);
  const online::Job light = make_job(1, 1.0, 10.0, 1.0, kInf, 1);
  auto ready = two_candidates(heavy, light, 5.0, 5.0, false);

  // Fresh run: both tenants at 0, tie -> earliest arrival (tenant 0).
  EXPECT_EQ(wfq.pick(ready, 0.0), 0u);
  wfq.on_service(ready[0], 6.0);
  // Tenant 0 attained 6/weight 3 = 2 > tenant 1's 0: switch.
  EXPECT_EQ(wfq.pick(ready, 6.0), 1u);
  wfq.on_service(ready[1], 6.0);
  // Tenant 1 attained 6/1 = 6 > tenant 0's 2: switch back.
  EXPECT_EQ(wfq.pick(ready, 12.0), 0u);
  EXPECT_DOUBLE_EQ(wfq.attained(0), 6.0);
  EXPECT_DOUBLE_EQ(wfq.attained(1), 6.0);
  EXPECT_THROW(WfqPolicy({0.0}), util::PreconditionError);
}

TEST(Policy, FactoryBuildsTheNamedPolicy) {
  EXPECT_NE(dynamic_cast<FcfsPolicy*>(make_policy(PolicyKind::kFcfs).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<SpmfPolicy*>(make_policy(PolicyKind::kSpmf).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<SrptPolicy*>(make_policy(PolicyKind::kSrpt).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<EdfPolicy*>(make_policy(PolicyKind::kEdf).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<WfqPolicy*>(make_policy(PolicyKind::kWfq).get()),
            nullptr);
}

// --- Server -----------------------------------------------------------------

TEST(Server, SingleJobFinishesAtItsPredictedService) {
  const auto plat = platform::Platform::homogeneous(4);
  const Server server(plat, {make_service(4, 0.0), {}});
  FcfsPolicy fcfs;
  const auto records = server.run({make_job(0, 1.0, 80.0, 1.0)}, fcfs);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].admitted);
  EXPECT_DOUBLE_EQ(records[0].dispatch, 1.0);
  EXPECT_NEAR(records[0].finish, 1.0 + 40.0, 1e-6);
  EXPECT_DOUBLE_EQ(records[0].service_time,
                   records[0].finish - records[0].dispatch);
  EXPECT_EQ(records[0].preemptions, 0u);
}

TEST(Server, ZeroRestartPreemptionReproducesUninterruptedCompletion) {
  // THE PINNED EQUIVALENCE, end to end: under SRPT a short job preempts
  // a long one at a chunk boundary; with restart cost zero the long
  // job's completion time is EXACTLY its uninterrupted completion plus
  // the intruder's service time.
  const auto plat = platform::Platform::homogeneous(4);
  const Server server(plat, {make_service(2, 0.0), {}});

  const auto long_job = make_job(0, 0.0, 80.0, 1.0);  // 2 x 20
  const auto short_job = make_job(1, 1.0, 8.0, 1.0);  // 2 x 2

  FcfsPolicy fcfs;
  const auto alone = server.run({long_job}, fcfs);

  SrptPolicy srpt;
  const auto both = server.run({long_job, short_job}, srpt);
  // The short job cuts in at the first boundary (t ~ 20) and runs to
  // completion before the long job resumes.
  EXPECT_NEAR(both[1].dispatch, 20.0, 1e-6);
  EXPECT_EQ(both[0].preemptions, 1u);
  EXPECT_DOUBLE_EQ(both[0].restart_time, 0.0);
  EXPECT_NEAR(both[0].finish, alone[0].finish + both[1].service_time,
              1e-9);
  // And the intruder itself never waited past its boundary.
  EXPECT_NEAR(both[1].finish, both[1].dispatch + 4.0, 1e-6);
}

TEST(Server, RestartSurchargeLandsOnThePreemptedJob) {
  const auto plat = platform::Platform::homogeneous(4);
  const Server server(plat, {make_service(2, 0.5), {}});
  const auto long_job = make_job(0, 0.0, 80.0, 1.0);
  const auto short_job = make_job(1, 1.0, 8.0, 1.0);

  SrptPolicy srpt;
  const auto records = server.run({long_job, short_job}, srpt);
  // Resumed installment serves 60 load (40 x 1.5) -> 30 instead of 20.
  EXPECT_EQ(records[0].preemptions, 1u);
  EXPECT_NEAR(records[0].restart_time, 10.0, 1e-6);
  EXPECT_NEAR(records[0].finish, 20.0 + 4.0 + 30.0, 1e-6);
  EXPECT_NEAR(records[0].service_time, 50.0, 1e-6);
  // The short job pays nothing: it was never preempted.
  EXPECT_EQ(records[1].preemptions, 0u);
  EXPECT_DOUBLE_EQ(records[1].restart_time, 0.0);
}

TEST(Server, ArrivalsDuringAnInstallmentWaitForTheChunkBoundary) {
  const auto plat = platform::Platform::homogeneous(4);
  const Server server(plat, {make_service(2, 0.0), {}});
  // The short job arrives mid-installment; even SRPT cannot dispatch it
  // before the running chunk completes at t = 20.
  SrptPolicy srpt;
  const auto records = server.run(
      {make_job(0, 0.0, 80.0, 1.0), make_job(1, 5.0, 8.0, 1.0)}, srpt);
  EXPECT_NEAR(records[1].dispatch, 20.0, 1e-6);
  EXPECT_GT(records[1].wait(), 14.0);
}

TEST(Server, EdfServesTheTighterDeadlineFirst) {
  const auto plat = platform::Platform::homogeneous(4);
  const Server server(plat, {make_service(2, 0.0), {}});
  // j0 arrives first with a loose deadline, j1 second with a tight one.
  const auto jobs = std::vector<online::Job>{
      make_job(0, 0.0, 40.0, 1.0, 1000.0),
      make_job(1, 1.0, 40.0, 1.0, 100.0)};

  FcfsPolicy fcfs;
  const auto in_order = server.run(jobs, fcfs);
  EXPECT_LT(in_order[0].finish, in_order[1].finish);

  EdfPolicy edf;
  const auto by_deadline = server.run(jobs, edf);
  EXPECT_LT(by_deadline[1].finish, by_deadline[0].finish);
  EXPECT_EQ(by_deadline[0].preemptions, 1u);
  EXPECT_TRUE(by_deadline[0].met_deadline());
  EXPECT_TRUE(by_deadline[1].met_deadline());
}

TEST(Server, RejectedJobsAreRecordedButNeverServed) {
  const auto plat = platform::Platform::homogeneous(4);
  ServerOptions options{make_service(2, 0.0), {}};
  options.admission.mode = AdmissionMode::kReject;
  const Server server(plat, options);
  FcfsPolicy fcfs;
  // Predicted service 40 vs slack 10: provably infeasible.
  const auto records = server.run(
      {make_job(0, 2.0, 80.0, 1.0, 12.0), make_job(1, 3.0, 8.0, 1.0)},
      fcfs);
  EXPECT_FALSE(records[0].admitted);
  EXPECT_DOUBLE_EQ(records[0].served_load, 0.0);
  EXPECT_DOUBLE_EQ(records[0].finish, 2.0);  // turned away at arrival
  EXPECT_FALSE(records[0].met_deadline());
  // The feasible job is unaffected — it did not queue behind the reject.
  EXPECT_TRUE(records[1].admitted);
  EXPECT_DOUBLE_EQ(records[1].dispatch, 3.0);
}

TEST(Server, RunsAreBitIdenticalOnReplay) {
  const auto plat = platform::Platform::two_class(6, 1.0, 4.0);
  ServiceModel service = make_service(3, 1.0);
  service.comm = sim::CommModelKind::kOnePort;
  const Server server(plat, {service, {}});

  online::JobMix mix;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};
  const online::PoissonArrivals arrivals(0.02, mix);
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  const auto jobs_a = arrivals.generate(2000.0, rng_a);
  const auto jobs_b = arrivals.generate(2000.0, rng_b);
  ASSERT_GT(jobs_a.size(), 10u);

  SrptPolicy srpt_a;
  SrptPolicy srpt_b;
  const auto first = server.run(jobs_a, srpt_a);
  const auto second = server.run(jobs_b, srpt_b);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].dispatch, second[i].dispatch);
    EXPECT_EQ(first[i].finish, second[i].finish);
    EXPECT_EQ(first[i].service_time, second[i].service_time);
    EXPECT_EQ(first[i].preemptions, second[i].preemptions);
    EXPECT_EQ(first[i].restart_time, second[i].restart_time);
  }
}

TEST(Server, OneWorkerInstallmentsServeEveryJob) {
  // Concurrency 8 on eight workers: every installment is solved on a
  // one-worker platform, where the solver's makespan bracket is tight.
  const auto plat = platform::Platform::two_class(8, 1.0, 4.0);
  online::JobMix mix;
  mix.load_lo = 40.0;
  mix.load_hi = 120.0;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};
  util::Rng rng(7);
  const auto jobs = online::PoissonArrivals(0.05, mix).generate(2000.0, rng);
  ASSERT_EQ(jobs.size(), 105U);
  ServerOptions options;
  options.concurrency = 8;
  FcfsPolicy fcfs;
  const auto records = Server(plat, options).run(jobs, fcfs);
  ASSERT_EQ(records.size(), jobs.size());
  for (const JobRecord& record : records) {
    EXPECT_TRUE(record.admitted);
    EXPECT_TRUE(std::isfinite(record.finish));
    EXPECT_GT(record.finish, record.dispatch);
  }
}

TEST(Server, ValidatesTheJobStream) {
  // The stream contract online::Server shares (online::validate_stream),
  // at k = 1 and k = 2, plus the qos deadline check. Best-effort
  // deadlines (+inf) are legal, so a NaN or infinite arrival, load or
  // alpha is rejected for itself, and so are a zero load and an alpha
  // below 1, outside the job model.
  const auto plat = platform::Platform::homogeneous(4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("concurrency " + std::to_string(concurrency));
    ServerOptions options;
    options.concurrency = concurrency;
    const Server server(plat, options);
    FcfsPolicy fcfs;
    EXPECT_THROW(
        server.run({make_job(0, 5.0, 10.0, 1.0), make_job(1, 1.0, 10.0, 1.0)},
                   fcfs),
        util::PreconditionError);
    EXPECT_THROW(server.run({make_job(3, 0.0, 10.0, 1.0)}, fcfs),
                 util::PreconditionError);
    EXPECT_THROW(server.run({make_job(0, 0.0, -1.0, 1.0)}, fcfs),
                 util::PreconditionError);
    EXPECT_THROW(server.run({make_job(0, 0.0, 0.0, 1.0)}, fcfs),
                 util::PreconditionError);
    for (const double alpha : {0.0, 0.5}) {
      EXPECT_THROW(server.run({make_job(0, 0.0, 10.0, alpha)}, fcfs),
                   util::PreconditionError);
    }
    // A deadline at (or before) the arrival is unserviceable nonsense.
    EXPECT_THROW(server.run({make_job(0, 5.0, 10.0, 1.0, 5.0)}, fcfs),
                 util::PreconditionError);
    for (const double bad : {nan, kInf, -kInf}) {
      SCOPED_TRACE(bad);
      EXPECT_THROW(
          server.run(
              {make_job(0, 0.0, 10.0, 1.0), make_job(1, bad, 10.0, 1.0)},
              fcfs),
          util::PreconditionError);
      EXPECT_THROW(server.run({make_job(0, 0.0, bad, 1.0)}, fcfs),
                   util::PreconditionError);
      EXPECT_THROW(server.run({make_job(0, 0.0, 10.0, bad)}, fcfs),
                   util::PreconditionError);
    }
  }
}

TEST(Server, RejectsLoadsDoublePrecisionCannotSplit) {
  // The stream check names a subnormal load for what it is; the qos server
  // used to fail on it with "installments require a positive load" (the
  // load split into rounds rounded to 0). A load whose load^alpha
  // overflows fails at its first solve with the solver's own message.
  const platform::Platform plat({{1.0, 1.0}, {1.0, 2.0}});
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("concurrency " + std::to_string(concurrency));
    ServerOptions options;
    options.concurrency = concurrency;
    const Server server(plat, options);
    FcfsPolicy fcfs;
    for (const auto& [load, cause] :
         {std::pair<double, std::string>{tiny, "subnormal"},
          std::pair<double, std::string>{1e300, "overflows"}}) {
      try {
        (void)server.run({make_job(0, 0.0, load, 2.0)}, fcfs);
        ADD_FAILURE() << "expected a PreconditionError naming " << cause;
      } catch (const util::PreconditionError& error) {
        EXPECT_NE(std::string(error.what()).find(cause), std::string::npos)
            << error.what();
      }
    }
  }
}

// --- One event loop at k = 1 ------------------------------------------------

/// The serial event loop the server ran at concurrency 1 before one loop
/// served every k, rebuilt on the public API as the differential
/// reference. It serves one whole-platform installment at a time, sees
/// arrivals only at installment ends, and pauses the job that ran last
/// when the policy switches away from it (the switched-away rule).
std::vector<JobRecord> reference_serial(const platform::Platform& plat,
                                        const ServerOptions& options,
                                        const std::vector<online::Job>& jobs,
                                        Policy& policy) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const auto model = make_model(options.service);
  InstallmentSolver solver(plat, *model, options.service);
  const AdmissionController admission(solver, options.admission);
  std::size_t tenants = 1;
  for (const online::Job& job : jobs) {
    tenants = std::max(tenants, job.tenant + 1);
  }
  policy.reset(tenants);

  std::vector<JobRecord> records(jobs.size());
  std::vector<std::unique_ptr<ServicePlan>> plans(jobs.size());
  std::vector<std::size_t> ready;  // admitted unfinished job ids, ascending
  std::size_t next_arrival = 0;
  double now = 0.0;
  std::size_t last = kNone;  // job that ran the preceding installment
  const auto admit_until = [&](double t) {
    while (next_arrival < jobs.size() && jobs[next_arrival].arrival <= t) {
      const online::Job& job = jobs[next_arrival++];
      JobRecord& record = records[job.id];
      record.job = job;
      const AdmissionDecision decision = admission.decide(job);
      record.admitted = decision.admitted;
      record.degraded = decision.degraded;
      record.served_load = decision.served_load;
      record.predicted_service = decision.predicted_service;
      if (decision.admitted) {
        plans[job.id] =
            std::make_unique<ServicePlan>(solver, job, decision.served_load);
        ready.push_back(job.id);
      } else {
        record.finish = job.arrival;
      }
    }
  };

  std::vector<Candidate> candidates;
  while (true) {
    admit_until(now);
    if (ready.empty()) {
      if (next_arrival >= jobs.size()) break;
      now = std::max(now, jobs[next_arrival].arrival);
      continue;
    }
    candidates.clear();
    for (const std::size_t id : ready) {
      Candidate candidate;
      candidate.job = &records[id].job;
      candidate.remaining_duration = plans[id]->remaining_duration();
      candidate.total_duration = plans[id]->total_duration();
      candidate.started = plans[id]->started();
      candidate.active = id == last;
      candidates.push_back(candidate);
    }
    const std::size_t k = policy.pick(candidates, now);
    const std::size_t id = ready[k];
    if (last != kNone && last != id && plans[last] != nullptr &&
        !plans[last]->done()) {
      plans[last]->pause();
    }

    JobRecord& record = records[id];
    if (!plans[id]->started()) record.dispatch = now;
    const double duration = plans[id]->next_duration();
    plans[id]->advance();
    policy.on_service(candidates[k], duration);
    now += duration;
    record.service_time += duration;
    last = id;
    if (plans[id]->done()) {
      record.finish = now;
      record.preemptions = plans[id]->preemptions();
      record.restart_time = plans[id]->restart_time();
      record.compute_time = plans[id]->compute_time();
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(k));
      plans[id].reset();
    }
  }
  return records;
}

/// Every record field of `got` carries the bits of `want`'s.
void expect_same_records(const std::vector<JobRecord>& got,
                         const std::vector<JobRecord>& want) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(got[i].admitted, want[i].admitted);
    EXPECT_EQ(got[i].degraded, want[i].degraded);
    EXPECT_EQ(bits(got[i].served_load), bits(want[i].served_load));
    EXPECT_EQ(bits(got[i].predicted_service),
              bits(want[i].predicted_service));
    EXPECT_EQ(bits(got[i].dispatch), bits(want[i].dispatch));
    EXPECT_EQ(bits(got[i].finish), bits(want[i].finish));
    EXPECT_EQ(bits(got[i].service_time), bits(want[i].service_time));
    EXPECT_EQ(bits(got[i].compute_time), bits(want[i].compute_time));
    EXPECT_EQ(got[i].preemptions, want[i].preemptions);
    EXPECT_EQ(bits(got[i].restart_time), bits(want[i].restart_time));
  }
}

TEST(Server, OneLoopReproducesTheSerialLoopBitForBit) {
  // Generated reference_tenants() traffic at load 1.1 with deadlines at
  // 0.35x their slack factors, so kReject turns jobs away and kDegrade
  // shrinks them: every record field must carry the reference's bits for
  // every policy, restart fraction, admission mode and comm model.
  const auto plat = platform::Platform::two_class(6, 1.0, 3.0);
  std::size_t preempted = 0;
  std::size_t degraded = 0;
  std::size_t rejected = 0;
  for (const sim::CommModelKind comm :
       {sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
        sim::CommModelKind::kBoundedMultiport}) {
    for (const double rho : {0.0, 0.3, 2.0}) {
      ServiceModel service = make_service(3, rho);
      service.comm = comm;
      if (comm == sim::CommModelKind::kBoundedMultiport) {
        service.capacity = 2.0;
      }
      std::vector<TenantSpec> tenants = reference_tenants();
      const double load_factor = 1.1;
      const double mean_service =
          mean_predicted_service(tenants, plat, service);
      for (TenantSpec& tenant : tenants) {
        tenant.rate *= load_factor / mean_service;
        tenant.slo_slack_factor *= 0.35;
      }
      util::Rng rng(20130520);
      const auto jobs = generate_tenant_traffic(
          tenants, plat, service, 60.0 * mean_service / load_factor, rng);
      ASSERT_GT(jobs.size(), 30u);

      for (const AdmissionMode mode :
           {AdmissionMode::kAdmitAll, AdmissionMode::kReject,
            AdmissionMode::kDegrade}) {
        ServerOptions options{service, {}};
        options.admission.mode = mode;
        const Server server(plat, options);
        for (const PolicyKind kind :
             {PolicyKind::kFcfs, PolicyKind::kSpmf, PolicyKind::kSrpt,
              PolicyKind::kEdf, PolicyKind::kWfq}) {
          SCOPED_TRACE(sim::to_string(comm) + " rho " + std::to_string(rho) +
                       " mode " + std::to_string(static_cast<int>(mode)) +
                       " " + to_string(kind));
          const auto want_policy = make_policy(kind, tenant_weights(tenants));
          const auto got_policy = make_policy(kind, tenant_weights(tenants));
          const auto want = reference_serial(plat, options, jobs, *want_policy);
          const auto got = server.run(jobs, *got_policy);
          expect_same_records(got, want);
          for (std::size_t i = 0; i < want.size(); ++i) {
            preempted += want[i].preemptions > 0 ? 1 : 0;
            degraded += want[i].degraded ? 1 : 0;
            rejected += want[i].admitted ? 0 : 1;
          }
        }
      }
    }
  }
  // The grid must reach preemption, degradation and rejection.
  EXPECT_GT(preempted, 0u);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Server, InstallmentsTooShortToMoveTheClockStillEnd) {
  // A 1e-200 load arriving at t = 1 serves in ~1e-200 s, so each of its
  // installments ends at its own dispatch instant. It must finish there,
  // unpreempted, at every k: alone (the concurrent loop used to stop with
  // the plan unfinished) and with a later arrival (which it used to wait
  // for, paying two restarts). At k = 1 the serial reference agrees.
  const auto plat = platform::Platform::homogeneous(4);
  const std::vector<online::Job> pair{make_job(0, 1.0, 1e-200, 1.0),
                                      make_job(1, 2.0, 10.0, 1.0)};
  for (const std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE("concurrency " + std::to_string(concurrency) + ", " +
                   std::to_string(count) + " jobs");
      const std::vector<online::Job> jobs(
          pair.begin(), pair.begin() + static_cast<std::ptrdiff_t>(count));
      ServerOptions options{make_service(3, 0.5), {}};
      options.concurrency = concurrency;
      FcfsPolicy fcfs;
      const auto records = Server(plat, options).run(jobs, fcfs);
      ASSERT_EQ(records.size(), count);
      EXPECT_EQ(records[0].dispatch, 1.0);
      EXPECT_EQ(records[0].finish, 1.0);
      EXPECT_EQ(records[0].preemptions, 0u);
      if (count == 2) {
        EXPECT_EQ(records[1].dispatch, 2.0);
      }
      if (concurrency == 1) {
        FcfsPolicy reference;
        expect_same_records(records,
                            reference_serial(plat, options, jobs, reference));
      }
    }
  }
}

// --- The no-free-lunch flip -------------------------------------------------

/// One heavy quadratic job plus a trickle of small linear jobs — the
/// classical SRPT showcase (small jobs cut in front of the elephant).
std::vector<online::Job> elephant_and_mice() {
  std::vector<online::Job> jobs;
  // Elephant: predicted service 4 x 63.75 = 255; loose deadline 765.
  jobs.push_back(make_job(0, 0.0, 120.0, 2.0, 765.0));
  // Mice: predicted service 4 x 1 = 4 each; deadline slack 100.
  for (std::size_t i = 1; i <= 4; ++i) {
    const double arrival = 50.0 * static_cast<double>(i);
    jobs.push_back(make_job(i, arrival, 8.0, 1.0, arrival + 100.0));
  }
  return jobs;
}

TEST(Server, PinnedFlipRestartCostsEraseSrptsAdvantage) {
  // THE HEADLINE RESULT. Same platform, same job stream, same policies —
  // the ONLY difference is the nonlinear restart surcharge:
  //
  //   free restarts (rho = 0):  SRPT << FCFS on mean latency and misses;
  //   costly restarts (rho = 2): the quadratic elephant pays ~(3q)^2
  //     per resumed chunk, and SRPT ends up WORSE than plain FCFS.
  //
  // Preempting nonlinear loads is not a free lunch.
  const auto plat = platform::Platform::homogeneous(4);
  const auto jobs = elephant_and_mice();

  const auto run = [&](double restart_fraction, Policy&& policy) {
    const Server server(plat, {make_service(4, restart_fraction), {}});
    return summarize(server.run(jobs, policy), plat.size());
  };

  const QosMetrics srpt_free = run(0.0, SrptPolicy());
  const QosMetrics fcfs_free = run(0.0, FcfsPolicy());
  const QosMetrics srpt_costly = run(2.0, SrptPolicy());
  const QosMetrics fcfs_costly = run(2.0, FcfsPolicy());

  // FCFS never preempts, so the restart knob cannot touch it.
  EXPECT_EQ(fcfs_free.preemptions, 0u);
  EXPECT_DOUBLE_EQ(fcfs_free.service.mean_latency,
                   fcfs_costly.service.mean_latency);

  // Classical regime: SRPT wins decisively on latency AND deadlines.
  EXPECT_LT(srpt_free.service.mean_latency,
            0.7 * fcfs_free.service.mean_latency);
  EXPECT_LT(srpt_free.miss_rate, fcfs_free.miss_rate);
  EXPECT_EQ(srpt_free.deadline_misses, 0u);
  EXPECT_GT(fcfs_free.deadline_misses, 0u);

  // Nonlinear-restart regime: the ranking FLIPS on the same stream.
  EXPECT_GT(srpt_costly.service.mean_latency,
            fcfs_costly.service.mean_latency);
  EXPECT_GT(srpt_costly.miss_rate, fcfs_costly.miss_rate);
  EXPECT_GT(srpt_costly.restart_share, 0.1);  // the price, measured
  EXPECT_DOUBLE_EQ(fcfs_costly.restart_share, 0.0);
}

// --- WFQ fairness -----------------------------------------------------------

TEST(Server, WfqProtectsTheLightTenantsGoodput) {
  // Tenant 0 floods the platform at t = 0 with elephants; tenant 1
  // trickles small deadline-bound jobs. FCFS makes the mice queue behind
  // the herd and miss every deadline; WFQ interleaves at chunk
  // boundaries and saves them. Fairness is scored on weighted GOODPUT
  // (on-time load), where the difference is visible.
  const auto plat = platform::Platform::homogeneous(4);
  const Server server(plat, {make_service(2, 0.0), {}});

  std::vector<online::Job> jobs;
  for (std::size_t i = 0; i < 5; ++i) {
    // Elephants: service 40 each, deadlines loose enough to always meet.
    jobs.push_back(make_job(i, 0.0, 80.0, 1.0, 300.0, 0));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    // Mice: service 4 each, deadline 40 past arrival.
    const double arrival = 0.5 + static_cast<double>(i);
    jobs.push_back(make_job(5 + i, arrival, 8.0, 1.0, arrival + 40.0, 1));
  }

  const std::vector<double> weights{1.0, 1.0};
  FcfsPolicy fcfs;
  const QosMetrics unfair =
      summarize(server.run(jobs, fcfs), plat.size(), weights);
  WfqPolicy wfq(weights);
  const QosMetrics fair =
      summarize(server.run(jobs, wfq), plat.size(), weights);

  // FCFS: every mouse misses; its tenant's goodput is zero.
  EXPECT_DOUBLE_EQ(unfair.tenant_on_time_load[1], 0.0);
  EXPECT_EQ(unfair.deadline_misses, 4u);
  // WFQ: every mouse is served within its deadline.
  EXPECT_DOUBLE_EQ(fair.tenant_on_time_load[1], 32.0);
  EXPECT_EQ(fair.deadline_misses, 0u);
  EXPECT_GT(fair.jain_fairness, unfair.jain_fairness);
  // The elephants still meet their loose deadlines under WFQ.
  EXPECT_DOUBLE_EQ(fair.tenant_on_time_load[0], 400.0);
}

// --- Tenant traffic ---------------------------------------------------------

TEST(TenantTraffic, GeneratesTaggedSortedDeadlinedStreams) {
  const auto plat = platform::Platform::homogeneous(4);
  const ServiceModel service = make_service(2, 0.0);

  std::vector<TenantSpec> tenants(2);
  tenants[0].name = "batch";
  tenants[0].weight = 1.0;
  tenants[0].rate = 0.03;
  tenants[0].mix.load_dist = online::LoadDistribution::kPareto;
  tenants[0].mix.pareto_shape = 1.5;
  // Best-effort: slo_slack_factor stays infinite.
  tenants[1].name = "interactive";
  tenants[1].weight = 3.0;
  tenants[1].rate = 0.05;
  tenants[1].mix.load_lo = 20.0;
  tenants[1].mix.load_hi = 60.0;
  tenants[1].slo_slack_factor = 3.0;

  EXPECT_EQ(tenant_weights(tenants), (std::vector<double>{1.0, 3.0}));

  util::Rng rng(42);
  const auto jobs =
      generate_tenant_traffic(tenants, plat, service, 2000.0, rng);
  ASSERT_GT(jobs.size(), 50u);

  ModelSolver owned(plat, service);
  bool saw_both = false;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);
    if (i > 0) {
      EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival);
    }
    ASSERT_LT(jobs[i].tenant, 2u);
    if (jobs[i].tenant == 0) {
      EXPECT_FALSE(jobs[i].has_deadline());
    } else {
      saw_both = true;
      // Deadline = arrival + slack x predicted service, bit for bit.
      EXPECT_DOUBLE_EQ(jobs[i].deadline,
                       jobs[i].arrival +
                           3.0 * owned.solver.predicted_service(
                                     jobs[i].load, jobs[i].alpha));
    }
  }
  EXPECT_TRUE(saw_both);

  util::Rng replay(42);
  const auto again =
      generate_tenant_traffic(tenants, plat, service, 2000.0, replay);
  ASSERT_EQ(again.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].arrival, again[i].arrival);
    EXPECT_EQ(jobs[i].load, again[i].load);
    EXPECT_EQ(jobs[i].tenant, again[i].tenant);
    EXPECT_EQ(jobs[i].deadline, again[i].deadline);
  }
}

// --- Metrics ----------------------------------------------------------------

TEST(Metrics, SummarizeMatchesHandComputation) {
  std::vector<JobRecord> records(4);
  // Served on time.
  records[0].job = make_job(0, 0.0, 10.0, 1.0, 12.0, 0);
  records[0].admitted = true;
  records[0].served_load = 10.0;
  records[0].dispatch = 0.0;
  records[0].finish = 10.0;
  records[0].service_time = 10.0;
  records[0].compute_time = 5.0;
  // Degraded, missed anyway.
  records[1].job = make_job(1, 0.0, 10.0, 1.0, 25.0, 1);
  records[1].admitted = true;
  records[1].degraded = true;
  records[1].served_load = 5.0;
  records[1].dispatch = 10.0;
  records[1].finish = 30.0;
  records[1].service_time = 8.0;
  records[1].compute_time = 4.0;
  records[1].preemptions = 2;
  records[1].restart_time = 3.0;
  // Rejected (its deadline counts as an SLO violation).
  records[2].job = make_job(2, 1.0, 7.0, 1.0, 5.0, 0);
  records[2].finish = 1.0;
  // Best-effort, completed (always on time).
  records[3].job = make_job(3, 2.0, 4.0, 1.0, kInf, 1);
  records[3].admitted = true;
  records[3].served_load = 4.0;
  records[3].dispatch = 18.0;
  records[3].finish = 20.0;
  records[3].service_time = 2.0;
  records[3].compute_time = 2.0;

  const std::vector<double> weights{2.0, 1.0};
  const QosMetrics metrics = summarize(records, 2, weights);
  EXPECT_EQ(metrics.offered, 4u);
  EXPECT_EQ(metrics.admitted, 3u);
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.degraded, 1u);
  EXPECT_EQ(metrics.offered_with_deadline, 3u);
  EXPECT_EQ(metrics.admitted_with_deadline, 2u);
  EXPECT_EQ(metrics.deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(metrics.miss_rate, 0.5);
  EXPECT_DOUBLE_EQ(metrics.slo_violation_rate, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(metrics.offered_load, 31.0);
  EXPECT_DOUBLE_EQ(metrics.served_load, 19.0);
  EXPECT_DOUBLE_EQ(metrics.on_time_load, 14.0);
  EXPECT_DOUBLE_EQ(metrics.service.horizon, 30.0);
  EXPECT_DOUBLE_EQ(metrics.goodput, 14.0 / 30.0);
  EXPECT_EQ(metrics.preemptions, 2u);
  EXPECT_DOUBLE_EQ(metrics.preemptions_per_job, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(metrics.restart_time, 3.0);
  EXPECT_DOUBLE_EQ(metrics.restart_share, 3.0 / 20.0);
  EXPECT_DOUBLE_EQ(metrics.service.utilization, 11.0 / (2.0 * 30.0));
  // Tenant loads: served {10, 9}, on-time {10, 4}; weighted on-time
  // {5, 4} -> Jain 81/82.
  EXPECT_DOUBLE_EQ(metrics.tenant_served_load[0], 10.0);
  EXPECT_DOUBLE_EQ(metrics.tenant_served_load[1], 9.0);
  EXPECT_DOUBLE_EQ(metrics.tenant_on_time_load[0], 10.0);
  EXPECT_DOUBLE_EQ(metrics.tenant_on_time_load[1], 4.0);
  EXPECT_DOUBLE_EQ(metrics.jain_fairness,
                   81.0 / (2.0 * (25.0 + 16.0)));
  EXPECT_EQ(metrics.service.jobs, 3u);  // rejected jobs carry no latency
}

/// Every floating-point field of a latency summary.
std::vector<double> service_fields(const online::ServiceMetrics& l) {
  return {l.horizon,       l.throughput,   l.utilization,
          l.mean_wait,     l.max_wait,     l.mean_latency,
          l.p50_latency,   l.p95_latency,  l.p99_latency,
          l.mean_slowdown, l.p50_slowdown, l.p95_slowdown,
          l.p99_slowdown};
}

/// Every floating-point field of `m`, its latency summary included: the
/// fields a division by zero would leave non-finite.
std::vector<double> float_fields(const QosMetrics& m) {
  std::vector<double> fields{m.miss_rate, m.slo_violation_rate,
                             m.offered_load, m.served_load, m.on_time_load,
                             m.goodput, m.preemptions_per_job,
                             m.restart_time, m.restart_share,
                             m.jain_fairness};
  fields.insert(fields.end(), m.tenant_served_load.begin(),
                m.tenant_served_load.end());
  fields.insert(fields.end(), m.tenant_on_time_load.begin(),
                m.tenant_on_time_load.end());
  const std::vector<double> service = service_fields(m.service);
  fields.insert(fields.end(), service.begin(), service.end());
  return fields;
}

TEST(Metrics, EmptyAndAllRejectedRunsAreFiniteZeros) {
  const QosMetrics empty = summarize({}, 4);
  EXPECT_EQ(empty.offered, 0u);
  EXPECT_DOUBLE_EQ(empty.miss_rate, 0.0);
  EXPECT_DOUBLE_EQ(empty.goodput, 0.0);
  EXPECT_DOUBLE_EQ(empty.jain_fairness, 1.0);
  for (const double value : float_fields(empty)) {
    EXPECT_TRUE(std::isfinite(value));
  }

  JobRecord rejected;
  rejected.job = make_job(0, 1.0, 10.0, 1.0, 3.0);
  rejected.finish = 1.0;
  const QosMetrics all_rejected = summarize({rejected}, 4);
  EXPECT_EQ(all_rejected.rejected, 1u);
  EXPECT_DOUBLE_EQ(all_rejected.slo_violation_rate, 1.0);
  EXPECT_DOUBLE_EQ(all_rejected.service.utilization, 0.0);
  for (const double value : float_fields(all_rejected)) {
    EXPECT_TRUE(std::isfinite(value));
  }
}

TEST(Metrics, ServiceIsTheOnlineSummaryOfTheAdmittedJobs) {
  // A served stream that rejects some jobs and degrades others: the
  // embedded service summary must carry online::summarize's bits over
  // the admitted records, each with its predicted service as the
  // slowdown baseline, and goodput must divide by its horizon.
  const auto plat = platform::Platform::two_class(6, 1.0, 3.0);
  const ServiceModel service = make_service(3, 0.3);
  std::vector<TenantSpec> tenants = reference_tenants();
  const double mean_service = mean_predicted_service(tenants, plat, service);
  for (TenantSpec& tenant : tenants) {
    tenant.rate *= 1.1 / mean_service;
    tenant.slo_slack_factor *= 0.35;
  }
  util::Rng rng(20130520);
  const auto jobs = generate_tenant_traffic(tenants, plat, service,
                                            200.0 * mean_service, rng);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const AdmissionMode mode :
       {AdmissionMode::kReject, AdmissionMode::kDegrade}) {
    ServerOptions options{service, {}};
    options.admission.mode = mode;
    SrptPolicy srpt;
    const auto records = Server(plat, options).run(jobs, srpt);
    std::vector<online::JobStats> admitted;
    for (const JobRecord& record : records) {
      if (!record.admitted) continue;
      online::JobStats stats;
      stats.job = record.job;
      stats.dispatch = record.dispatch;
      stats.finish = record.finish;
      stats.compute_time = record.compute_time;
      stats.isolated_makespan = record.predicted_service;
      admitted.push_back(stats);
    }
    ASSERT_GT(admitted.size(), 10u);
    const QosMetrics metrics =
        summarize(records, plat.size(), tenant_weights(tenants));
    // The stream must reach what each mode does to a job.
    EXPECT_GT(mode == AdmissionMode::kReject ? metrics.rejected
                                             : metrics.degraded,
              0u);
    const online::ServiceMetrics want =
        online::summarize(admitted, plat.size());
    EXPECT_EQ(metrics.service.jobs, want.jobs);
    EXPECT_EQ(metrics.service.degenerate_slowdowns,
              want.degenerate_slowdowns);
    const std::vector<double> got_fields = service_fields(metrics.service);
    const std::vector<double> want_fields = service_fields(want);
    for (std::size_t i = 0; i < got_fields.size(); ++i) {
      EXPECT_EQ(bits(got_fields[i]), bits(want_fields[i])) << "field " << i;
    }
    EXPECT_EQ(bits(metrics.goodput),
              bits(metrics.on_time_load / want.horizon));
  }
}

}  // namespace
}  // namespace nldl::qos
