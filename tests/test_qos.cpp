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

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "online/arrivals.hpp"
#include "qos/admission.hpp"
#include "qos/metrics.hpp"
#include "qos/plan.hpp"
#include "qos/policy.hpp"
#include "qos/tenant.hpp"
#include "util/assert.hpp"

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
  EXPECT_DOUBLE_EQ(plan.total_duration(),
                   predicted_service(service, plat, job.load, job.alpha));

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
  EXPECT_THROW((void)predicted_service(make_service(2, 0.0), plat, -1.0, 1.0),
               util::PreconditionError);
}

// --- Admission --------------------------------------------------------------

TEST(Admission, BestEffortJobsAreAlwaysAdmittedWhole) {
  const auto plat = platform::Platform::homogeneous(4);
  const AdmissionController admission(plat, make_service(2, 0.0));
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

  const AdmissionController reject(plat, service,
                                   {AdmissionMode::kReject, 0.25, 32});
  EXPECT_FALSE(reject.decide(infeasible).admitted);
  EXPECT_TRUE(reject.decide(feasible).admitted);

  const AdmissionController admit_all(plat, service,
                                      {AdmissionMode::kAdmitAll, 0.25, 32});
  EXPECT_TRUE(admit_all.decide(infeasible).admitted);
}

TEST(Admission, DegradeShrinksTheLoadToTheSlack) {
  const auto plat = platform::Platform::homogeneous(4);
  const ServiceModel service = make_service(2, 0.0);
  const AdmissionController degrade(plat, service,
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
  // under both the serial and the concurrent event loop, plus the qos
  // deadline check. Best-effort deadlines (+inf) are legal, so a NaN or
  // infinite arrival, load or alpha is rejected for itself.
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
                           3.0 * predicted_service(service, plat,
                                                   jobs[i].load,
                                                   jobs[i].alpha));
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
  EXPECT_DOUBLE_EQ(metrics.horizon, 30.0);
  EXPECT_DOUBLE_EQ(metrics.goodput, 14.0 / 30.0);
  EXPECT_EQ(metrics.preemptions, 2u);
  EXPECT_DOUBLE_EQ(metrics.preemptions_per_job, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(metrics.restart_time, 3.0);
  EXPECT_DOUBLE_EQ(metrics.restart_share, 3.0 / 20.0);
  EXPECT_DOUBLE_EQ(metrics.utilization, 11.0 / (2.0 * 30.0));
  // Tenant loads: served {10, 9}, on-time {10, 4}; weighted on-time
  // {5, 4} -> Jain 81/82.
  EXPECT_DOUBLE_EQ(metrics.tenant_served_load[0], 10.0);
  EXPECT_DOUBLE_EQ(metrics.tenant_served_load[1], 9.0);
  EXPECT_DOUBLE_EQ(metrics.tenant_on_time_load[0], 10.0);
  EXPECT_DOUBLE_EQ(metrics.tenant_on_time_load[1], 4.0);
  EXPECT_DOUBLE_EQ(metrics.jain_fairness,
                   81.0 / (2.0 * (25.0 + 16.0)));
  EXPECT_EQ(metrics.service.jobs, 3u);  // rejected jobs carry no latency
  EXPECT_FALSE(metrics.signature().empty());
}

TEST(Metrics, EmptyAndAllRejectedRunsAreFiniteZeros) {
  const QosMetrics empty = summarize({}, 4);
  EXPECT_EQ(empty.offered, 0u);
  EXPECT_DOUBLE_EQ(empty.miss_rate, 0.0);
  EXPECT_DOUBLE_EQ(empty.goodput, 0.0);
  EXPECT_DOUBLE_EQ(empty.jain_fairness, 1.0);
  for (const double value : empty.signature()) {
    EXPECT_TRUE(std::isfinite(value));
  }

  JobRecord rejected;
  rejected.job = make_job(0, 1.0, 10.0, 1.0, 3.0);
  rejected.finish = 1.0;
  const QosMetrics all_rejected = summarize({rejected}, 4);
  EXPECT_EQ(all_rejected.rejected, 1u);
  EXPECT_DOUBLE_EQ(all_rejected.slo_violation_rate, 1.0);
  EXPECT_DOUBLE_EQ(all_rejected.utilization, 0.0);
  for (const double value : all_rejected.signature()) {
    EXPECT_TRUE(std::isfinite(value));
  }
}

}  // namespace
}  // namespace nldl::qos
