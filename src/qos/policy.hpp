// Chunk-boundary scheduling policies for the preemptive qos server.
//
// At every chunk boundary (installment end — see qos/plan.hpp) the server
// asks the policy which ready job runs next. Picking a job other than the
// one that just ran preempts it: durable progress is kept, but the resume
// pays the plan's nonlinear restart surcharge. Five policies:
//
//   FcfsPolicy   non-preemptive first-come-first-served: the baseline.
//   SpmfPolicy   non-preemptive shortest-predicted-service first — the
//                qos counterpart of online::SpmfScheduler (priority =
//                predicted TOTAL service, ranked once at dispatch).
//   SrptPolicy   preemptive shortest-REMAINING-predicted-time first: the
//                classically latency-optimal rule — whose advantage the
//                restart surcharge erodes; bench_qos maps where.
//   EdfPolicy    preemptive earliest-deadline first (best-effort jobs
//                rank last); the deadline-driven counterpart.
//   WfqPolicy    weighted fair queueing across tenants: serve the tenant
//                with the least attained weighted service (Σ wall time
//                charged / weight), FCFS within the tenant — processor
//                sharing emulated at chunk granularity.
//
// Every tie breaks on (arrival, id), so runs are deterministic. Policies
// carry run-local state (WFQ's attained service); the server reset()s
// them at the start of every run, and one policy instance must not be
// shared across concurrent runs.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "online/job.hpp"

namespace nldl::qos {

/// The policy's view of one ready job at a chunk boundary.
struct Candidate {
  const online::Job* job = nullptr;
  /// Plan-predicted time to finish from here (includes the pending
  /// restart surcharge if the job was preempted) — the SRPT priority.
  double remaining_duration = 0.0;
  /// Plan-predicted uninterrupted total service — the SPMF priority.
  double total_duration = 0.0;
  /// The job has run at least one installment.
  bool started = false;
  /// The job ran the immediately preceding installment (picking anyone
  /// else preempts it).
  bool active = false;
};

class Policy {
 public:
  virtual ~Policy() = default;

  /// Called by the server at the start of every run. `tenants` is the
  /// number of tenant ids in the job stream.
  virtual void reset(std::size_t tenants);

  /// Index into `ready` (non-empty, ascending job id) of the job that
  /// runs the next installment.
  [[nodiscard]] virtual std::size_t pick(
      const std::vector<Candidate>& ready, double now) = 0;

  /// Observe the installment just charged (WFQ accounting).
  virtual void on_service(const Candidate& served, double duration);
};

class FcfsPolicy final : public Policy {
 public:
  [[nodiscard]] std::size_t pick(const std::vector<Candidate>& ready,
                                 double now) override;
};

class SpmfPolicy final : public Policy {
 public:
  [[nodiscard]] std::size_t pick(const std::vector<Candidate>& ready,
                                 double now) override;
};

class SrptPolicy final : public Policy {
 public:
  [[nodiscard]] std::size_t pick(const std::vector<Candidate>& ready,
                                 double now) override;
};

class EdfPolicy final : public Policy {
 public:
  [[nodiscard]] std::size_t pick(const std::vector<Candidate>& ready,
                                 double now) override;
};

class WfqPolicy final : public Policy {
 public:
  /// `weights[t]` is tenant t's share; tenants beyond the vector get
  /// weight 1. Weights must be positive.
  explicit WfqPolicy(std::vector<double> weights = {});

  void reset(std::size_t tenants) override;
  [[nodiscard]] std::size_t pick(const std::vector<Candidate>& ready,
                                 double now) override;
  void on_service(const Candidate& served, double duration) override;

  [[nodiscard]] double attained(std::size_t tenant) const;

 private:
  [[nodiscard]] double weight(std::size_t tenant) const;

  std::vector<double> weights_;
  std::vector<double> attained_;  ///< wall time charged per tenant
};

/// Discriminator for the built-in policies (bench/example sweep axis).
enum class PolicyKind {
  kFcfs,
  kSpmf,
  kSrpt,
  kEdf,
  kWfq,
};

[[nodiscard]] std::string to_string(PolicyKind kind);

/// Factory; `tenant_weights` is only consulted for kWfq.
[[nodiscard]] std::unique_ptr<Policy> make_policy(
    PolicyKind kind, std::vector<double> tenant_weights = {});

}  // namespace nldl::qos
