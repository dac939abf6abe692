// Preemptable per-job service plans: how the qos server turns one
// divisible-load job into a sequence of chunk-boundary checkpoints.
//
// online::Server dispatches a job's whole load as ONE optimal single-round
// allocation — atomic service, nothing can yield until the round finishes.
// The qos server instead serves a job as `rounds` sequential installments:
// each installment is the optimal single-round nonlinear allocation of
// (load / rounds) on the platform (dlt::nonlinear_*_single_round matched
// to the communication model), replayed through sim::Engine under the
// server's CommModel. Installment ends are the chunk boundaries where a
// running job can be paused and another dispatched — the divisible-load
// version of a checkpoint, at which a pause loses no in-flight work.
//
// Preemption is NOT free, and the price is nonlinear — the paper's no-free-
// lunch effect applied to restarts: when a paused job resumes, its first
// installment must re-dispatch `restart_load_fraction` ρ of an installment's
// worth of state (re-sent over the links and re-processed from scratch), so
// the resumed installment is the allocation of (1 + ρ)·(load / rounds).
// With compute cost w_i·X^alpha the inflated chunks pay superlinearly:
// the SAME ρ costs a quadratic (alpha = 2) job far more than a linear one,
// which is exactly the regime where classical SRPT optimality breaks
// (bench/bench_qos.cpp sweeps it; tests/test_qos.cpp pins the flip).
// With ρ = 0 a resumed plan is bit-identical to an uninterrupted one —
// the zero-restart-cost equivalence tests/test_qos.cpp pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "online/job.hpp"
#include "platform/platform.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"

namespace nldl::qos {

/// Shape of preemptable service.
struct PlanOptions {
  /// Installments per job (chunk-boundary checkpoints). 1 = atomic
  /// service, exactly online::Server's shape.
  std::size_t rounds = 4;
  /// ρ: fraction of one installment's load re-dispatched (re-sent and
  /// re-processed) when a paused job resumes. 0 = free checkpoints.
  double restart_load_fraction = 0.0;
};

/// Everything that determines how the qos server serves work: the
/// communication model (with its bounded-multiport capacity; concurrent
/// transfers are not capped) and the installment plan. Shared by the
/// server, the admission controller, and the traffic generator so
/// predictions and reality agree.
struct ServiceModel {
  sim::CommModelKind comm = sim::CommModelKind::kParallelLinks;
  double capacity = std::numeric_limits<double>::infinity();
  PlanOptions plan;
};

/// Instantiate the comm model the ServiceModel describes.
[[nodiscard]] std::unique_ptr<sim::CommModel> make_model(
    const ServiceModel& service);

/// Memoized installment solver: ONE nonlinear solve + engine replay per
/// distinct (installment load, alpha) under a fixed (platform, model,
/// service), for as long as that key stays in the bounded memo. Deadline
/// assignment, admission, and plan construction all need the same
/// installment — sharing one solver (the Server owns one) collapses those
/// three solver runs per job into one, and recurring job sizes hit too.
/// Results are bit-identical to unmemoized calls whatever the memo holds
/// (it only deduplicates; a key it dropped is solved again, to the same
/// bits).
///
/// The memo is a flat open-addressing table keyed on the bit patterns of
/// (load, alpha) with linear probing, never more than half full. It
/// allocates in proportion to what it holds: it doubles when an insert
/// would pass half full, up to 2 × kMemoEntries slots, and there it is
/// cleared instead. Its memory is O(1) in the stream length, and a window
/// of the last few thousand keys keeps the admission → plan hits and the
/// recurring sizes.
///
/// Every memo miss replays on the solver's one sim::EngineRun: one
/// reset_single_round call loads a chunk per worker carrying the job's
/// alpha, then drain. The answer carries the bits of a fresh
/// sim::Engine(platform, {alpha}).run(...), whatever the run replayed
/// before (the engine raises each chunk to its own alpha under one power
/// rule, sim/engine.hpp), without building an engine, a run and a
/// SimResult per miss. The run points at the solver's own engine, so the
/// solver is neither copyable nor movable. Holds references to the
/// platform and model, which must outlive it; not safe for concurrent
/// use.
class InstallmentSolver {
 public:
  InstallmentSolver(const platform::Platform& platform,
                    const sim::CommModel& model, ServiceModel service);
  InstallmentSolver(const InstallmentSolver&) = delete;
  InstallmentSolver& operator=(const InstallmentSolver&) = delete;

  struct Installment {
    double duration = 0.0;  ///< simulated makespan of the installment
    double busy = 0.0;      ///< Σ compute busy time across workers
  };

  /// Most installments the memo holds: the next distinct key clears it
  /// first. Its table then has 2 × kMemoEntries slots.
  static constexpr std::size_t kMemoEntries = 4096;

  /// Solve + replay one installment of `load` units (memoized).
  [[nodiscard]] Installment solve(double load, double alpha);

  /// Predicted uninterrupted service of a whole job: rounds ×
  /// solve(load / rounds).duration — the admission controller's SLO
  /// yardstick and ServicePlan::total_duration(), equal by construction.
  [[nodiscard]] double predicted_service(double load, double alpha);

  [[nodiscard]] const platform::Platform& platform() const noexcept {
    return platform_;
  }
  [[nodiscard]] const ServiceModel& service() const noexcept {
    return service_;
  }

 private:
  const platform::Platform& platform_;
  ServiceModel service_;
  sim::Engine engine_;  ///< default alpha; each chunk carries its own
  sim::EngineRun run_;  ///< reset and refilled on every memo miss

  /// One memo slot. Loads are > 0, so the bits of +0.0 (all zero) never
  /// name a key and mark an empty slot.
  struct MemoSlot {
    std::uint64_t load_bits = 0;
    std::uint64_t alpha_bits = 0;
    Installment installment;
  };
  /// Slot of the key: the one holding it, or the empty slot that ends
  /// its probe run. Requires a non-empty table.
  [[nodiscard]] std::size_t probe(std::uint64_t load_bits,
                                  std::uint64_t alpha_bits) const noexcept;
  /// Insert a key probe() did not find, growing or clearing first.
  void remember(std::uint64_t load_bits, std::uint64_t alpha_bits,
                const Installment& installment);

  std::vector<MemoSlot> memo_;  ///< power-of-two size, or empty
  std::size_t memo_size_ = 0;   ///< occupied slots
};

/// The per-job service state machine the qos server drives.
///
/// Construction solves ONE installment allocation through the shared
/// solver (a memo hit when admission already predicted this job; the
/// restart-inflated variant is solved lazily on first pause), so a job
/// costs O(1) nonlinear solver runs however many installments or
/// preemptions it sees. The solver must outlive the plan.
class ServicePlan {
 public:
  /// `served_load` is the post-admission load (<= job.load when degraded).
  ServicePlan(InstallmentSolver& solver, const online::Job& job,
              double served_load);

  [[nodiscard]] std::size_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::size_t completed_rounds() const noexcept {
    return completed_rounds_;
  }
  [[nodiscard]] bool started() const noexcept {
    return completed_rounds_ > 0;
  }
  [[nodiscard]] bool done() const noexcept {
    return completed_rounds_ == rounds_;
  }
  [[nodiscard]] double served_load() const noexcept { return served_load_; }
  [[nodiscard]] double remaining_load() const noexcept;

  /// Duration of one uninterrupted installment (tests/diagnostics).
  [[nodiscard]] double clean_duration() const noexcept { return clean_; }
  /// Predicted uninterrupted total: rounds × clean_duration.
  [[nodiscard]] double total_duration() const noexcept {
    return static_cast<double>(rounds_) * clean_;
  }
  /// Wall time the next installment will take (restart-inflated when a
  /// pause is pending). Requires !done().
  [[nodiscard]] double next_duration();
  /// Load the next installment dispatches: served_load / rounds, inflated
  /// by (1 + restart_load_fraction) when a pause is pending. This is what
  /// the concurrent qos server allocates on a worker subset — the
  /// restart surcharge travels with the load, not just the duration
  /// estimate. Requires !done().
  [[nodiscard]] double next_load() const;
  /// A pause is pending: the next installment pays the restart surcharge.
  [[nodiscard]] bool restart_pending() const noexcept {
    return restart_pending_;
  }
  /// Predicted time to finish from here, including a pending restart —
  /// the SRPT priority.
  [[nodiscard]] double remaining_duration();

  /// Consume one installment (the server advances its clock by the
  /// next_duration() it just charged). Requires !done().
  void advance();

  /// The server switched to another job at a chunk boundary: flag the
  /// restart surcharge for the eventual resume. No-op before the first
  /// installment (nothing dispatched yet), after completion, or when a
  /// pause is already pending (waiting in the queue is not a second
  /// preemption).
  void pause();

  [[nodiscard]] std::size_t preemptions() const noexcept {
    return preemptions_;
  }
  /// Σ extra wall time charged by restart inflation so far.
  [[nodiscard]] double restart_time() const noexcept {
    return restart_time_;
  }
  /// Σ compute busy time across workers so far (utilization accounting;
  /// includes re-processed restart state).
  [[nodiscard]] double compute_time() const noexcept {
    return compute_time_;
  }

 private:
  void ensure_restart_solved();

  InstallmentSolver& solver_;
  double alpha_;
  double served_load_;
  std::size_t rounds_;
  double restart_fraction_;

  double clean_ = 0.0;          ///< uninterrupted installment duration
  double clean_busy_ = 0.0;     ///< its Σ compute busy time
  double restart_ = 0.0;        ///< inflated installment duration
  double restart_busy_ = 0.0;
  bool restart_solved_ = false;

  std::size_t completed_rounds_ = 0;
  bool restart_pending_ = false;
  std::size_t preemptions_ = 0;
  double restart_time_ = 0.0;
  double compute_time_ = 0.0;
};

}  // namespace nldl::qos
