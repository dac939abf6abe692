// Pluggable multi-load queue policies for the online server.
//
// A Scheduler makes two decisions: how many disjoint processor partitions
// ("slots") the server should carve the platform into, and the rank of
// each job in the wait queue. The server ranks a job once, when it joins
// the queue; a freed slot takes the lowest rank, and equal ranks go in
// arrival order. Three policies ship:
//
//   Scheduler            one slot (the whole platform), every job ranked
//                        0, so jobs run in arrival order: the exclusive
//                        FCFS baseline.
//   FairShareScheduler   k slots (processor-partitioning fair share): up
//                        to k jobs run concurrently, each on a 1/k slice
//                        of the platform, still FCFS within the queue.
//                        Whether those k concurrent jobs also share the
//                        MASTER's bandwidth is the server's
//                        MasterMode (online/server.hpp): private ports
//                        flatter fair share, kSharedMaster charges the
//                        real contention bill (bench_contention).
//   SpmfScheduler        one slot, shortest-PREDICTED-makespan first: the
//                        rank is the nonlinear optimal makespan of
//                        dlt::nonlinear_parallel_single_round, not the raw
//                        load. With alpha > 1 jobs in the mix this
//                        matters: compute cost is superlinear in size, so
//                        a small quadratic job can out-cost a much larger
//                        linear one, and the classical smallest-size-first
//                        rule mis-ranks exactly where the paper's no-free-
//                        lunch effect bites (tests/test_analysis.cpp pins
//                        the ranking flip).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "online/arrivals.hpp"
#include "online/job.hpp"
#include "platform/platform.hpp"
#include "sim/comm_model.hpp"

namespace nldl::online {

/// Predicted makespan of `job` run alone on `platform`: the common finish
/// time of the optimal single-round nonlinear allocation MATCHED to the
/// communication model — one-port optimality conditions under kOnePort,
/// parallel-links otherwise (bounded multiport has no closed-form
/// allocator; parallel links is its uncapped limit). This is the SPMF
/// rank and the quantity whose predicted-vs-simulated agreement
/// test_analysis.cpp checks.
[[nodiscard]] double predicted_makespan(
    const Job& job, const platform::Platform& platform,
    sim::CommModelKind comm = sim::CommModelKind::kParallelLinks);

/// Weighted mean predicted makespan of the mix's mean-load job across its
/// alpha classes: the exclusive-service capacity reference the drivers use
/// to map a target load factor to an arrival rate (rate = load / this).
[[nodiscard]] double mean_predicted_makespan(
    const JobMix& mix, const platform::Platform& platform,
    sim::CommModelKind comm = sim::CommModelKind::kParallelLinks);

/// FCFS on the whole platform, one job at a time; the base of every
/// policy.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Number of disjoint processor partitions the server should run; the
  /// server clamps it to the worker count. 1 = exclusive whole-platform
  /// service.
  [[nodiscard]] virtual std::size_t shares() const { return 1; }

  /// Queue rank of a job on the server's whole platform, asked once when
  /// the job arrives: lower ranks start first, equal ranks in arrival
  /// order. Must not be NaN.
  [[nodiscard]] virtual double rank(const Job&,
                                    const platform::Platform&) const {
    return 0.0;
  }
};

/// FCFS over `shares` disjoint processor partitions.
class FairShareScheduler final : public Scheduler {
 public:
  explicit FairShareScheduler(std::size_t shares);

  [[nodiscard]] std::size_t shares() const override { return shares_; }

 private:
  std::size_t shares_;
};

/// Shortest-predicted-makespan first on the whole platform, with the
/// prediction matched to the communication model the server simulates
/// under (pass the same CommModelKind as ServerOptions::comm).
class SpmfScheduler final : public Scheduler {
 public:
  explicit SpmfScheduler(
      sim::CommModelKind comm = sim::CommModelKind::kParallelLinks)
      : comm_(comm) {}

  /// predicted_makespan(job, platform, comm).
  [[nodiscard]] double rank(const Job& job,
                            const platform::Platform& platform) const override;

 private:
  sim::CommModelKind comm_;
};

/// Discriminator for the built-in schedulers (bench/example sweep axis).
enum class SchedulerKind {
  kFcfs,
  kFairShare,
  kSpmf,
};

[[nodiscard]] std::string to_string(SchedulerKind kind);

/// Factory; `shares` is only consulted for kFairShare, `comm` (the
/// server's communication model, for matched predictions) only for kSpmf.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    SchedulerKind kind, std::size_t shares = 4,
    sim::CommModelKind comm = sim::CommModelKind::kParallelLinks);

}  // namespace nldl::online
