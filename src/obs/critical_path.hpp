// Per-job critical-path reconstruction and exact blame decomposition —
// the causal side of observability.
//
// obs::attribute_time answers "where did the worker-seconds go" in
// aggregate; CriticalPath answers the per-job question: WHY was this job
// slow? It rebuilds, from the trace stream alone, the causal chain of
// transfer/compute/restart spans and scheduler instants that gated each
// job's completion — through shared-master FIFO link queues, master
// port/slot contention, per-worker cpu serialization, and dispatch
// barriers — and folds the chain into a five-way blame decomposition:
//
//   latency = wait + comm + compute + restart + stall
//
// where wait is the admission/queue delay [arrival, dispatch], comm and
// compute are the path time inside the job's OWN transfer/compute spans
// (compute split against the job's restart spans, so re-work is billed
// separately), and stall is the path time spent inside OTHER jobs' spans
// plus any residue the stream cannot attribute (gaps between qos
// installments at concurrency 1, dispatch-barrier shift noise). The five
// components sum BIT-EXACTLY to the observed latency (finish − arrival,
// evaluated in the canonical left-to-right order of total()) — the
// per-job causal analogue of attribute_time's 100%-coverage invariant,
// pinned across all comm models, both servers, and both master modes by
// tests/test_critical_path.cpp.
//
// The reconstruction leans on event-loop exactness, not tolerances:
// sim::EngineRun computes compute_start = max(comm_end, cpu_free) and
// starts a FIFO successor transfer exactly at its predecessor's comm_end,
// so gating edges are found by BITWISE time equality between events.
// Per worker, the i-th transfer and i-th compute event (emission order)
// describe the same chunk — emission order is settle order is FIFO order
// (sim::SharedMasterPeriod, the servers' one span producer, emits
// transfer+compute adjacently, per worker in schedule order).
//
// The analysis is read-only over the event stream: attaching it cannot
// change results (the serving benches fold that bit-identity into their
// exit codes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace nldl::obs {

/// Blame bucket of one critical-path segment.
enum class BlameKind : std::uint8_t {
  kWait,     ///< [arrival, dispatch]: admission / queue delay
  kComm,     ///< inside the job's own transfer spans
  kCompute,  ///< inside the job's own compute/installment spans (net)
  kRestart,  ///< inside the job's restart-surcharge spans
  kStall,    ///< inside other jobs' spans, or unattributable residue
};

[[nodiscard]] const char* to_string(BlameKind kind);

/// One contiguous piece of a job's critical path. Segments tile
/// [dispatch, finish] exactly: each segment's end equals the next one's
/// start bitwise (the wait segment [arrival, dispatch] is kept separate
/// in JobBlame, not in `path`).
struct PathSegment {
  BlameKind kind = BlameKind::kStall;
  double start = 0.0;
  double end = 0.0;
  /// Worker whose span the path runs through (kNoIndex for job-level
  /// segments: qos installments at concurrency 1, unattributed residue).
  std::size_t worker = kNoIndex;
  /// Job owning the span the path runs through — the culprit for kStall
  /// segments, the job itself for own-span segments, kNoIndex for gaps.
  std::size_t via_job = kNoIndex;
};

/// The blame decomposition of one job.
struct JobBlame {
  std::size_t job = kNoIndex;
  std::size_t tenant = kNoIndex;
  double arrival = 0.0;
  double dispatch = 0.0;
  double finish = 0.0;
  /// Jobs ahead in the wait queue at arrival (kArrival's value; 0 when
  /// the stream carries no arrival instant for this job).
  double queue_depth = 0.0;

  double wait = 0.0;
  double comm = 0.0;
  double compute = 0.0;
  double restart = 0.0;
  double stall = 0.0;

  /// Observed latency (finish − arrival) — total() equals this bitwise.
  double latency = 0.0;

  /// Critical-path segments over [dispatch, finish], in time order.
  std::vector<PathSegment> path;

  /// The components in canonical order; equals `latency` bit-exactly.
  [[nodiscard]] double total() const noexcept {
    return (((wait + comm) + compute) + restart) + stall;
  }
  /// The largest of the five components (ties break toward the earlier
  /// bucket in enum order) — the one-word answer to "why slow?".
  [[nodiscard]] BlameKind dominant() const noexcept;
};

/// Reconstruct every traced job's critical path and blame decomposition.
/// Jobs are taken from kJob spans (one per served job); rejected jobs
/// (no kJob span) are skipped. The input stream may be in any order.
class CriticalPath {
 public:
  /// `match_tolerance` relaxes the bitwise gating-edge matching to a
  /// relative tolerance — 0 (the default) for in-memory streams, where
  /// event times are exact; a small value (~1e-9) for streams
  /// reconstructed from exported Chrome traces, whose microsecond
  /// encoding perturbs span ends by an ulp. The decomposition's
  /// sum-to-latency and path-tiling invariants hold for ANY tolerance;
  /// the tolerance only affects how much lands in kStall.
  explicit CriticalPath(const std::vector<TraceEvent>& events,
                        double match_tolerance = 0.0);

  /// Per-job blame, in ascending job id.
  [[nodiscard]] const std::vector<JobBlame>& jobs() const noexcept {
    return jobs_;
  }
  [[nodiscard]] const JobBlame* find(std::size_t job) const;

  /// Aggregate blame across all analyzed jobs (plain sums per bucket).
  struct Totals {
    std::size_t jobs = 0;
    double wait = 0.0;
    double comm = 0.0;
    double compute = 0.0;
    double restart = 0.0;
    double stall = 0.0;
    double latency = 0.0;
  };
  [[nodiscard]] Totals totals() const;

 private:
  std::vector<JobBlame> jobs_;
};

/// Render the top-k jobs by latency as an ASCII blame table (plus the
/// aggregate share of each bucket); `label` names the scenario.
[[nodiscard]] std::string render_blame(const CriticalPath& analysis,
                                       std::size_t top_k = 10,
                                       const std::string& label = "");

}  // namespace nldl::obs
