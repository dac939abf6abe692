// Event-driven simulation engine for master→worker divisible-load
// schedules (paper Section 1.2 model), with pluggable communication models.
//
// The engine replays an arbitrary multi-round schedule of chunks under one
// platform and one CommModel (sim/comm_model.hpp):
//
//   - Chunks destined to the same worker serialize on that worker's
//     incoming link, in schedule order (per-worker FIFO).
//   - Every chunk carries an optional release time: it may not enter its
//     link queue before that instant. Release times let one engine run
//     multiplex the chunks of several concurrent jobs through one shared
//     master (each job released at its dispatch time), which is how the
//     online/qos shared-master modes obtain honest cross-job bandwidth
//     contention. A chunk may also override the engine's compute
//     exponent, so multiplexed jobs of different cost classes coexist.
//   - The communication model assigns an instantaneous rate to every
//     transfer currently at the head of its link queue; rates are
//     piecewise-constant between events (a transfer completing, a link
//     freeing), and the engine advances event to event.
//   - A worker may compute one chunk while receiving the next (multi-round
//     pipelining) but starts computing a chunk only once it is fully
//     received. Compute time for a chunk of size X on worker i is
//     w_i · X^alpha (alpha = 1 is classical linear DLT; alpha > 1 is the
//     paper's nonlinear case).
//
// Hot path. Every replay reads the workers' costs from one table the
// Engine builds at construction, {c, w, 1.0 / c}, the last entry computed
// as platform::Processor::bandwidth() computes it, so no event pays a
// bounds-checked Platform::worker() call or a division (checkpoint copies
// of a run do not carry the table: it stays with the engine). The power
// X^alpha follows one rule, and every bit of a span depends on it:
//   - at alpha = 1 the power is X itself, which is std::pow(X, 1)'s
//     result for every X (NonlinearFastPaths.LibmPowIdentitiesHold);
//   - any other alpha calls std::pow, never X·X: glibc's pow(X, 2)
//     differs from X·X in the last bit on ≈ 0.08% of inputs, and the
//     payloads carry pow's bits;
//   - a run keeps its last std::pow result and reuses it when the next
//     chunk's (X, alpha) bits are equal, as identical workers' chunks of
//     a single-round allocation are. The alpha = 1 path never touches
//     that slot.
// EngineRun.FastPathsMatchTheCostFormulaOnGeneratedSchedules
// (tests/test_engine_run.cpp) holds every span to w_i·std::pow(X, alpha)
// bit for bit.
//
// Under ParallelLinksModel and OnePortModel every transfer runs at its full
// link rate for its entire lifetime, so transfer times are the closed-form
// c_i · X. Under BoundedMultiportModel the rates follow max-min fair
// water-filling, recomputed at every completion, for arbitrary (multi-round,
// time-released) schedules.
//
// Run-state / checkpoint semantics: the whole event loop lives in the
// copyable EngineRun object. A run can be advanced up to a time barrier,
// have chunks appended at the barrier, and be resumed — and the resumed
// trajectory is bit-identical to a from-scratch replay of the combined
// schedule, because (a) a chunk released at time t cannot influence any
// event before t, and (b) pausing never re-anchors an in-flight transfer
// (rate assignments are cached while the eligible set is unchanged).
// Copying an EngineRun checkpoints it: the incremental shared-master
// replay (sim/multiplex.hpp) copies the settled prefix and drains only
// the speculative tail of each busy period.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "platform/platform.hpp"
#include "sim/comm_model.hpp"

namespace nldl::obs {
class TraceSink;
}  // namespace nldl::obs

namespace nldl::sim {

/// One master→worker transfer: `size` load units to `worker`.
///
/// `release` is the chunk's release time: the instant before which the
/// chunk may not enter its worker's link queue. Chunks to one worker
/// still serialize in schedule order (per-worker FIFO) — a released
/// chunk never overtakes an earlier chunk to the same worker; it starts
/// transferring at max(release, time the link frees). Release times are
/// what lets ONE engine run multiplex the chunks of several concurrent
/// jobs through one shared master: each job's chunks are released at its
/// dispatch instant and contend with every other in-flight job's
/// transfers under the run's CommModel (the online/qos shared-master
/// modes ride on this). The default 0 is the classical schedule where
/// everything is available up front.
///
/// `alpha` optionally overrides the engine's compute exponent for this
/// chunk (cost = w_i · size^alpha): 0 means "use EngineOptions::alpha",
/// any value >= 1 is the chunk's own exponent. Multiplexed runs need
/// this because concurrent jobs can belong to different cost classes
/// (linear next to quadratic) while sharing one engine run.
struct ChunkAssignment {
  std::size_t worker = 0;
  double size = 0.0;
  double release = 0.0;
  double alpha = 0.0;
};

/// Build the single-round schedule sending amounts[w] to worker w, in
/// worker order or in an explicit `send_order` (which must be a
/// permutation of all workers). This is the shape of every classical DLT
/// allocation; the dlt allocators' to_schedule() methods delegate here.
[[nodiscard]] std::vector<ChunkAssignment> single_round_schedule(
    const std::vector<double>& amounts);
[[nodiscard]] std::vector<ChunkAssignment> single_round_schedule(
    const std::vector<double>& amounts,
    const std::vector<std::size_t>& send_order);

/// Timeline of a single chunk.
struct ChunkSpan {
  std::size_t worker = 0;
  double size = 0.0;
  double comm_start = 0.0;
  double comm_end = 0.0;
  double compute_start = 0.0;
  double compute_end = 0.0;
};

struct SimResult {
  std::vector<ChunkSpan> spans;             ///< in schedule order
  std::vector<double> worker_finish;        ///< last compute end, 0 if unused
  std::vector<double> worker_compute_time;  ///< total compute busy time
  std::vector<double> worker_comm_time;     ///< total receive busy time
  double makespan = 0.0;

  /// Load imbalance e = (t_max - t_min) / t_min over per-worker computation
  /// times (paper Section 4.3), restricted to workers that computed
  /// something: workers the schedule never fed do not turn the statistic
  /// into +infinity (use idle_workers() to count them). Returns 0 when
  /// fewer than two workers computed.
  [[nodiscard]] double load_imbalance() const noexcept;

  /// Number of workers that computed nothing under this schedule.
  [[nodiscard]] std::size_t idle_workers() const noexcept;
};

struct EngineOptions {
  /// Computational complexity exponent: cost = w_i * size^alpha.
  double alpha = 1.0;
};

/// Non-owning, non-allocating reference to a chunk-completion observer,
/// invoked as each chunk's timeline is finalized — at the chunk's
/// communication-completion event, once its compute start/end are known
/// (`span` is the same record that lands in SimResult::spans[chunk]).
/// Chunks are reported in event order (non-decreasing comm_end), which is
/// generally *not* schedule order. The ref is two raw pointers, so passing
/// one into the event loop never allocates; the callable bound must
/// outlive every advance_to()/drain() call it is passed to. A
/// default-constructed ref is empty and safely "no hook".
class ChunkCompletionRef {
 public:
  ChunkCompletionRef() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ChunkCompletionRef>>>
  ChunkCompletionRef(const F& fn)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&fn))),
        fn_([](void* obj, std::size_t chunk, const ChunkSpan& span) {
          (*static_cast<const F*>(obj))(chunk, span);
        }) {}

  [[nodiscard]] explicit operator bool() const noexcept {
    return fn_ != nullptr;
  }
  void operator()(std::size_t chunk, const ChunkSpan& span) const {
    fn_(obj_, chunk, span);
  }

 private:
  void* obj_ = nullptr;
  void (*fn_)(void*, std::size_t, const ChunkSpan&) = nullptr;
};

class Engine;

/// The engine's event loop as a first-class, resumable, copyable value.
///
/// An EngineRun owns a schedule plus every piece of mutable replay state:
/// per-worker link-queue heads, in-flight transfer progress (anchored
/// remaining/rate pairs), per-worker cpu_free, the pending-release heap,
/// and the event clock. The lifecycle is
///
///     EngineRun run(engine, model);
///     run.append(chunk);            // any number, releases >= clock()
///     run.advance_to(t, hook);      // process every event at time <= t
///     run.append(later_chunk);      // released at the barrier
///     run.drain(hook);              // run the rest to completion
///
/// and the fundamental contract is bit-identity: interleaving
/// advance_to()/append() in release order produces spans bitwise equal to
/// appending everything up front and draining once — which is itself
/// bitwise equal to the historical Engine::run() on the same schedule.
/// Copy-assigning an EngineRun checkpoints it (plain value semantics; the
/// copy reuses the destination's buffer capacity), which is what makes
/// the shared-master busy-period replay incremental: keep a persistent
/// run advanced to the last dispatch, copy it, and drain only the copy.
///
/// Scratch buffers (model views, rate arrays, completion batches) live in
/// the run and are reused across events, appends, and reset(), and the
/// built-in CommModels rate in place into the run's rate buffer — a
/// long-lived run allocates only when the schedule outgrows every
/// previous high-water mark.
///
/// Engine and CommModel are referenced, not owned, and must outlive the
/// run. Determinism notes: the rate assignment is cached while the
/// eligible transfer set is unchanged (models are deterministic and
/// stateless per the CommModel contract), so pausing at a barrier never
/// inserts an extra, state-perturbing model call into the trajectory.
class EngineRun {
 public:
  EngineRun(const Engine& engine, const CommModel& model);

  /// Simulated clock: every event at time <= clock() has been processed.
  [[nodiscard]] double clock() const noexcept { return now_; }
  /// Engine events processed over this run object's lifetime (loop
  /// iterations that advanced the clock) — the soak bench's events/sec.
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] std::size_t chunks() const noexcept {
    return schedule_.size();
  }
  /// Every appended chunk has been finalized.
  [[nodiscard]] bool drained() const noexcept {
    return finalized_ == schedule_.size();
  }
  /// Chunks finalized and still occupying slots in the per-chunk arrays
  /// (compact() drops them and resets this to 0).
  [[nodiscard]] std::size_t finalized() const noexcept { return finalized_; }
  /// Spans in schedule order; a span is meaningful once its chunk has
  /// been finalized (reported to the completion hook).
  [[nodiscard]] const std::vector<ChunkSpan>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] double makespan() const noexcept { return makespan_; }
  /// Per-worker compute busy time of the chunks finalized so far (what
  /// take_result() moves out as SimResult::worker_compute_time), for
  /// callers that read a drained run in place and reset() it.
  [[nodiscard]] const std::vector<double>& worker_compute_time()
      const noexcept {
    return worker_compute_;
  }
  [[nodiscard]] const std::vector<ChunkAssignment>& schedule()
      const noexcept {
    return schedule_;
  }

  /// Append one chunk at the schedule tail. The chunk's release must be
  /// >= clock(): appending cannot rewrite the already-simulated past.
  /// Returns the chunk's schedule index.
  std::size_t append(const ChunkAssignment& chunk);

  /// reset(), then load the single-round schedule sending amounts[w] to
  /// worker w at release 0 with per-chunk exponent `alpha`, in one call:
  /// the run is left exactly as reset() plus one append({w, amounts[w],
  /// 0, alpha}) per worker, in worker order, would leave it. The
  /// preconditions are append's, plus one amount per worker; they are
  /// checked before anything changes, so a call that throws leaves the
  /// run as it was. This is the load of every memo miss of
  /// qos::InstallmentSolver and of Engine::run_single_round.
  void reset_single_round(const std::vector<double>& amounts, double alpha);

  /// Process every event with time <= `barrier`, invoking the hook as
  /// chunk timelines are finalized, then advance the clock to the barrier
  /// (when finite). Events strictly after the barrier are untouched — in
  /// particular no in-flight transfer is re-anchored, so resuming later
  /// (with or without appends at the barrier) is bit-identical to never
  /// having paused. A barrier <= clock() is a no-op.
  void advance_to(double barrier, ChunkCompletionRef on_chunk_complete = {});

  /// advance_to(+infinity): run the remaining schedule to completion.
  void drain(ChunkCompletionRef on_chunk_complete = {});

  /// Forget the schedule and every event, returning to an empty run at
  /// clock 0. Buffer capacity is kept (the reuse path of a long-running
  /// server); call shrink() to release it.
  void reset();

  /// Release excess buffer capacity (after reset(), frees everything).
  void shrink();

  /// Drop every finalized chunk from the per-chunk arrays, renumbering
  /// the survivors (stable: relative schedule order is preserved, which
  /// is what the comm models' schedule-order semantics key on — the
  /// event trajectory is bit-identical with or without compaction).
  /// `old_to_new` is resized to the pre-compaction chunk count and maps
  /// each old index to its new one, or to SIZE_MAX for dropped chunks.
  /// Returns the number of chunks dropped. Dropped chunks vanish from
  /// spans()/schedule()/take_result(), so callers that keep chunk
  /// indices (or want the batch result) must remap via `old_to_new` /
  /// harvest spans through the completion hook instead. The checkpoint
  /// copy of a long-lived run shrinks from O(all chunks ever) to O(live
  /// chunks) — what keeps an open-ended busy period's replay cost flat.
  /// sim::SharedMasterPeriod compacts whenever finalized() is at least
  /// half of chunks(), so its checkpoint copies stay O(live + newly
  /// finalized chunks) at amortized O(1) compaction work per chunk.
  std::size_t compact(std::vector<std::size_t>& old_to_new);

  /// Move the accumulated spans / per-worker statistics out as a
  /// SimResult (the historical batch-API shape). The run must be fully
  /// drained; afterwards the run is only good for reset().
  [[nodiscard]] SimResult take_result();

  /// Attach a trace sink (obs/trace.hpp): every rate (re)assignment emits
  /// a kRerate instant at `offset` + clock() — the water-fill re-rate
  /// instants of the bounded-multiport model, and the discrete models'
  /// queue-head changes. Chunk spans are deliberately NOT emitted here:
  /// span emission is owned by the layer that can attribute chunks to
  /// jobs/tenants (sim::SharedMasterPeriod, online::Server), via the
  /// completion hook. Null (the default) is the zero-cost fast path and
  /// never changes the trajectory. NOTE: copying a run copies the sink
  /// pointer — speculative copies that must stay silent (the incremental
  /// replay's scratch drains) detach it immediately after the copy.
  void set_trace(obs::TraceSink* sink, double offset = 0.0) noexcept {
    trace_ = sink;
    trace_offset_ = offset;
  }
  [[nodiscard]] obs::TraceSink* trace() const noexcept { return trace_; }

 private:
  /// Per-chunk transfer state. `remaining` is measured at `anchor_time`;
  /// the pair is only refreshed when the rate actually changes, so a
  /// transfer that runs at one rate its whole life (both discrete models)
  /// finishes at the exact closed-form instant with no integration drift.
  struct Transfer {
    double remaining = 0.0;
    double rate = 0.0;
    double anchor_time = 0.0;
    double released = 0.0;
    double comm_start = 0.0;
    bool started = false;
  };

  /// Pending-release heap entry (min-heap on `time`, lazy deletion: an
  /// entry is stale once ready_at_[worker] != time).
  struct ParkedRelease {
    double time = 0.0;
    std::size_t worker = 0;
  };

  void release_head(std::size_t worker);
  [[nodiscard]] double peek_release();
  bool pop_due_releases();
  void assign_rates();
  void finish_chunk(std::size_t idx, ChunkCompletionRef hook);
  [[nodiscard]] double power(double size, double alpha);

  const Engine* engine_ = nullptr;
  const CommModel* model_ = nullptr;

  /// The last std::pow(size, alpha) computed and its argument bits.
  /// Alpha bits 0 (+0.0, never an effective exponent) mark it empty.
  std::uint64_t pow_size_bits_ = 0;
  std::uint64_t pow_alpha_bits_ = 0;
  double pow_value_ = 0.0;

  double now_ = 0.0;
  std::uint64_t events_ = 0;
  std::size_t finalized_ = 0;
  double makespan_ = 0.0;
  /// rates_/transfers_ reflect a model call on the current eligible set.
  bool rates_valid_ = false;
  /// Optional re-rate instant sink; survives reset() like events_ does.
  obs::TraceSink* trace_ = nullptr;
  double trace_offset_ = 0.0;

  // Per chunk, indexed by schedule position.
  std::vector<ChunkAssignment> schedule_;
  std::vector<ChunkSpan> spans_;
  std::vector<Transfer> transfers_;
  std::vector<std::size_t> fifo_next_;  ///< next chunk to the same worker

  // Per worker.
  std::vector<std::size_t> q_head_;  ///< front of the link queue (kNoChunk)
  std::vector<std::size_t> q_tail_;
  std::vector<double> cpu_free_;
  std::vector<double> ready_at_;  ///< parked head's release, +inf otherwise
  std::vector<double> worker_finish_;
  std::vector<double> worker_compute_;
  std::vector<double> worker_comm_;

  // Event machinery (flat, reused across events and resets).
  std::vector<ParkedRelease> release_heap_;
  std::vector<std::size_t> eligible_;  ///< chunk indices, ascending
  std::vector<TransferView> views_;
  std::vector<double> rates_;
  std::vector<std::size_t> done_;
};

/// The single simulation entry point. Holds a reference to the platform
/// (which must outlive the engine and not change while it lives: the
/// engine copies its workers' costs at construction) and replays
/// schedules under any communication model. The batch run() APIs are
/// one-shot conveniences over EngineRun (append everything, drain,
/// harvest); use EngineRun directly to checkpoint, resume, or append
/// mid-run.
class Engine {
 public:
  explicit Engine(const platform::Platform& platform,
                  EngineOptions options = {});

  [[nodiscard]] const platform::Platform& platform() const noexcept {
    return platform_;
  }
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }

  /// Simulate the schedule under the given model. Chunk sizes must be
  /// >= 0; zero-size chunks are allowed and consume no time (they still
  /// queue like any transfer — e.g. the one-port model serializes them at
  /// the port in schedule order — but complete the instant they are
  /// served). Release times must be finite and >= 0: a chunk enters its
  /// worker's link queue head no earlier than its release, and simulated
  /// time simply advances to the next release when every in-flight
  /// transfer has drained first. With all releases 0 (the default) the
  /// replay is bit-identical to the pre-release engine.
  [[nodiscard]] SimResult run(const std::vector<ChunkAssignment>& schedule,
                              const CommModel& model) const;

  /// Convenience: simulate under a built-in model with default parameters
  /// (kBoundedMultiport defaults to an uncapped master, i.e. parallel
  /// links — pass a configured BoundedMultiportModel for a real cap).
  [[nodiscard]] SimResult run(const std::vector<ChunkAssignment>& schedule,
                              CommModelKind kind) const;

  /// Convenience: one chunk per worker (amounts[i] to worker i, in worker
  /// order), the single-round shape of every classical DLT allocation.
  [[nodiscard]] SimResult run_single_round(const std::vector<double>& amounts,
                                           const CommModel& model) const;

 private:
  friend class EngineRun;

  /// One worker's costs as the event loop reads them.
  struct WorkerCosts {
    double c = 1.0;          ///< Processor::c
    double w = 1.0;          ///< Processor::w
    double bandwidth = 1.0;  ///< Processor::bandwidth(), i.e. 1.0 / c
  };

  const platform::Platform& platform_;
  EngineOptions options_;
  std::vector<WorkerCosts> costs_;  ///< one per worker, in index order
};

}  // namespace nldl::sim
