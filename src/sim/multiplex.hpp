// Busy-period multiplexing of time-released chunk schedules — the shared
// machinery behind both online::MasterMode values (one period for every
// slot, or one per slot) and the qos server's concurrent installment
// subsets.
//
// A SharedMasterPeriod accumulates the chunks of every unit of work
// ("owner" — a whole job for the online server, one installment for the
// qos server) dispatched during one busy period of a shared master, and
// simulates the accumulated schedule through sim::EngineRun state under
// one CommModel after each dispatch:
//
//   - chunk times are PERIOD-RELATIVE: the period's first dispatch is
//     the engine's t = 0, so a single-owner period reproduces a private
//     replay of that owner's schedule bit for bit;
//   - each owner's chunks are released at its dispatch instant and carry
//     its own compute exponent, so concurrent owners of different cost
//     classes contend honestly under the model;
//   - re-simulating after a dispatch never rewrites history: chunks
//     released at `now` are not eligible earlier, and rate sharing is
//     monotone (a newcomer never speeds anyone up), so an owner's finish
//     estimate only ever moves LATER — and is settled once simulated
//     time passes it. The servers' event loops re-read finishes after
//     every replay and advance on the current estimates, which is
//     exactly causal under that invariant.
//
// Incremental replay (the default): the settled prefix of a busy period
// never changes, so the period keeps a persistent EngineRun advanced
// exactly to the latest dispatch's release — every event before that
// barrier is final — and each replay() checkpoints that run (a capacity-
// reusing copy) and drains only the speculative tail. Compaction rule:
// after each advance, whenever the chunks the settled run has finalized
// are at least half of the chunks it holds, dispatch() drops them
// (EngineRun::compact, which never alters the event trajectory). The
// settled run therefore never holds more dead chunks than live ones, so
// each checkpoint copy is O(live + newly finalized chunks) and each
// replay is amortized O(new + in-flight chunk events) instead of
// O(period) — a compaction costs O(chunks) <= 2 x finalized, amortized
// O(1) per chunk. That is the difference between O(n) and O(n²) total
// work for an n-dispatch busy period. Owner totals split the same way:
// settled contributions accumulate once, forever; only owners the
// speculative tail touched are re-estimated (and rolled back to settled
// before the next drain).
//
// Full replay (SharedMasterOptions::incremental = false) re-simulates
// the whole period from scratch on every call — the original semantics,
// kept as the bit-identity reference: the incremental path must and does
// produce bitwise equal finish()/busy() sequences, which
// tests/test_incremental_replay.cpp pins on randomized schedules under
// all three CommModels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"

namespace nldl::sim {

struct SharedMasterOptions {
  /// Resume each replay from a checkpoint of the settled prefix instead
  /// of re-simulating the whole busy period. Bit-identical to full
  /// replay; off only buys the O(n²) reference behavior.
  bool incremental = true;
};

/// One open busy period of a shared master. Holds references to the
/// engine and model, which must outlive it.
///
/// Replay-cost accounting (events()/replays()) is what the servers fold
/// into an obs::MetricsRegistry as replay.engine_events / replay.replays
/// / replay.busy_periods.
class SharedMasterPeriod {
 public:
  SharedMasterPeriod(const Engine& engine, const CommModel& model,
                     SharedMasterOptions options = {});

  /// No dispatches accumulated (a replay would be empty). Owner-based:
  /// compaction may drop every chunk of a fully drained period while its
  /// owners still await a flush.
  [[nodiscard]] bool empty() const noexcept { return finish_.empty(); }
  [[nodiscard]] std::size_t owners() const noexcept {
    return finish_.size();
  }
  [[nodiscard]] bool incremental() const noexcept {
    return options_.incremental;
  }
  /// Chunk-level engine events simulated by this period so far, across
  /// clears (speculative drains included — this is the work actually
  /// done, which is what makes incremental vs full comparable).
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  /// replay() calls so far, across clears.
  [[nodiscard]] std::uint64_t replays() const noexcept { return replays_; }

  /// Attach a trace sink (obs/trace.hpp) for the NEXT busy period; must
  /// be called while the period is empty. When attached, the period owns
  /// span emission for its chunks: every transfer/compute span is
  /// emitted exactly once, in absolute time, attributed to the
  /// dispatching owner's job/tenant/alpha — as the chunk settles under
  /// incremental replay, or in one final replay at clear() under full
  /// replay. Dispatch barriers, checkpoints, compactions, and replays
  /// emit instants. Tracing never changes finish()/busy()/events()
  /// accounting: results are bit-identical with or without a sink.
  void set_trace(obs::TraceSink* sink);
  [[nodiscard]] obs::TraceSink* trace() const noexcept { return trace_; }

  /// Register one unit of work dispatched at absolute time `now` (>= the
  /// period's first dispatch): `chunks` in their allocator's (subset-
  /// local) worker indices, mapped to engine workers through
  /// `worker_map`, released at `now` and computing at `alpha`. The first
  /// dispatch anchors the period clock. Under incremental replay this
  /// also advances the settled prefix to the new release barrier —
  /// everything simulated before it is final. Returns the owner index to
  /// query finish()/busy() with after the next replay(). `job`/`tenant`
  /// attribute the owner's trace spans (ignored untraced). Compacts the
  /// settled run first whenever its finalized chunks are at least half of
  /// it (the file comment's rule; a traced period emits a kCompact
  /// instant each time).
  std::size_t dispatch(double now, double alpha,
                       const std::vector<ChunkAssignment>& chunks,
                       const std::vector<std::size_t>& worker_map,
                       std::size_t job = obs::kNoIndex,
                       std::size_t tenant = obs::kNoIndex);

  /// Refresh every owner's finish and busy time: full mode re-simulates
  /// the accumulated schedule, incremental mode drains a checkpoint of
  /// the settled prefix. Identical results either way.
  void replay();

  /// Latest compute end of the owner's chunks, absolute (>= its dispatch
  /// instant). Valid after a replay(); settled once simulated time has
  /// passed it.
  [[nodiscard]] double finish(std::size_t owner) const;
  /// Σ compute busy time of the owner's chunks.
  [[nodiscard]] double busy(std::size_t owner) const;

  /// Drop the drained period (call only once every owner has settled).
  /// Keeps buffer capacity for the next burst, but shrinks automatically
  /// when capacity dwarfs a decaying high-water mark of recent period
  /// sizes — a long-running server's buffers track its bursts instead of
  /// growing monotonically toward the largest burst ever seen.
  void clear();

  /// Release excess buffer capacity now (clear() calls this through the
  /// high-water heuristic; exposed for explicit memory ceilings).
  void shrink();

 private:
  void on_settled(std::size_t chunk, const ChunkSpan& span);
  void on_speculative(std::size_t chunk, const ChunkSpan& span);
  void replay_full();
  void replay_incremental();
  void emit_chunk_spans(std::size_t chunk, const ChunkSpan& span);
  void emit_instant(obs::EventKind kind, double at, double value,
                    std::size_t job, std::size_t tenant, double alpha);
  void flush_trace();

  const Engine& engine_;
  const CommModel& model_;
  SharedMasterOptions options_;
  double start_ = 0.0;

  /// Full mode: the accumulated period-relative schedule to re-simulate.
  /// Incremental mode keeps the schedule inside settled_ instead.
  std::vector<ChunkAssignment> schedule_;
  std::vector<std::size_t> chunk_owner_;

  /// Per owner: current (served) totals — settled plus the latest
  /// speculative drain's contributions.
  std::vector<double> finish_;  ///< absolute
  std::vector<double> busy_;

  // Incremental state. settled_ is the persistent run advanced to the
  // latest release barrier; scratch_ is the reusable checkpoint it is
  // copied into and drained speculatively. settled_finish_/settled_busy_
  // hold only contributions of chunks the settled run finalized; owners
  // in touched_ diverge from settled in finish_/busy_ and are rolled
  // back before the next speculative drain.
  EngineRun settled_;
  EngineRun scratch_;
  std::vector<double> settled_finish_;
  std::vector<double> settled_busy_;
  std::vector<std::uint8_t> touched_flag_;
  std::vector<std::size_t> touched_;
  std::vector<std::size_t> compact_remap_;  ///< EngineRun::compact scratch

  std::uint64_t events_ = 0;
  std::uint64_t replays_ = 0;
  std::size_t high_water_ = 0;

  // Tracing (null = fast path). Per-owner attribution for span emission;
  // last_barrier_ is the latest dispatch's absolute time, stamping the
  // replay/checkpoint bookkeeping instants.
  obs::TraceSink* trace_ = nullptr;
  double last_barrier_ = 0.0;
  std::vector<std::size_t> owner_job_;
  std::vector<std::size_t> owner_tenant_;
  std::vector<double> owner_alpha_;
};

}  // namespace nldl::sim
