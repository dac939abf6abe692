#include "sim/multiplex.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace nldl::sim {

SharedMasterPeriod::SharedMasterPeriod(const Engine& engine,
                                       const CommModel& model,
                                       SharedMasterOptions options)
    : engine_(engine),
      model_(model),
      options_(options),
      settled_(engine, model),
      scratch_(engine, model) {}

// A chunk finalized by the settled (persistent) run is final forever: its
// contribution lands in the settled totals once. The served totals mirror
// it unless the owner is currently speculatively estimated — the same
// chunk was then already simulated (identically) by the last speculative
// drain, so the served totals already include it.
void SharedMasterPeriod::on_settled(std::size_t chunk,
                                    const ChunkSpan& span) {
  const std::size_t owner = chunk_owner_[chunk];
  settled_finish_[owner] =
      std::max(settled_finish_[owner], start_ + span.compute_end);
  settled_busy_[owner] += span.compute_end - span.compute_start;
  if (!touched_flag_[owner]) {
    finish_[owner] = settled_finish_[owner];
    busy_[owner] = settled_busy_[owner];
  }
  // A settling chunk is final — the one moment its spans can be emitted
  // exactly once (speculative drains re-estimate and must stay silent).
  if (trace_ != nullptr) emit_chunk_spans(chunk, span);
}

void SharedMasterPeriod::set_trace(obs::TraceSink* sink) {
  NLDL_REQUIRE(empty(), "attach/detach the trace only between busy periods");
  trace_ = sink;
}

// Emit the transfer + compute spans of a finalized chunk, shifted to
// absolute time and attributed to the dispatching owner.
void SharedMasterPeriod::emit_chunk_spans(std::size_t chunk,
                                          const ChunkSpan& span) {
  const std::size_t owner = chunk_owner_[chunk];
  obs::TraceEvent event;
  event.worker = span.worker;
  event.job = owner_job_[owner];
  event.tenant = owner_tenant_[owner];
  event.size = span.size;
  event.alpha = owner_alpha_[owner];
  event.kind = obs::EventKind::kTransfer;
  event.start = start_ + span.comm_start;
  event.end = start_ + span.comm_end;
  trace_->record(event);
  event.kind = obs::EventKind::kCompute;
  event.start = start_ + span.compute_start;
  event.end = start_ + span.compute_end;
  trace_->record(event);
}

void SharedMasterPeriod::emit_instant(obs::EventKind kind, double at,
                                      double value, std::size_t job,
                                      std::size_t tenant, double alpha) {
  obs::TraceEvent event;
  event.kind = kind;
  event.start = at;
  event.end = at;
  event.job = job;
  event.tenant = tenant;
  event.alpha = alpha;
  event.value = value;
  trace_->record(event);
}

void SharedMasterPeriod::on_speculative(std::size_t chunk,
                                        const ChunkSpan& span) {
  const std::size_t owner = chunk_owner_[chunk];
  if (!touched_flag_[owner]) {
    touched_flag_[owner] = 1;
    touched_.push_back(owner);
  }
  finish_[owner] = std::max(finish_[owner], start_ + span.compute_end);
  busy_[owner] += span.compute_end - span.compute_start;
}

std::size_t SharedMasterPeriod::dispatch(
    double now, double alpha, const std::vector<ChunkAssignment>& chunks,
    const std::vector<std::size_t>& worker_map, std::size_t job,
    std::size_t tenant) {
  if (finish_.empty()) {
    start_ = now;
    // The settled run emits the period's re-rate instants (shifted by the
    // anchor); speculative scratch copies detach the sink after copying.
    if (options_.incremental) settled_.set_trace(trace_, start_);
  }
  NLDL_REQUIRE(now >= start_,
               "dispatches must not precede the period's first dispatch");
  const double release = now - start_;
  const std::size_t owner = finish_.size();
  last_barrier_ = now;
  if (trace_ != nullptr) {
    emit_instant(obs::EventKind::kDispatch, now,
                 static_cast<double>(chunks.size()), job, tenant, alpha);
  }

  if (options_.incremental) {
    // Everything simulated before the new release barrier is final (a
    // chunk released at `release` cannot influence any earlier event):
    // advance the persistent run to the barrier, folding the chunks it
    // finalizes into the settled totals.
    const std::uint64_t before = settled_.events();
    const auto hook = [this](std::size_t chunk, const ChunkSpan& span) {
      on_settled(chunk, span);
    };
    settled_.advance_to(release, ChunkCompletionRef(hook));
    events_ += settled_.events() - before;

    // Compaction rule: whenever finalized chunks are at least half of the
    // settled run, drop them and renumber chunk_owner_ to match. Every
    // checkpoint copy is then O(live + newly finalized chunks), even when
    // one busy period spans the whole stream (a saturated open system
    // never drains), and a compaction's O(chunks) <= 2 x finalized cost
    // is amortized O(1) per chunk. The trajectory is unchanged
    // (EngineRun::compact).
    if (settled_.finalized() > 0 &&
        2 * settled_.finalized() >= settled_.chunks()) {
      const std::size_t dropped = settled_.compact(compact_remap_);
      if (dropped > 0) {
        constexpr std::size_t kDropped =
            std::numeric_limits<std::size_t>::max();
        std::size_t out = 0;
        for (std::size_t old = 0; old < chunk_owner_.size(); ++old) {
          if (compact_remap_[old] == kDropped) continue;
          chunk_owner_[compact_remap_[old]] = chunk_owner_[old];
          ++out;
        }
        chunk_owner_.resize(out);
        if (trace_ != nullptr) {
          emit_instant(obs::EventKind::kCompact, now,
                       static_cast<double>(dropped), obs::kNoIndex,
                       obs::kNoIndex, 0.0);
        }
      }
    }
  }

  for (const ChunkAssignment& chunk : chunks) {
    NLDL_REQUIRE(chunk.worker < worker_map.size(),
                 "chunk outside the dispatch's worker map");
    ChunkAssignment shared = chunk;
    shared.worker = worker_map[chunk.worker];
    shared.release = release;
    shared.alpha = alpha;
    if (options_.incremental) {
      (void)settled_.append(shared);
    } else {
      schedule_.push_back(shared);
    }
    chunk_owner_.push_back(owner);
  }
  finish_.push_back(start_);
  busy_.push_back(0.0);
  settled_finish_.push_back(start_);
  settled_busy_.push_back(0.0);
  touched_flag_.push_back(0);
  owner_job_.push_back(job);
  owner_tenant_.push_back(tenant);
  owner_alpha_.push_back(alpha);
  return owner;
}

void SharedMasterPeriod::replay() {
  ++replays_;
  if (options_.incremental) {
    replay_incremental();
  } else {
    replay_full();
  }
}

// The reference semantics: wipe every owner and re-simulate the whole
// accumulated schedule from scratch. Reuses the scratch run's buffers so
// even the O(n²) mode stops re-allocating per replay.
void SharedMasterPeriod::replay_full() {
  std::fill(finish_.begin(), finish_.end(), start_);
  std::fill(busy_.begin(), busy_.end(), 0.0);
  const std::uint64_t before = scratch_.events();
  scratch_.reset();
  for (const ChunkAssignment& chunk : schedule_) (void)scratch_.append(chunk);
  const auto hook = [this](std::size_t chunk, const ChunkSpan& span) {
    const std::size_t owner = chunk_owner_[chunk];
    finish_[owner] = std::max(finish_[owner], start_ + span.compute_end);
    busy_[owner] += span.compute_end - span.compute_start;
  };
  scratch_.drain(ChunkCompletionRef(hook));
  events_ += scratch_.events() - before;
  if (trace_ != nullptr) {
    emit_instant(obs::EventKind::kReplay, last_barrier_,
                 static_cast<double>(scratch_.events() - before),
                 obs::kNoIndex, obs::kNoIndex, 0.0);
  }
}

// Incremental: roll the owners the previous speculative drain touched
// back to their settled totals (O(touched), not O(owners) — settled
// owners keep their totals untouched), checkpoint the settled run, and
// drain only the speculative tail.
void SharedMasterPeriod::replay_incremental() {
  for (const std::size_t owner : touched_) {
    finish_[owner] = settled_finish_[owner];
    busy_[owner] = settled_busy_[owner];
    touched_flag_[owner] = 0;
  }
  touched_.clear();

  scratch_ = settled_;
  // The checkpoint copy carries the sink; a speculative drain re-simulates
  // events a later drain (or the settled advance) will simulate again, so
  // it must stay silent.
  scratch_.set_trace(nullptr);
  const auto hook = [this](std::size_t chunk, const ChunkSpan& span) {
    on_speculative(chunk, span);
  };
  scratch_.drain(ChunkCompletionRef(hook));
  events_ += scratch_.events() - settled_.events();
  if (trace_ != nullptr) {
    emit_instant(obs::EventKind::kCheckpoint, last_barrier_,
                 static_cast<double>(settled_.chunks() - settled_.finalized()),
                 obs::kNoIndex, obs::kNoIndex, 0.0);
    emit_instant(obs::EventKind::kReplay, last_barrier_,
                 static_cast<double>(scratch_.events() - settled_.events()),
                 obs::kNoIndex, obs::kNoIndex, 0.0);
  }
}

double SharedMasterPeriod::finish(std::size_t owner) const {
  NLDL_REQUIRE(owner < finish_.size(), "unknown period owner");
  return finish_[owner];
}

double SharedMasterPeriod::busy(std::size_t owner) const {
  NLDL_REQUIRE(owner < busy_.size(), "unknown period owner");
  return busy_[owner];
}

// Emit the spans the period still owes before its state is dropped.
// Incremental mode: drain the settled run to the period's end — every
// not-yet-settled chunk finalizes through on_settled, which emits it
// (chunks that settled earlier were emitted at their barrier). Full mode:
// the speculative replays were silent, so one final replay of the whole
// schedule emits everything (the trajectory is bit-identical to the last
// replay() the server read its finishes from). Neither path touches
// events_/replays_ accounting: tracing is telemetry-neutral.
void SharedMasterPeriod::flush_trace() {
  if (options_.incremental) {
    const auto hook = [this](std::size_t chunk, const ChunkSpan& span) {
      on_settled(chunk, span);
    };
    settled_.drain(ChunkCompletionRef(hook));
  } else {
    scratch_.reset();
    scratch_.set_trace(trace_, start_);
    for (const ChunkAssignment& chunk : schedule_) {
      (void)scratch_.append(chunk);
    }
    const auto hook = [this](std::size_t chunk, const ChunkSpan& span) {
      emit_chunk_spans(chunk, span);
    };
    scratch_.drain(ChunkCompletionRef(hook));
    scratch_.set_trace(nullptr);
  }
}

void SharedMasterPeriod::clear() {
  if (trace_ != nullptr && !finish_.empty()) flush_trace();
  // Decaying high-water mark of period sizes: remembers the recent burst
  // scale, forgets one-off spikes within a few periods.
  high_water_ = std::max(chunk_owner_.size(), high_water_ - high_water_ / 4);
  schedule_.clear();
  chunk_owner_.clear();
  finish_.clear();
  busy_.clear();
  settled_finish_.clear();
  settled_busy_.clear();
  touched_flag_.clear();
  touched_.clear();
  owner_job_.clear();
  owner_tenant_.clear();
  owner_alpha_.clear();
  settled_.set_trace(nullptr);
  settled_.reset();
  scratch_.reset();
  start_ = 0.0;
  last_barrier_ = 0.0;
  if (chunk_owner_.capacity() > 4 * high_water_ + 64) shrink();
}

void SharedMasterPeriod::shrink() {
  schedule_.shrink_to_fit();
  chunk_owner_.shrink_to_fit();
  finish_.shrink_to_fit();
  busy_.shrink_to_fit();
  settled_finish_.shrink_to_fit();
  settled_busy_.shrink_to_fit();
  touched_flag_.shrink_to_fit();
  touched_.shrink_to_fit();
  owner_job_.shrink_to_fit();
  owner_tenant_.shrink_to_fit();
  owner_alpha_.shrink_to_fit();
  settled_.shrink();
  scratch_.shrink();
}

}  // namespace nldl::sim
