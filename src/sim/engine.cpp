#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nldl::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoChunk = std::numeric_limits<std::size_t>::max();

/// Remaining transfer time. Full-link-rate transfers use the exact c·size
/// formula (the retired simulator's arithmetic); shared-rate transfers
/// divide by the fluid rate.
double time_left(double remaining, double rate, double link_rate, double c) {
  if (rate == link_rate) return remaining * c;  // nldl-lint: allow(double-eq): rates copied verbatim; equality picks the shared-link form
  return remaining / rate;
}

}  // namespace

double SimResult::load_imbalance() const noexcept {
  // Imbalance is defined over the workers that actually computed
  // something: a worker the schedule never fed is a scheduling decision,
  // not an infinite imbalance, and returning +inf would poison any
  // statistic aggregated over trials. Callers that care about unused
  // workers can count them via idle_workers().
  return util::imbalance_over_busy(worker_compute_time);
}

std::size_t SimResult::idle_workers() const noexcept {
  return util::count_idle(worker_compute_time);
}

Engine::Engine(const platform::Platform& platform, EngineOptions options)
    : platform_(platform), options_(options) {
  NLDL_REQUIRE(options.alpha >= 1.0, "alpha must be >= 1");
  costs_.reserve(platform.size());
  for (const platform::Processor& proc : platform.workers()) {
    costs_.push_back({proc.c, proc.w, proc.bandwidth()});
  }
}

std::vector<ChunkAssignment> single_round_schedule(
    const std::vector<double>& amounts) {
  std::vector<ChunkAssignment> schedule;
  schedule.reserve(amounts.size());
  for (std::size_t worker = 0; worker < amounts.size(); ++worker) {
    schedule.push_back({worker, amounts[worker]});
  }
  return schedule;
}

std::vector<ChunkAssignment> single_round_schedule(
    const std::vector<double>& amounts,
    const std::vector<std::size_t>& send_order) {
  NLDL_REQUIRE(send_order.size() == amounts.size(),
               "send order must cover every worker exactly once");
  std::vector<bool> seen(amounts.size(), false);
  std::vector<ChunkAssignment> schedule;
  schedule.reserve(amounts.size());
  for (const std::size_t worker : send_order) {
    NLDL_REQUIRE(worker < amounts.size(), "send order index out of range");
    NLDL_REQUIRE(!seen[worker], "send order repeats a worker");
    seen[worker] = true;
    schedule.push_back({worker, amounts[worker]});
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// EngineRun

EngineRun::EngineRun(const Engine& engine, const CommModel& model)
    : engine_(&engine), model_(&model) {
  const std::size_t p = engine.platform().size();
  q_head_.assign(p, kNoChunk);
  q_tail_.assign(p, kNoChunk);
  cpu_free_.assign(p, 0.0);
  ready_at_.assign(p, kInf);
  worker_finish_.assign(p, 0.0);
  worker_compute_.assign(p, 0.0);
  worker_comm_.assign(p, 0.0);
}

// Move worker w's next queued chunk to the head of its link at clock(),
// or park it (ready_at_ + release heap) when its release time is still in
// the future. Zero-size chunks travel through the model like any other
// transfer (so e.g. the one-port model still serializes them at the port
// in schedule order, as the retired simulator did); they just take no
// time once served.
void EngineRun::release_head(std::size_t worker) {
  const std::size_t idx = q_head_[worker];
  if (idx == kNoChunk) {
    ready_at_[worker] = kInf;
    return;
  }
  const ChunkAssignment& chunk = schedule_[idx];
  if (chunk.release > now_) {
    ready_at_[worker] = chunk.release;
    release_heap_.push_back({chunk.release, worker});
    std::push_heap(release_heap_.begin(), release_heap_.end(),
                   [](const ParkedRelease& a, const ParkedRelease& b) {
                     return a.time > b.time;
                   });
    return;
  }
  ready_at_[worker] = kInf;
  Transfer& transfer = transfers_[idx];
  transfer.remaining = chunk.size;
  transfer.anchor_time = now_;
  transfer.released = now_;
  eligible_.insert(std::lower_bound(eligible_.begin(), eligible_.end(), idx),
                   idx);
  rates_valid_ = false;
}

// Earliest pending release, lazily discarding stale heap entries (a
// worker's entry is stale once ready_at_ no longer matches it: its head
// was released through another path, or the queue moved on). A worker has
// at most one fresh entry, so the heap holds O(workers) fresh entries and
// stale ones are dropped exactly once — O(log n) amortized against the
// historical O(workers) min_element scan per event.
double EngineRun::peek_release() {
  const auto later = [](const ParkedRelease& a, const ParkedRelease& b) {
    return a.time > b.time;
  };
  while (!release_heap_.empty()) {
    const ParkedRelease& top = release_heap_.front();
    if (ready_at_[top.worker] == top.time) return top.time;
    std::pop_heap(release_heap_.begin(), release_heap_.end(), later);
    release_heap_.pop_back();
  }
  return kInf;
}

// Release every parked head whose time has come (ready_at_ <= clock()).
bool EngineRun::pop_due_releases() {
  const auto later = [](const ParkedRelease& a, const ParkedRelease& b) {
    return a.time > b.time;
  };
  bool any = false;
  while (!release_heap_.empty() && release_heap_.front().time <= now_) {
    const ParkedRelease top = release_heap_.front();
    std::pop_heap(release_heap_.begin(), release_heap_.end(), later);
    release_heap_.pop_back();
    if (ready_at_[top.worker] == top.time) {
      release_head(top.worker);
      any = true;
    }
  }
  return any;
}

// Ask the model to rate the eligible transfers (sorted by schedule
// position, at most one per worker) and apply the rates, re-anchoring
// only transfers whose rate changed. Cached while the eligible set is
// unchanged: models are deterministic and stateless (the CommModel
// contract), so re-asking with the same set is both wasted work and — at
// a checkpoint barrier — a potential source of divergence from the
// uninterrupted trajectory. The cache guarantees the model sees exactly
// the same call sequence whether or not the run was paused.
void EngineRun::assign_rates() {
  const std::vector<Engine::WorkerCosts>& costs = engine_->costs_;
  views_.clear();
  for (const std::size_t idx : eligible_) {
    const std::size_t w = schedule_[idx].worker;
    TransferView view;
    view.chunk = idx;
    view.worker = w;
    view.link_rate = costs[w].bandwidth;
    // Progress the view (not the anchor) to the clock, so models relying
    // on remaining see current data.
    view.remaining = std::max(
        0.0, transfers_[idx].remaining -
                 transfers_[idx].rate * (now_ - transfers_[idx].anchor_time));
    view.released = transfers_[idx].released;
    views_.push_back(view);
  }
  rates_.assign(views_.size(), 0.0);
  model_->assign_rates(views_, rates_);

  bool any_positive = false;
  for (std::size_t j = 0; j < views_.size(); ++j) {
    const std::size_t idx = views_[j].chunk;
    Transfer& transfer = transfers_[idx];
    NLDL_ASSERT(rates_[j] >= 0.0, "comm model assigned a negative rate");
    const double rate = std::min(rates_[j], views_[j].link_rate);
    if (rate > 0.0) any_positive = true;
    if (rate != transfer.rate) {  // nldl-lint: allow(double-eq): rate-change detection on values copied verbatim
      transfer.remaining =
          std::max(0.0, transfer.remaining -
                            transfer.rate * (now_ - transfer.anchor_time));
      transfer.anchor_time = now_;
      transfer.rate = rate;
    }
    if (rate > 0.0 && !transfer.started) {
      transfer.started = true;
      transfer.comm_start = now_;
    }
  }
  NLDL_ASSERT(any_positive, "comm model starves every pending transfer");
  rates_valid_ = true;

  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kRerate;
    event.start = trace_offset_ + now_;
    event.end = event.start;
    event.value = static_cast<double>(eligible_.size());
    trace_->record(event);
  }
}

// size^alpha under the engine's power rule (engine.hpp): std::pow, its
// last result reused while the argument bits repeat. The caller handles
// alpha = 1, which leaves this slot alone.
double EngineRun::power(double size, double alpha) {
  const auto size_bits = std::bit_cast<std::uint64_t>(size);
  const auto alpha_bits = std::bit_cast<std::uint64_t>(alpha);
  if (size_bits != pow_size_bits_ || alpha_bits != pow_alpha_bits_) {
    pow_size_bits_ = size_bits;
    pow_alpha_bits_ = alpha_bits;
    pow_value_ = std::pow(size, alpha);
  }
  return pow_value_;
}

// Record the chunk's span once its communication is over, queueing its
// computation on the worker's CPU (receive/compute pipelining: compute of
// chunk k overlaps the receive of chunk k+1).
void EngineRun::finish_chunk(std::size_t idx, ChunkCompletionRef hook) {
  const ChunkAssignment& chunk = schedule_[idx];
  const Transfer& transfer = transfers_[idx];
  ChunkSpan& span = spans_[idx];
  span.worker = chunk.worker;
  span.size = chunk.size;
  span.comm_start = transfer.started ? transfer.comm_start : now_;
  span.comm_end = now_;
  const double alpha =
      chunk.alpha > 0.0 ? chunk.alpha : engine_->options().alpha;
  // std::pow(x, 1) == x for every x, so alpha = 1 skips the call.
  const double compute_duration =
      engine_->costs_[chunk.worker].w *
      (alpha == 1.0 ? chunk.size : power(chunk.size, alpha));  // nldl-lint: allow(double-eq): exact exponent 1, where pow returns its base
  span.compute_start = std::max(span.comm_end, cpu_free_[chunk.worker]);
  span.compute_end = span.compute_start + compute_duration;
  cpu_free_[chunk.worker] = span.compute_end;

  worker_comm_[chunk.worker] += span.comm_end - span.comm_start;
  worker_compute_[chunk.worker] += compute_duration;
  worker_finish_[chunk.worker] = span.compute_end;
  makespan_ = std::max(makespan_, span.compute_end);
  if (hook) hook(idx, span);
}

std::size_t EngineRun::append(const ChunkAssignment& chunk) {
  NLDL_REQUIRE(chunk.worker < engine_->platform().size(),
               "chunk assigned to unknown worker");
  NLDL_REQUIRE(chunk.size >= 0.0, "chunk size must be >= 0");
  NLDL_REQUIRE(std::isfinite(chunk.release) && chunk.release >= 0.0,
               "chunk release time must be finite and >= 0");
  NLDL_REQUIRE(chunk.alpha == 0.0 || chunk.alpha >= 1.0,
               "per-chunk alpha must be 0 (engine default) or >= 1");
  NLDL_REQUIRE(chunk.release >= now_,
               "appended chunk released in the simulated past");

  const std::size_t idx = schedule_.size();
  schedule_.push_back(chunk);
  spans_.emplace_back();
  transfers_.emplace_back();
  fifo_next_.push_back(kNoChunk);

  // Chunks to one worker serialize in schedule order, release times
  // notwithstanding: a released chunk never overtakes an earlier chunk to
  // the same worker.
  const std::size_t w = chunk.worker;
  const bool queue_was_empty = q_head_[w] == kNoChunk;
  if (q_tail_[w] != kNoChunk) fifo_next_[q_tail_[w]] = idx;
  q_tail_[w] = idx;
  if (queue_was_empty) {
    q_head_[w] = idx;
    release_head(w);
  }
  return idx;
}

void EngineRun::advance_to(double barrier, ChunkCompletionRef hook) {
  const std::vector<Engine::WorkerCosts>& costs = engine_->costs_;
  while (true) {
    const double next_release = peek_release();
    if (eligible_.empty()) {
      // Nothing in flight. Jump to the next release (a quiet gap between
      // releases) — unless it lies beyond the barrier, or the schedule
      // has drained.
      if (next_release == kInf || next_release > barrier) break;  // nldl-lint: allow(double-eq): kInf sentinel compare
      now_ = std::max(now_, next_release);
      ++events_;
      pop_due_releases();
      continue;
    }
    if (!rates_valid_) assign_rates();

    // Advance to the earliest transfer completion — or to the next
    // release, whose newcomer changes the rate assignment (water-filling
    // must be recomputed the instant a transfer joins the master).
    double next = next_release;
    for (const std::size_t idx : eligible_) {
      const Transfer& transfer = transfers_[idx];
      if (transfer.rate <= 0.0) continue;
      const Engine::WorkerCosts& cost = costs[schedule_[idx].worker];
      next = std::min(next, transfer.anchor_time +
                                time_left(transfer.remaining, transfer.rate,
                                          cost.bandwidth, cost.c));
    }
    NLDL_ASSERT(std::isfinite(next), "no finite next event");
    // Events strictly after the barrier belong to a later advance — stop
    // with every transfer's anchor untouched so resuming is bit-identical
    // to never having paused.
    if (next > barrier) break;
    now_ = std::max(now_, next);
    ++events_;

    // Chunks whose release has come enter their link head now. They were
    // not part of the rate interval that just elapsed; the next rate
    // assignment includes the newcomers.
    const bool any_released = pop_due_releases();

    // Complete every transfer done at the clock. Transfers running below
    // their private link rate (fluid sharing) additionally snap within
    // the retired water-filling simulator's tolerance: fair sharing
    // leaves O(eps)-sized residues on transfers that tie in exact
    // arithmetic. Full-link-rate transfers never snap, so the discrete
    // models keep their exact closed-form finish times even in near-ties.
    done_.clear();
    for (const std::size_t idx : eligible_) {
      const Transfer& transfer = transfers_[idx];
      if (transfer.rate <= 0.0) continue;
      const Engine::WorkerCosts& cost = costs[schedule_[idx].worker];
      const double finish =
          transfer.anchor_time + time_left(transfer.remaining, transfer.rate,
                                           cost.bandwidth, cost.c);
      const bool shared_rate = transfer.rate != cost.bandwidth;  // nldl-lint: allow(double-eq): rates copied verbatim; equality picks the shared-link form
      const double left =
          transfer.remaining - transfer.rate * (now_ - transfer.anchor_time);
      if (finish <= now_ ||
          (shared_rate &&
           left <= 1e-12 * std::max(1.0, schedule_[idx].size))) {
        done_.push_back(idx);
      }
    }
    NLDL_ASSERT(!done_.empty() || any_released,
                "event advanced time without a completion or a release");
    if (done_.empty()) continue;

    for (const std::size_t idx : done_) {
      const std::size_t w = schedule_[idx].worker;
      q_head_[w] = fifo_next_[idx];
      finish_chunk(idx, hook);
      release_head(w);
    }
    // Batch-remove the completed chunks from the eligible set: both
    // sequences are ascending (successors released above insert in
    // sorted position past their finished predecessors), so one
    // two-pointer sweep replaces the historical per-chunk erase+find.
    std::size_t next_done = 0;
    std::size_t out = 0;
    for (std::size_t i = 0; i < eligible_.size(); ++i) {
      if (next_done < done_.size() && eligible_[i] == done_[next_done]) {
        ++next_done;
        continue;
      }
      eligible_[out++] = eligible_[i];
    }
    eligible_.resize(out);
    finalized_ += done_.size();
    rates_valid_ = false;
  }
  // All events up to the barrier are processed; the clock advances to the
  // barrier itself (when finite) so appends at the barrier are legal and
  // repeated advances are idempotent.
  if (std::isfinite(barrier) && barrier > now_) now_ = barrier;
}

void EngineRun::drain(ChunkCompletionRef hook) { advance_to(kInf, hook); }

void EngineRun::reset_single_round(const std::vector<double>& amounts,
                                   double alpha) {
  const std::size_t p = engine_->costs_.size();
  NLDL_REQUIRE(amounts.size() == p, "one amount per worker required");
  NLDL_REQUIRE(alpha == 0.0 || alpha >= 1.0,
               "per-chunk alpha must be 0 (engine default) or >= 1");
  for (const double size : amounts) {
    NLDL_REQUIRE(size >= 0.0, "chunk size must be >= 0");
  }
  reset();
  // What append() leaves for a chunk released at clock 0 on an empty
  // queue: the chunk heads its worker's queue, released at once (no heap
  // entry), and joins the eligible set, which ascends with the workers.
  schedule_.resize(p);
  spans_.resize(p);
  transfers_.resize(p);
  fifo_next_.assign(p, kNoChunk);
  eligible_.resize(p);
  for (std::size_t w = 0; w < p; ++w) {
    schedule_[w] = {w, amounts[w], 0.0, alpha};
    transfers_[w].remaining = amounts[w];
    q_head_[w] = w;
    q_tail_[w] = w;
    eligible_[w] = w;
  }
}

void EngineRun::reset() {
  const std::size_t p = engine_->platform().size();
  schedule_.clear();
  spans_.clear();
  transfers_.clear();
  fifo_next_.clear();
  q_head_.assign(p, kNoChunk);
  q_tail_.assign(p, kNoChunk);
  cpu_free_.assign(p, 0.0);
  ready_at_.assign(p, kInf);
  worker_finish_.assign(p, 0.0);
  worker_compute_.assign(p, 0.0);
  worker_comm_.assign(p, 0.0);
  release_heap_.clear();
  eligible_.clear();
  views_.clear();
  rates_.clear();
  done_.clear();
  now_ = 0.0;
  finalized_ = 0;
  makespan_ = 0.0;
  rates_valid_ = false;
  // events_ deliberately survives: it counts over the run object's
  // lifetime, so a server reusing one scratch run across busy periods
  // keeps a cumulative event tally for telemetry.
}

void EngineRun::shrink() {
  schedule_.shrink_to_fit();
  spans_.shrink_to_fit();
  transfers_.shrink_to_fit();
  fifo_next_.shrink_to_fit();
  release_heap_.shrink_to_fit();
  eligible_.shrink_to_fit();
  views_.shrink_to_fit();
  rates_.shrink_to_fit();
  done_.shrink_to_fit();
}

std::size_t EngineRun::compact(std::vector<std::size_t>& old_to_new) {
  const std::size_t n = schedule_.size();
  old_to_new.assign(n, kNoChunk);

  // A chunk is live iff it is still on some worker's link FIFO: q_head_
  // only advances past a chunk when finish_chunk finalizes it, and
  // eligible (in-flight) chunks are their queues' heads. Everything not
  // reachable from a head is finalized.
  for (std::size_t w = 0; w < q_head_.size(); ++w) {
    for (std::size_t idx = q_head_[w]; idx != kNoChunk;
         idx = fifo_next_[idx]) {
      old_to_new[idx] = 0;
    }
  }

  // Renumber survivors in ascending old order and slide their state down
  // in place (new <= old throughout, so the moves never clobber).
  std::size_t next = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (old_to_new[idx] == kNoChunk) continue;
    old_to_new[idx] = next;
    schedule_[next] = schedule_[idx];
    spans_[next] = spans_[idx];
    transfers_[next] = transfers_[idx];
    fifo_next_[next] = fifo_next_[idx];  // old target; remapped below
    ++next;
  }
  const std::size_t dropped = n - next;
  schedule_.resize(next);
  spans_.resize(next);
  transfers_.resize(next);
  fifo_next_.resize(next);

  for (std::size_t i = 0; i < next; ++i) {
    if (fifo_next_[i] != kNoChunk) fifo_next_[i] = old_to_new[fifo_next_[i]];
  }
  for (std::size_t w = 0; w < q_head_.size(); ++w) {
    if (q_head_[w] == kNoChunk) {
      // Empty queue: the stale tail (a dropped chunk, or soon-reused
      // index) must not receive an append's fifo link.
      q_tail_[w] = kNoChunk;
    } else {
      q_head_[w] = old_to_new[q_head_[w]];
      q_tail_[w] = old_to_new[q_tail_[w]];
    }
  }
  for (std::size_t& idx : eligible_) idx = old_to_new[idx];
  done_.clear();  // last advance's completions: old indices, all dropped
  // views_ may hold stale chunk indices, but they are only ever read by
  // assign_rates, which rebuilds them; the rates_valid_ cache (and every
  // Transfer's anchor/rate) is untouched, so the event trajectory
  // continues exactly as if compaction had not happened.
  finalized_ = 0;
  return dropped;
}

SimResult EngineRun::take_result() {
  NLDL_REQUIRE(drained(), "take_result requires a fully drained run");
  SimResult result;
  result.spans = std::move(spans_);
  result.worker_finish = std::move(worker_finish_);
  result.worker_compute_time = std::move(worker_compute_);
  result.worker_comm_time = std::move(worker_comm_);
  result.makespan = makespan_;
  return result;
}

// ---------------------------------------------------------------------------
// Engine batch API — one-shot conveniences over EngineRun.

SimResult Engine::run(const std::vector<ChunkAssignment>& schedule,
                      const CommModel& model) const {
  EngineRun run(*this, model);
  for (const ChunkAssignment& chunk : schedule) (void)run.append(chunk);
  run.drain();
  return run.take_result();
}

SimResult Engine::run(const std::vector<ChunkAssignment>& schedule,
                      CommModelKind kind) const {
  const auto model = make_comm_model(kind);
  return run(schedule, *model);
}

SimResult Engine::run_single_round(const std::vector<double>& amounts,
                                   const CommModel& model) const {
  EngineRun run(*this, model);
  run.reset_single_round(amounts, 0.0);
  run.drain();
  return run.take_result();
}

}  // namespace nldl::sim
