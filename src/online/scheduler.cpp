#include "online/scheduler.hpp"

#include <bit>
#include <cstdint>

#include "dlt/nonlinear_dlt.hpp"
#include "util/assert.hpp"

namespace nldl::online {

double predicted_makespan(const Job& job,
                          const platform::Platform& platform,
                          sim::CommModelKind comm) {
  NLDL_REQUIRE(job.load > 0.0, "predicted_makespan requires a positive load");
  // The same matched allocator Server::job_schedule replays under
  // each model (one-port feeds in platform order there too).
  return dlt::nonlinear_single_round_for(comm, platform, job.load,
                                         job.alpha)
      .makespan;
}

double mean_predicted_makespan(const JobMix& mix,
                               const platform::Platform& platform,
                               sim::CommModelKind comm) {
  mix.validate();
  double weighted = 0.0;
  double total_weight = 0.0;
  for (std::size_t k = 0; k < mix.alphas.size(); ++k) {
    const Job mean_job{0, 0.0, mix.mean_load(), mix.alphas[k]};
    weighted +=
        mix.alpha_weights[k] * predicted_makespan(mean_job, platform, comm);
    total_weight += mix.alpha_weights[k];
  }
  return weighted / total_weight;
}

std::size_t FcfsScheduler::pick(const std::vector<Job>& queue,
                                const platform::Platform&) const {
  NLDL_REQUIRE(!queue.empty(), "pick() on an empty queue");
  return 0;
}

FairShareScheduler::FairShareScheduler(std::size_t shares)
    : shares_(shares) {
  NLDL_REQUIRE(shares >= 1, "FairShareScheduler requires >= 1 share");
}

std::size_t FairShareScheduler::pick(const std::vector<Job>& queue,
                                     const platform::Platform&) const {
  NLDL_REQUIRE(!queue.empty(), "pick() on an empty queue");
  return 0;
}

double PredictionCache::predict(const Job& job,
                                const platform::Platform& platform,
                                sim::CommModelKind comm) {
  // Evict everything if this is a different platform than the one the
  // cached predictions were solved on. The fingerprint is plain O(p)
  // arithmetic — no allocation on the hit path — over the exact
  // per-worker bit patterns, so no two distinct platforms share it
  // short of a 64-bit hash collision.
  PlatformSignature signature;
  signature.size = platform.size();
  std::uint64_t digest = 0xCBF29CE484222325ULL;  // FNV-1a
  const auto mix = [&digest](double value) {
    digest ^= std::bit_cast<std::uint64_t>(value);
    digest *= 0x100000001B3ULL;
  };
  for (const auto& worker : platform.workers()) {
    mix(worker.c);
    mix(worker.w);
  }
  signature.digest = digest;
  if (!bound_ || !(signature == platform_signature_)) {
    cache_.clear();
    platform_signature_ = signature;
    bound_ = true;
  }

  const auto it = cache_.find(job.id);
  if (it != cache_.end() && it->second.load == job.load &&
      it->second.alpha == job.alpha && it->second.comm == comm) {
    ++hits_;
    return it->second.makespan;
  }
  ++misses_;
  const double makespan = predicted_makespan(job, platform, comm);
  cache_[job.id] = {job.load, job.alpha, comm, makespan};
  return makespan;
}

void PredictionCache::clear() {
  cache_.clear();
  bound_ = false;
}

std::size_t SpmfScheduler::pick(
    const std::vector<Job>& queue,
    const platform::Platform& slot_platform) const {
  NLDL_REQUIRE(!queue.empty(), "pick() on an empty queue");

  std::size_t best = 0;
  double best_makespan = cache_.predict(queue[0], slot_platform, comm_);
  for (std::size_t k = 1; k < queue.size(); ++k) {
    const double makespan = cache_.predict(queue[k], slot_platform, comm_);
    // Strict < keeps ties on the earliest arrival (queue is in arrival
    // order).
    if (makespan < best_makespan) {
      best = k;
      best_makespan = makespan;
    }
  }
  return best;
}

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return "fcfs";
    case SchedulerKind::kFairShare:
      return "fair-share";
    case SchedulerKind::kSpmf:
      return "spmf";
  }
  NLDL_ASSERT(false, "unknown scheduler kind");
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          std::size_t shares,
                                          sim::CommModelKind comm) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kFairShare:
      return std::make_unique<FairShareScheduler>(shares);
    case SchedulerKind::kSpmf:
      return std::make_unique<SpmfScheduler>(comm);
  }
  NLDL_ASSERT(false, "unknown scheduler kind");
}

}  // namespace nldl::online
