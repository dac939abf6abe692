#include "online/scheduler.hpp"

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

FairShareScheduler::FairShareScheduler(std::size_t shares)
    : shares_(shares) {
  NLDL_REQUIRE(shares >= 1, "FairShareScheduler requires >= 1 share");
}

double SpmfScheduler::rank(const Job& job,
                           const platform::Platform& platform) const {
  return predicted_makespan(job, platform, comm_);
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
  NLDL_UNREACHABLE("unknown scheduler kind");
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          std::size_t shares,
                                          sim::CommModelKind comm) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<Scheduler>();
    case SchedulerKind::kFairShare:
      return std::make_unique<FairShareScheduler>(shares);
    case SchedulerKind::kSpmf:
      return std::make_unique<SpmfScheduler>(comm);
  }
  NLDL_UNREACHABLE("unknown scheduler kind");
}

}  // namespace nldl::online
