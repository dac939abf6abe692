#include "sort/distributed.hpp"

#include <algorithm>
#include <cmath>

#include "sim/engine.hpp"
#include "sort/sample_sort.hpp"
#include "util/assert.hpp"

namespace nldl::sort {

DistributedSortPlan plan_distributed_sort(
    const platform::Platform& platform, double n,
    const DistributedSortConfig& config) {
  NLDL_REQUIRE(n > 1.0, "need more than one key");
  NLDL_REQUIRE(config.master_w > 0.0, "master speed must be positive");
  const std::size_t p = platform.size();

  DistributedSortPlan plan;

  // Bucket shares.
  plan.bucket_sizes.resize(p);
  const double total_speed = platform.total_speed();
  for (std::size_t i = 0; i < p; ++i) {
    const double share = config.heterogeneous_buckets
                             ? platform.speed(i) / total_speed
                             : 1.0 / static_cast<double>(p);
    plan.bucket_sizes[i] = share * n;
  }

  // Master preprocessing.
  const auto s =
      static_cast<double>(default_oversampling(static_cast<std::size_t>(n)));
  const double sample = s * static_cast<double>(p);
  plan.step1_time =
      config.master_w * sample * std::log2(std::max(2.0, sample));
  plan.step2_time =
      config.master_w * n * std::log2(std::max(2.0, double(p)));

  // Scatter + local sorts. Workers start sorting when their bucket lands;
  // arrival times come from the engine over parallel links.
  const sim::Engine engine(platform);
  const sim::SimResult scatter =
      engine.run_single_round(plan.bucket_sizes, sim::ParallelLinksModel{});
  double makespan = 0.0;
  double scatter_end = 0.0;
  for (const sim::ChunkSpan& span : scatter.spans) {
    const std::size_t i = span.worker;
    const double arrive = span.comm_end;
    scatter_end = std::max(scatter_end, arrive);
    const double bucket = std::max(2.0, plan.bucket_sizes[i]);
    const double local_sort =
        platform.w(i) * plan.bucket_sizes[i] * std::log2(bucket);
    makespan = std::max(makespan, arrive + local_sort);
  }
  plan.scatter_time = scatter_end;
  plan.step3_time = makespan - 0.0;  // relative to scatter start
  plan.makespan = plan.step1_time + plan.step2_time + makespan;

  // Ideal: all N·log2 N comparison work spread over aggregate speed.
  plan.ideal_time = n * std::log2(n) / total_speed;
  plan.overhead_ratio = plan.makespan / plan.ideal_time;
  return plan;
}

}  // namespace nldl::sort
