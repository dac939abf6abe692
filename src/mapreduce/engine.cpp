#include "mapreduce/engine.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace nldl::mapreduce {

JobResult run_job(const JobConfig& config, const MapFn& map_fn,
                  const ReduceFn& reduce_fn) {
  NLDL_REQUIRE(config.num_reducers >= 1, "at least one reducer required");
  NLDL_REQUIRE(static_cast<bool>(map_fn), "map function required");
  NLDL_REQUIRE(static_cast<bool>(reduce_fn), "reduce function required");

  JobResult result;
  result.counters.map_tasks = config.num_splits;

  // ---- Map phase: one task per split, each into its own buffer. The
  // buffers are partitioned in split order once every task has finished,
  // so a pooled job shuffles the serial job's exact record sequence and
  // each key's values reach reduce_fn in the same order.
  std::vector<std::vector<KV>> map_outputs(config.num_splits);
  util::parallel_for(config.pool, 0, config.num_splits, 1,
                     [&](std::size_t split) {
                       map_fn(split, map_outputs[split]);
                     });

  const std::size_t reducers = config.num_reducers;
  std::vector<std::vector<KV>> partitions(reducers);
  std::size_t map_records = 0;
  for (std::vector<KV>& out : map_outputs) {
    map_records += out.size();
    for (const KV& record : out) {
      partitions[record.key % reducers].push_back(record);
    }
    std::vector<KV>().swap(out);
  }
  result.counters.map_output_records = map_records;
  result.counters.shuffle_bytes = map_records * sizeof(KV);

  // ---- Reduce phase: group each partition by key and fold.
  std::vector<std::vector<KV>> reduced(reducers);
  auto run_reduce_task = [&](std::size_t r) {
    std::vector<KV>& part = partitions[r];
    std::sort(part.begin(), part.end(),
              [](const KV& a, const KV& b) { return a.key < b.key; });
    std::vector<double> values;
    for (std::size_t i = 0; i < part.size();) {
      const std::uint64_t key = part[i].key;
      values.clear();
      std::size_t j = i;
      while (j < part.size() && part[j].key == key) {
        values.push_back(part[j].value);
        ++j;
      }
      reduced[r].push_back(
          KV{key, reduce_fn(key, std::span<const double>(values))});
      i = j;
    }
  };

  util::parallel_for(config.pool, 0, reducers, 1, run_reduce_task);

  for (auto& part : reduced) {
    result.counters.reduce_groups += part.size();
    result.output.insert(result.output.end(), part.begin(), part.end());
  }
  std::sort(result.output.begin(), result.output.end(),
            [](const KV& a, const KV& b) { return a.key < b.key; });
  result.counters.reduce_output_records = result.output.size();
  return result;
}

}  // namespace nldl::mapreduce
