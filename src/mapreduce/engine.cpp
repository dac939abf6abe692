#include "mapreduce/engine.hpp"

#include <algorithm>
#include <future>

#include "util/assert.hpp"

namespace nldl::mapreduce {

namespace {

/// Sort by key and sum equal keys in place.
void combine(std::vector<KV>& records) {
  std::sort(records.begin(), records.end(),
            [](const KV& a, const KV& b) { return a.key < b.key; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < records.size();) {
    KV merged = records[i];
    std::size_t j = i + 1;
    while (j < records.size() && records[j].key == merged.key) {
      merged.value += records[j].value;
      ++j;
    }
    records[out++] = merged;
    i = j;
  }
  records.resize(out);
}

}  // namespace

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
  std::vector<std::size_t> emitted(config.num_splits, 0);
  auto run_map_task = [&](std::size_t split) {
    std::vector<KV>& out = map_outputs[split];
    map_fn(split, out);
    emitted[split] = out.size();
    if (config.use_combiner) combine(out);
  };

  if (config.pool != nullptr) {
    std::vector<std::future<void>> futures;
    futures.reserve(config.num_splits);
    for (std::size_t split = 0; split < config.num_splits; ++split) {
      futures.push_back(
          config.pool->submit([&, split] { run_map_task(split); }));
    }
    for (auto& future : futures) future.get();
  } else {
    for (std::size_t split = 0; split < config.num_splits; ++split) {
      run_map_task(split);
    }
  }

  const std::size_t reducers = config.num_reducers;
  std::vector<std::vector<KV>> partitions(reducers);
  std::size_t map_records = 0;
  std::size_t combined_records = 0;
  for (std::size_t split = 0; split < config.num_splits; ++split) {
    map_records += emitted[split];
    combined_records += map_outputs[split].size();
    for (const KV& record : map_outputs[split]) {
      partitions[record.key % reducers].push_back(record);
    }
    std::vector<KV>().swap(map_outputs[split]);
  }
  result.counters.map_output_records = map_records;
  result.counters.combine_output_records = combined_records;
  result.counters.shuffle_bytes = combined_records * sizeof(KV);

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

  if (config.pool != nullptr) {
    std::vector<std::future<void>> futures;
    futures.reserve(reducers);
    for (std::size_t r = 0; r < reducers; ++r) {
      futures.push_back(config.pool->submit([&, r] { run_reduce_task(r); }));
    }
    for (auto& future : futures) future.get();
  } else {
    for (std::size_t r = 0; r < reducers; ++r) run_reduce_task(r);
  }

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
