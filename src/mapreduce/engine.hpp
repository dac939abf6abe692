// A miniature in-memory MapReduce engine.
//
// The paper contrasts DLT with MapReduce throughout; this engine supplies
// the MapReduce *semantics* — map over input splits, hash shuffle, reduce
// per key — executed multi-threaded on one node, with counters for every
// record and byte moved. It is deliberately small: the experiments need a
// faithful accounting of data movement (the paper's Section 4 objective),
// not a distributed filesystem.
//
// Keys are uint64 (jobs encode their structured keys, e.g. (i,j) block
// coordinates, into 64 bits); values are doubles. There is no map-side
// combiner: the jobs accumulate inside the map task, so each emits a key
// at most once per split.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/threadpool.hpp"

namespace nldl::mapreduce {

struct KV {
  std::uint64_t key = 0;
  double value = 0.0;
};

struct Counters {
  std::size_t map_tasks = 0;
  std::size_t map_output_records = 0;
  std::size_t shuffle_bytes = 0;  ///< map_output_records × sizeof(KV)
  std::size_t reduce_groups = 0;
  std::size_t reduce_output_records = 0;
};

struct JobResult {
  /// (key, reduced value) pairs, sorted by key.
  std::vector<KV> output;
  Counters counters;
};

/// Map function: given the split index, emit records into `out`.
using MapFn = std::function<void(std::size_t split, std::vector<KV>& out)>;

/// Reduce function: fold all values of one key into one value.
using ReduceFn =
    std::function<double(std::uint64_t key, std::span<const double> values)>;

struct JobConfig {
  std::size_t num_splits = 0;
  std::size_t num_reducers = 1;
  /// Runs the map and reduce tasks through util::parallel_for; nullptr =
  /// in index order on the calling thread. A pooled job returns the
  /// serial job's output bit for bit.
  util::ThreadPool* pool = nullptr;
};

/// Run a complete map→shuffle→reduce job.
[[nodiscard]] JobResult run_job(const JobConfig& config, const MapFn& map_fn,
                                const ReduceFn& reduce_fn);

}  // namespace nldl::mapreduce
