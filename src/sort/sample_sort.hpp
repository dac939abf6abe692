// Parallel sample sort (paper Section 3).
//
// Sorting costs N·log N — "almost linear" — and becomes a genuine divisible
// load after a cheap preprocessing phase (Frazer–McKellar sample sort):
//   Step 1: draw and sort a sample of s·p keys; keep p−1 splitters
//           (oversampling ratio s reduces bucket-size skew; the paper takes
//           s = log² N).
//   Step 2: route every key to its bucket by binary search (N·log p, on the
//           master).
//   Step 3: sort the p buckets independently — this is the divisible phase
//           (one bucket per worker).
//
// Section 3.2 extends the scheme to heterogeneous workers: splitters are
// taken at sample ranks proportional to cumulative normalized speeds, so
// bucket i has expected size x_i·N and every worker finishes in ≈ the same
// time w.h.p.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace nldl::sort {

/// The sample uses the paper's oversampling ratio s = ⌈log₂²N⌉.
struct SampleSortConfig {
  std::size_t num_buckets = 1;  ///< p (one bucket per worker)
  std::uint64_t seed = util::Rng::kDefaultSeed;
  /// Optional pool for parallel Step-3 local sorts (nullptr = serial).
  util::ThreadPool* pool = nullptr;
};

struct SampleSortStats {
  std::size_t n = 0;
  std::size_t num_buckets = 0;
  std::size_t oversampling = 0;
  std::vector<std::size_t> bucket_sizes;
  std::size_t max_bucket = 0;
  /// MaxSize / (N/p): the quantity bounded by Theorem B.4 (homogeneous).
  double max_over_expected = 0.0;
  double step1_seconds = 0.0;
  double step2_seconds = 0.0;
  double step3_seconds = 0.0;
};

namespace detail {

/// Step 1: splitter keys at the given sample ranks. `ranks` must be
/// strictly increasing and < sample size.
template <typename T>
std::vector<T> select_splitters(const std::vector<T>& data,
                                std::size_t sample_size,
                                const std::vector<std::size_t>& ranks,
                                util::Rng& rng) {
  std::vector<T> sample;
  sample.reserve(sample_size);
  for (std::size_t i = 0; i < sample_size; ++i) {
    const auto index = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(data.size()) - 1));
    sample.push_back(data[index]);
  }
  std::sort(sample.begin(), sample.end());
  std::vector<T> splitters;
  splitters.reserve(ranks.size());
  for (const std::size_t rank : ranks) {
    NLDL_ASSERT(rank < sample.size(), "splitter rank out of sample range");
    splitters.push_back(sample[rank]);
  }
  return splitters;
}

/// Step 2: bucket index of each key (binary search over splitters).
template <typename T>
std::vector<std::uint32_t> classify(const std::vector<T>& data,
                                    const std::vector<T>& splitters) {
  std::vector<std::uint32_t> bucket_of(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto it =
        std::upper_bound(splitters.begin(), splitters.end(), data[i]);
    bucket_of[i] =
        static_cast<std::uint32_t>(std::distance(splitters.begin(), it));
  }
  return bucket_of;
}

}  // namespace detail

/// Compute the paper's oversampling ratio ⌈log₂²N⌉ (at least 1).
[[nodiscard]] std::size_t default_oversampling(std::size_t n);

/// Splitter sample ranks for homogeneous buckets: s, 2s, …, (p−1)s.
[[nodiscard]] std::vector<std::size_t> homogeneous_splitter_ranks(
    std::size_t p, std::size_t s);

/// Splitter sample ranks for heterogeneous buckets (Section 3.2): rank of
/// splitter i is ⌊cum_x_i · (sample_size − 1)⌋ where cum_x_i is the
/// cumulative normalized speed of workers 1..i.
[[nodiscard]] std::vector<std::size_t> heterogeneous_splitter_ranks(
    const std::vector<double>& speeds, std::size_t sample_size);

/// Full sample sort with equal-share buckets. Returns the sorted data.
template <typename T>
std::vector<T> sample_sort(std::vector<T> data, const SampleSortConfig& config,
                           SampleSortStats* stats = nullptr);

/// Sample sort with speed-proportional buckets; bucket i targets share
/// x_i·N. speeds.size() defines the bucket count (overrides config).
template <typename T>
std::vector<T> sample_sort_heterogeneous(std::vector<T> data,
                                         const std::vector<double>& speeds,
                                         const SampleSortConfig& config,
                                         SampleSortStats* stats = nullptr);

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

namespace detail {

template <typename T>
std::vector<T> sample_sort_impl(std::vector<T> data,
                                const std::vector<std::size_t>& ranks,
                                std::size_t num_buckets,
                                std::size_t sample_size,
                                const SampleSortConfig& config,
                                SampleSortStats* stats) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  if (stats != nullptr) {
    *stats = SampleSortStats{};
    stats->n = data.size();
    stats->num_buckets = num_buckets;
  }
  if (data.size() < 2 || num_buckets < 2) {
    const auto t0 = Clock::now();  // nldl-lint: allow(nondet-source): step wall-time instrumentation reported in SampleSortStats — never feeds the sort
    std::sort(data.begin(), data.end());
    if (stats != nullptr) {
      stats->bucket_sizes.assign(1, data.size());
      stats->max_bucket = data.size();
      stats->max_over_expected = 1.0;
      stats->step3_seconds = seconds_between(t0, Clock::now());  // nldl-lint: allow(nondet-source): step wall-time instrumentation reported in SampleSortStats — never feeds the sort
    }
    return data;
  }

  util::Rng rng(config.seed);

  // Step 1: splitters.
  const auto t0 = Clock::now();  // nldl-lint: allow(nondet-source): step wall-time instrumentation reported in SampleSortStats — never feeds the sort
  const std::vector<T> splitters =
      select_splitters(data, sample_size, ranks, rng);
  const auto t1 = Clock::now();  // nldl-lint: allow(nondet-source): step wall-time instrumentation reported in SampleSortStats — never feeds the sort

  // Step 2: classify and scatter (stable counting scatter).
  const std::vector<std::uint32_t> bucket_of = classify(data, splitters);
  std::vector<std::size_t> counts(num_buckets, 0);
  for (const std::uint32_t b : bucket_of) ++counts[b];
  std::vector<std::size_t> offsets(num_buckets + 1, 0);
  for (std::size_t b = 0; b < num_buckets; ++b) {
    offsets[b + 1] = offsets[b] + counts[b];
  }
  std::vector<T> scattered(data.size());
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < data.size(); ++i) {
      scattered[cursor[bucket_of[i]]++] = data[i];
    }
  }
  const auto t2 = Clock::now();  // nldl-lint: allow(nondet-source): step wall-time instrumentation reported in SampleSortStats — never feeds the sort

  // Step 3: local sorts, one bucket per (virtual) worker.
  util::parallel_for(config.pool, 0, num_buckets, 1, [&](std::size_t b) {
    std::sort(scattered.begin() + static_cast<std::ptrdiff_t>(offsets[b]),
              scattered.begin() + static_cast<std::ptrdiff_t>(offsets[b + 1]));
  });
  const auto t3 = Clock::now();  // nldl-lint: allow(nondet-source): step wall-time instrumentation reported in SampleSortStats — never feeds the sort

  if (stats != nullptr) {
    stats->oversampling = sample_size / num_buckets;
    stats->bucket_sizes = counts;
    stats->max_bucket = *std::max_element(counts.begin(), counts.end());
    stats->max_over_expected =
        static_cast<double>(stats->max_bucket) /
        (static_cast<double>(data.size()) / static_cast<double>(num_buckets));
    stats->step1_seconds = seconds_between(t0, t1);
    stats->step2_seconds = seconds_between(t1, t2);
    stats->step3_seconds = seconds_between(t2, t3);
  }
  return scattered;
}

}  // namespace detail

template <typename T>
std::vector<T> sample_sort(std::vector<T> data, const SampleSortConfig& config,
                           SampleSortStats* stats) {
  NLDL_REQUIRE(config.num_buckets >= 1, "num_buckets must be >= 1");
  const std::size_t p = config.num_buckets;
  std::size_t s = default_oversampling(data.size());
  // The sample must contain rank (p-1)·s, and we cannot use more keys than
  // we have.
  std::size_t sample_size = s * p;
  if (sample_size > data.size() && p >= 2) {
    sample_size = std::max<std::size_t>(data.size(), p);
    s = std::max<std::size_t>(sample_size / p, 1);
    sample_size = s * p;
  }
  return detail::sample_sort_impl(std::move(data),
                                  homogeneous_splitter_ranks(p, s), p,
                                  sample_size, config, stats);
}

template <typename T>
std::vector<T> sample_sort_heterogeneous(std::vector<T> data,
                                         const std::vector<double>& speeds,
                                         const SampleSortConfig& config,
                                         SampleSortStats* stats) {
  NLDL_REQUIRE(!speeds.empty(), "speeds must not be empty");
  const std::size_t p = speeds.size();
  const std::size_t s = default_oversampling(data.size());
  std::size_t sample_size = s * p;
  if (sample_size > data.size() && p >= 2) {
    sample_size = std::max<std::size_t>(data.size(), p);
  }
  return detail::sample_sort_impl(
      std::move(data), heterogeneous_splitter_ranks(speeds, sample_size), p,
      sample_size, config, stats);
}

}  // namespace nldl::sort
