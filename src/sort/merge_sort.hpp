// Parallel merge sort — the comparison baseline for sample sort.
//
// Sample sort's selling point in the paper is that its *parallel phase* is
// a divisible load (independent buckets, no merging). Parallel merge sort
// is the natural contrast: its local sorts are embarrassingly parallel,
// but the p-way merge at the end is inherently sequential-ish work that
// does NOT divide — exactly the kind of residual dependency the paper's
// framework highlights. The bench pits the two against each other.
#pragma once

#include <algorithm>
#include <vector>

#include "util/assert.hpp"
#include "util/threadpool.hpp"

namespace nldl::sort {

/// Sort by splitting into `ways` equal runs, sorting each (in the pool if
/// provided), then k-way merging. Stable ordering is not guaranteed.
template <typename T>
std::vector<T> parallel_merge_sort(std::vector<T> data, std::size_t ways,
                                   util::ThreadPool* pool = nullptr) {
  NLDL_REQUIRE(ways >= 1, "ways must be >= 1");
  if (data.size() < 2 || ways == 1) {
    std::sort(data.begin(), data.end());
    return data;
  }
  const std::size_t n = data.size();
  // Run boundaries.
  std::vector<std::size_t> bounds(ways + 1, 0);
  for (std::size_t r = 0; r <= ways; ++r) bounds[r] = n * r / ways;

  auto sort_run = [&](std::size_t r) {
    std::sort(data.begin() + static_cast<std::ptrdiff_t>(bounds[r]),
              data.begin() + static_cast<std::ptrdiff_t>(bounds[r + 1]));
  };
  util::parallel_for(pool, 0, ways, 1, sort_run);

  // Iterative pairwise merge (log2(ways) passes).
  std::vector<T> buffer(n);
  std::vector<std::size_t> current = bounds;
  while (current.size() > 2) {
    std::vector<std::size_t> next;
    next.push_back(0);
    for (std::size_t r = 0; r + 2 < current.size(); r += 2) {
      std::merge(data.begin() + static_cast<std::ptrdiff_t>(current[r]),
                 data.begin() + static_cast<std::ptrdiff_t>(current[r + 1]),
                 data.begin() + static_cast<std::ptrdiff_t>(current[r + 1]),
                 data.begin() + static_cast<std::ptrdiff_t>(current[r + 2]),
                 buffer.begin() + static_cast<std::ptrdiff_t>(current[r]));
      next.push_back(current[r + 2]);
    }
    if (current.size() % 2 == 0) {  // odd number of runs: copy the last
      std::copy(data.begin() +
                    static_cast<std::ptrdiff_t>(current[current.size() - 2]),
                data.end(),
                buffer.begin() +
                    static_cast<std::ptrdiff_t>(current[current.size() - 2]));
      next.back() = current[current.size() - 2];
      next.push_back(current.back());
    }
    data.swap(buffer);
    current = std::move(next);
  }
  return data;
}

}  // namespace nldl::sort
