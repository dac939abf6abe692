#include "linalg/outer_product.hpp"

#include <algorithm>
#include <limits>

#include "partition/block_homogeneous.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nldl::linalg {

namespace {

// Shared definition (util::imbalance_over_busy): e over the workers that
// got work; idle workers don't drive e to +infinity.
double imbalance_of(const std::vector<double>& times) {
  return util::imbalance_over_busy(times);
}

}  // namespace

Matrix outer_product_serial(const std::vector<double>& a,
                            const std::vector<double>& b) {
  Matrix c(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      c(i, j) = ai * b[j];
    }
  }
  return c;
}

DistributedOuterProduct outer_product_partitioned(
    const std::vector<double>& a, const std::vector<double>& b,
    const partition::GridLayout& layout, const std::vector<double>& speeds,
    util::ThreadPool* pool) {
  NLDL_REQUIRE(a.size() == b.size(), "outer product inputs must match");
  NLDL_REQUIRE(static_cast<long long>(a.size()) == layout.n,
               "layout grid must match the vector length");
  NLDL_REQUIRE(speeds.size() == layout.rects.size(),
               "one speed per layout rectangle required");

  DistributedOuterProduct out;
  out.result = Matrix(a.size(), b.size());
  const std::size_t p = layout.rects.size();
  out.elements_per_worker.assign(p, 0);
  out.compute_time.assign(p, 0.0);

  auto compute_rect = [&](std::size_t worker) {
    const partition::IRect& rect = layout.rects[worker];
    for (long long i = rect.y; i < rect.y + rect.height; ++i) {
      const double ai = a[static_cast<std::size_t>(i)];
      for (long long j = rect.x; j < rect.x + rect.width; ++j) {
        out.result(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
            ai * b[static_cast<std::size_t>(j)];
      }
    }
  };

  util::parallel_for(pool, 0, p, 1, compute_rect);

  for (std::size_t worker = 0; worker < p; ++worker) {
    const partition::IRect& rect = layout.rects[worker];
    const long long elements = rect.area() > 0 ? rect.half_perimeter() : 0;
    out.elements_per_worker[worker] = elements;
    out.total_elements += elements;
    NLDL_REQUIRE(speeds[worker] > 0.0, "speeds must be positive");
    out.compute_time[worker] =
        static_cast<double>(rect.area()) / speeds[worker];
  }
  out.imbalance = imbalance_of(out.compute_time);
  return out;
}

DistributedOuterProduct outer_product_blocked(const std::vector<double>& a,
                                              const std::vector<double>& b,
                                              long long block_dim,
                                              const std::vector<double>& speeds,
                                              util::ThreadPool* pool) {
  NLDL_REQUIRE(a.size() == b.size(), "outer product inputs must match");
  NLDL_REQUIRE(block_dim >= 1, "block dimension must be >= 1");
  const auto n = static_cast<long long>(a.size());
  NLDL_REQUIRE(n % block_dim == 0,
               "vector length must be divisible by the block dimension");
  NLDL_REQUIRE(!speeds.empty(), "at least one worker required");

  const long long blocks_per_side = n / block_dim;
  const long long num_blocks = blocks_per_side * blocks_per_side;
  const std::size_t p = speeds.size();

  // Demand-driven assignment: identical blocks, per-block time ∝ 1/speed.
  std::vector<double> tau(p);
  const double block_area =
      static_cast<double>(block_dim) * static_cast<double>(block_dim);
  for (std::size_t i = 0; i < p; ++i) {
    NLDL_REQUIRE(speeds[i] > 0.0, "speeds must be positive");
    tau[i] = block_area / speeds[i];
  }
  const std::vector<long long> counts =
      partition::demand_driven_counts(tau, num_blocks);

  // Map block index ranges to workers: worker w takes the next counts[w]
  // blocks in row-major block order (the specific mapping does not affect
  // volume accounting — every block ships its own inputs).
  std::vector<std::size_t> owner(static_cast<std::size_t>(num_blocks));
  {
    std::size_t cursor = 0;
    for (std::size_t w = 0; w < p; ++w) {
      for (long long c = 0; c < counts[w]; ++c) {
        owner[cursor++] = w;
      }
    }
    NLDL_ASSERT(cursor == owner.size(), "block ownership mismatch");
  }

  DistributedOuterProduct out;
  out.result = Matrix(a.size(), b.size());
  out.elements_per_worker.assign(p, 0);
  out.compute_time.assign(p, 0.0);

  auto compute_block = [&](std::size_t block) {
    const long long bi = static_cast<long long>(block) / blocks_per_side;
    const long long bj = static_cast<long long>(block) % blocks_per_side;
    for (long long i = bi * block_dim; i < (bi + 1) * block_dim; ++i) {
      const double ai = a[static_cast<std::size_t>(i)];
      for (long long j = bj * block_dim; j < (bj + 1) * block_dim; ++j) {
        out.result(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
            ai * b[static_cast<std::size_t>(j)];
      }
    }
  };

  // One task per row of blocks.
  util::parallel_for(pool, 0, owner.size(),
                     static_cast<std::size_t>(blocks_per_side), compute_block);

  for (std::size_t block = 0; block < owner.size(); ++block) {
    out.elements_per_worker[owner[block]] += 2 * block_dim;
  }
  for (std::size_t w = 0; w < p; ++w) {
    out.total_elements += out.elements_per_worker[w];
    out.compute_time[w] = static_cast<double>(counts[w]) * tau[w];
  }
  out.imbalance = imbalance_of(out.compute_time);
  return out;
}

}  // namespace nldl::linalg
