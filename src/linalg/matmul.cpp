#include "linalg/matmul.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nldl::linalg {

Matrix multiply_blocked(const Matrix& a, const Matrix& b, std::size_t block) {
  NLDL_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  NLDL_REQUIRE(block >= 1, "block size must be >= 1");
  Matrix c(a.rows(), b.cols());
  for (std::size_t ii = 0; ii < a.rows(); ii += block) {
    const std::size_t i_end = std::min(ii + block, a.rows());
    for (std::size_t kk = 0; kk < a.cols(); kk += block) {
      const std::size_t k_end = std::min(kk + block, a.cols());
      for (std::size_t jj = 0; jj < b.cols(); jj += block) {
        const std::size_t j_end = std::min(jj + block, b.cols());
        for (std::size_t i = ii; i < i_end; ++i) {
          for (std::size_t k = kk; k < k_end; ++k) {
            const double aik = a(i, k);
            for (std::size_t j = jj; j < j_end; ++j) {
              c(i, j) += aik * b(k, j);
            }
          }
        }
      }
    }
  }
  return c;
}

DistributedMatmul matmul_outer_product(const Matrix& a, const Matrix& b,
                                       const partition::GridLayout& layout,
                                       const std::vector<double>& speeds,
                                       std::size_t panel,
                                       util::ThreadPool* pool) {
  const std::size_t n = a.rows();
  NLDL_REQUIRE(a.cols() == n && b.rows() == n && b.cols() == n,
               "matmul_outer_product requires square N×N inputs");
  NLDL_REQUIRE(static_cast<long long>(n) == layout.n,
               "layout grid must match the matrix dimension");
  NLDL_REQUIRE(speeds.size() == layout.rects.size(),
               "one speed per layout rectangle required");
  NLDL_REQUIRE(panel >= 1, "panel width must be >= 1");

  DistributedMatmul out;
  out.result = Matrix(n, n);
  const std::size_t p = layout.rects.size();
  out.elements_per_worker.assign(p, 0);
  out.compute_time.assign(p, 0.0);
  out.steps = (n + panel - 1) / panel;

  // Worker task: accumulate its C rectangle over all k panels. The panel
  // loop is inside the worker to mirror the broadcast structure; since
  // each worker touches a disjoint C rectangle, workers run in parallel.
  auto compute_rect = [&](std::size_t worker) {
    const partition::IRect& rect = layout.rects[worker];
    if (rect.area() == 0) return;
    for (std::size_t k0 = 0; k0 < n; k0 += panel) {
      const std::size_t k1 = std::min(k0 + panel, n);
      for (long long i = rect.y; i < rect.y + rect.height; ++i) {
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = a(static_cast<std::size_t>(i), k);
          for (long long j = rect.x; j < rect.x + rect.width; ++j) {
            out.result(static_cast<std::size_t>(i),
                       static_cast<std::size_t>(j)) +=
                aik * b(k, static_cast<std::size_t>(j));
          }
        }
      }
    }
  };

  util::parallel_for(pool, 0, p, 1, compute_rect);

  for (std::size_t worker = 0; worker < p; ++worker) {
    const partition::IRect& rect = layout.rects[worker];
    if (rect.area() > 0) {
      // Per step k: height elements of A's column + width of B's row.
      out.elements_per_worker[worker] =
          static_cast<long long>(n) * rect.half_perimeter();
    }
    out.total_elements += out.elements_per_worker[worker];
    NLDL_REQUIRE(speeds[worker] > 0.0, "speeds must be positive");
    out.compute_time[worker] = 2.0 * static_cast<double>(rect.area()) *
                               static_cast<double>(n) / speeds[worker];
  }

  // Shared definition: e over the workers with a non-empty rectangle.
  out.imbalance = util::imbalance_over_busy(out.compute_time);
  return out;
}

long long matmul_comm_volume(const partition::GridLayout& layout) {
  long long total = 0;
  for (const partition::IRect& rect : layout.rects) {
    if (rect.area() > 0) {
      total += layout.n * rect.half_perimeter();
    }
  }
  return total;
}

}  // namespace nldl::linalg
