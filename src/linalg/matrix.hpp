// Dense row-major matrix — the minimal substrate the paper's Section 4
// workloads (outer product, matrix multiplication) compute on.
#pragma once

#include <cstddef>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::linalg {

class Matrix {
 public:
  Matrix() = default;

  /// rows × cols zeros.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Matrix with i.i.d. uniform entries in [-1, 1).
  static Matrix random(std::size_t rows, std::size_t cols, util::Rng& rng);

  /// Identity (square).
  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    NLDL_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    NLDL_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const std::vector<double>& data() const noexcept {
    return data_;
  }
  [[nodiscard]] std::vector<double>& data() noexcept { return data_; }

  /// Largest absolute elementwise difference. Shapes must match.
  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

  /// True if every element differs by at most `tol`.
  [[nodiscard]] bool approx_equal(const Matrix& other, double tol) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           max_abs_diff(other) <= tol;
  }

  [[nodiscard]] double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Reference O(n³) product (i-k-j loop order for row-major locality).
[[nodiscard]] Matrix multiply_naive(const Matrix& a, const Matrix& b);

}  // namespace nldl::linalg
