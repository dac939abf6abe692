#include "linalg/matrix.hpp"

#include <cmath>

namespace nldl::linalg {

Matrix Matrix::random(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (double& value : m.data_) value = rng.uniform(-1.0, 1.0);
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  NLDL_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "max_abs_diff requires equal shapes");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

double Matrix::frobenius_norm() const {
  double sum = 0.0;
  for (const double value : data_) sum += value * value;
  return std::sqrt(sum);
}

Matrix multiply_naive(const Matrix& a, const Matrix& b) {
  NLDL_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

}  // namespace nldl::linalg
