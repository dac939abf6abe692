// Unit tests for the dense matrix substrate.
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace nldl::linalg {
namespace {

TEST(Matrix, ConstructionZeroFills) {
  const Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), 3U);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(m(i, j), 0.0);
    }
  }
}

TEST(Matrix, RowMajorIndexing) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_EQ(m.data(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, RandomInRange) {
  util::Rng rng(1);
  const Matrix m = Matrix::random(10, 10, rng);
  for (const double v : m.data()) {
    ASSERT_GE(v, -1.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Matrix, MaxAbsDiffAndApproxEqual) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  b(1, 1) = 0.5;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.5);
  EXPECT_TRUE(a.approx_equal(b, 0.5));
  EXPECT_FALSE(a.approx_equal(b, 0.4));
}

TEST(Matrix, MaxAbsDiffRejectsShapeMismatch) {
  const Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW((void)a.max_abs_diff(b), util::PreconditionError);
  EXPECT_FALSE(a.approx_equal(b, 1.0));
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0;
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(MultiplyNaive, IdentityIsNeutral) {
  util::Rng rng(2);
  const Matrix a = Matrix::random(5, 5, rng);
  const Matrix eye = Matrix::identity(5);
  EXPECT_TRUE(multiply_naive(a, eye).approx_equal(a, 1e-12));
  EXPECT_TRUE(multiply_naive(eye, a).approx_equal(a, 1e-12));
}

TEST(MultiplyNaive, KnownProduct) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 3.0; a(1, 1) = 4.0;
  Matrix b(2, 2);
  b(0, 0) = 5.0; b(0, 1) = 6.0;
  b(1, 0) = 7.0; b(1, 1) = 8.0;
  const Matrix c = multiply_naive(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MultiplyNaive, RectangularShapes) {
  util::Rng rng(3);
  const Matrix a = Matrix::random(3, 7, rng);
  const Matrix b = Matrix::random(7, 2, rng);
  const Matrix c = multiply_naive(a, b);
  EXPECT_EQ(c.rows(), 3U);
  EXPECT_EQ(c.cols(), 2U);
}

TEST(MultiplyNaive, RejectsDimensionMismatch) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW((void)multiply_naive(a, b), util::PreconditionError);
}

}  // namespace
}  // namespace nldl::linalg
