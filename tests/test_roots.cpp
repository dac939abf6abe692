// Unit and property tests for the scalar root-finders.
#include "util/roots.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "util/rng.hpp"

namespace nldl::util {
namespace {

TEST(Bisect, FindsSqrtTwo) {
  auto f = [](double x) { return x * x - 2.0; };
  const auto result = bisect(f, 0.0, 2.0, f(0.0), f(2.0));
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, ExactRootAtBoundary) {
  auto f = [](double x) { return x * (x - 1.0); };
  const auto at_lo = bisect(f, 0.0, 0.5, f(0.0), f(0.5));
  EXPECT_TRUE(at_lo.converged);
  EXPECT_EQ(at_lo.x, 0.0);
  EXPECT_EQ(at_lo.iterations, 0);
  const auto at_hi = bisect(f, 0.5, 1.0, f(0.5), f(1.0));
  EXPECT_TRUE(at_hi.converged);
  EXPECT_EQ(at_hi.x, 1.0);
  EXPECT_EQ(at_hi.iterations, 0);
}

TEST(Bisect, RequiresSignChange) {
  auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW((void)bisect(f, -1.0, 1.0, f(-1.0), f(1.0)),
               PreconditionError);
  EXPECT_THROW((void)bisect(f, 1.0, 0.0, -1.0, 1.0), PreconditionError);
}

TEST(Bisect, NeverEvaluatesTheEndpoints) {
  // The endpoint values come from the caller; f is only asked about
  // interior points.
  int endpoint_calls = 0;
  auto f = [&](double x) {
    if (!(x > 0.0 && x < 4.0)) ++endpoint_calls;
    return x - 3.0;
  };
  const auto result = bisect(f, 0.0, 4.0, -3.0, 1.0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x, 3.0, 1e-9);
  EXPECT_EQ(endpoint_calls, 0);
}

TEST(Bisect, DecreasingFunction) {
  auto f = [](double x) { return 1.0 - x * x * x; };
  const auto result = bisect(f, 0.0, 4.0, f(0.0), f(4.0));
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x, 1.0, 1e-9);
}

TEST(NewtonSafeguarded, QuadraticConvergesFast) {
  int evals = 0;
  auto f = [&](double x) {
    ++evals;
    return x * x - 2.0;
  };
  auto df = [](double x) { return 2.0 * x; };
  const auto result = newton_safeguarded(f, df, 0.0, 2.0, f(0.0), f(2.0));
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x, std::sqrt(2.0), 1e-12);
  EXPECT_LT(result.iterations, 12);
}

TEST(NewtonSafeguarded, SurvivesZeroDerivative) {
  // f(x) = x³ has f'(0) = 0; safeguard must fall back to bisection.
  auto f = [](double x) { return x * x * x; };
  auto df = [](double x) { return 3.0 * x * x; };
  const auto result = newton_safeguarded(f, df, -1.0, 2.0, f(-1.0), f(2.0));
  EXPECT_TRUE(result.converged);
  // The cubic is flat at its root, so |f| <= f_tol is reached while x is
  // still ~1e-4 away; that is the documented convergence criterion.
  EXPECT_NEAR(result.x, 0.0, 1e-4);
}

TEST(NewtonSafeguarded, ReturnsBracketEndThatIsARoot) {
  auto f = [](double x) { return x * (x - 1.0); };
  auto df = [](double x) { return 2.0 * x - 1.0; };
  for (const auto& [lo, hi] : {std::pair{0.0, 0.5}, std::pair{0.5, 1.0}}) {
    const auto result = newton_safeguarded(f, df, lo, hi, f(lo), f(hi));
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.x, f(lo) == 0.0 ? lo : hi);
    EXPECT_EQ(result.iterations, 0);
  }
  EXPECT_THROW((void)newton_safeguarded(f, df, 0.2, 0.8, f(0.2), f(0.8)),
               PreconditionError);
  EXPECT_THROW((void)newton_safeguarded(f, df, 1.0, 0.0, f(1.0), f(0.0)),
               PreconditionError);
}

TEST(NewtonSafeguarded, StaysInsideBracket) {
  // Steep function whose Newton step overshoots from most points.
  auto f = [](double x) { return std::tanh(20.0 * (x - 0.7)); };
  auto df = [](double x) {
    const double t = std::tanh(20.0 * (x - 0.7));
    return 20.0 * (1.0 - t * t);
  };
  const auto result = newton_safeguarded(f, df, 0.0, 1.0, f(0.0), f(1.0));
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x, 0.7, 1e-8);
}

// Property sweep: both solvers find the root of c·x + w·x^a − T (the
// nonlinear DLT chunk equation) across random parameters.
class ChunkEquationProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChunkEquationProperty, BothSolversAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int rep = 0; rep < 50; ++rep) {
    const double c = rng.uniform(0.01, 10.0);
    const double w = rng.uniform(0.01, 10.0);
    const double a = rng.uniform(1.0, 4.0);
    const double t = rng.uniform(0.1, 1000.0);
    auto f = [&](double x) { return c * x + w * std::pow(x, a) - t; };
    auto df = [&](double x) {
      return c + w * a * std::pow(x, a - 1.0);
    };
    double hi = std::min(t / c, std::pow(t / w, 1.0 / a));
    while (f(hi) < 0.0) hi *= 2.0;
    const auto by_bisect = bisect(f, 0.0, hi, f(0.0), f(hi));
    const auto by_newton = newton_safeguarded(f, df, 0.0, hi, f(0.0), f(hi));
    ASSERT_TRUE(by_bisect.converged);
    ASSERT_TRUE(by_newton.converged);
    EXPECT_NEAR(by_bisect.x, by_newton.x,
                1e-7 * std::max(1.0, by_bisect.x));
    EXPECT_NEAR(f(by_newton.x), 0.0, 1e-6 * std::max(1.0, t));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ChunkEquationProperty,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace nldl::util
