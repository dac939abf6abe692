// Unit and property tests for the safeguarded Newton root-finder.
#include "util/roots.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace nldl::util {
namespace {

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

TEST(NewtonSafeguarded, NeverEvaluatesTheEndpoints) {
  // The endpoint values come from the caller; f is only asked about
  // interior points.
  int endpoint_calls = 0;
  auto f = [&](double x) {
    if (!(x > 0.0 && x < 4.0)) ++endpoint_calls;
    return x - 3.0;
  };
  auto df = [](double) { return 1.0; };
  const auto result = newton_safeguarded(f, df, 0.0, 4.0, -3.0, 1.0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x, 3.0, 1e-9);
  EXPECT_EQ(endpoint_calls, 0);
}

TEST(NewtonSafeguarded, DecreasingFunction) {
  auto f = [](double x) { return 1.0 - x * x * x; };
  auto df = [](double x) { return -3.0 * x * x; };
  const auto result = newton_safeguarded(f, df, 0.0, 4.0, f(0.0), f(4.0));
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x, 1.0, 1e-9);
}

// The documented call contract: df(x) comes only right after an f(x) at
// the same x that did not converge, and a converged x is the last f call's.
// The nonlinear solvers' outer derivative reads the chunks f just filled on
// the strength of it.
TEST(NewtonSafeguarded, DerivativeFollowsAnUnconvergedEvaluationAtTheSameX) {
  struct Call {
    bool derivative = false;
    double x = 0.0;
  };
  const auto check = [](auto f_of, auto df_of, double lo, double hi) {
    std::vector<Call> calls;
    auto f = [&](double x) {
      calls.push_back({false, x});
      return f_of(x);
    };
    auto df = [&](double x) {
      calls.push_back({true, x});
      return df_of(x);
    };
    const auto result =
        newton_safeguarded(f, df, lo, hi, f_of(lo), f_of(hi));
    ASSERT_TRUE(result.converged);
    // f, df, f, df, ..., f: one f per iteration plus the converging one.
    ASSERT_EQ(calls.size(),
              2 * static_cast<std::size_t>(result.iterations) + 1);
    for (std::size_t k = 0; k < calls.size(); ++k) {
      EXPECT_EQ(calls[k].derivative, k % 2 == 1) << "call " << k;
      if (calls[k].derivative) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(calls[k].x),
                  std::bit_cast<std::uint64_t>(calls[k - 1].x))
            << "call " << k;
      }
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(calls.back().x),
              std::bit_cast<std::uint64_t>(result.x));
  };
  // Pure Newton steps, bisection fallbacks (overshoot, zero derivative) and
  // the nonlinear chunk equation.
  check([](double x) { return x * x - 2.0; },
        [](double x) { return 2.0 * x; }, 0.0, 2.0);
  check([](double x) { return std::tanh(20.0 * (x - 0.7)); },
        [](double x) {
          const double t = std::tanh(20.0 * (x - 0.7));
          return 20.0 * (1.0 - t * t);
        },
        0.0, 1.0);
  check([](double x) { return x * x * x; },
        [](double x) { return 3.0 * x * x; }, -1.0, 2.0);
  check([](double x) { return 0.5 * x + 2.0 * std::pow(x, 2.5) - 40.0; },
        [](double x) { return 0.5 + 5.0 * std::pow(x, 1.5); }, 0.0, 80.0);
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

// Property sweep: Newton finds the root of c·x + w·x^a − T (the nonlinear
// DLT chunk equation) across random parameters; f changes sign within 1e-7
// relative of it.
class ChunkEquationProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChunkEquationProperty, NewtonFindsTheRoot) {
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
    const auto by_newton = newton_safeguarded(f, df, 0.0, hi, f(0.0), f(hi));
    ASSERT_TRUE(by_newton.converged);
    const double margin = 1e-7 * std::max(1.0, by_newton.x);
    EXPECT_LT(f(by_newton.x - margin), 0.0);
    EXPECT_GT(f(by_newton.x + margin), 0.0);
    EXPECT_NEAR(f(by_newton.x), 0.0, 1e-6 * std::max(1.0, t));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ChunkEquationProperty,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace nldl::util
