// Scalar root-finding for the nonlinear DLT allocators.
//
// The paper's nonlinear allocation equations (w·X^α terms) have no closed
// form on heterogeneous platforms, and the reproduction guidance notes that
// external solver libraries are inconvenient here — so nldl ships its own
// robust scalar solver: a Newton iteration safeguarded by a bracketing
// interval.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/assert.hpp"

namespace nldl::util {

/// Result of a root search.
struct RootResult {
  double x = 0.0;        ///< approximate root
  int iterations = 0;    ///< iterations consumed
  bool converged = false;
};

struct RootOptions {
  double x_tol = 1e-12;   ///< absolute tolerance on the bracket width
  double f_tol = 1e-13;   ///< absolute tolerance on |f(x)|
};

/// Newton's method safeguarded by a bisection bracket: whenever the Newton
/// step leaves [lo, hi] (or the derivative vanishes), fall back to bisection.
/// Keeps Newton's quadratic convergence near the root with bisection's
/// global robustness.
///
/// The caller passes the endpoint values flo = f(lo) and fhi = f(hi), which
/// must have opposite signs (or one of them must be an exact root): a
/// caller that grew its bracket by evaluating f, or knows f in closed form
/// at an end, already has them. f is never evaluated at lo or hi here.
///
/// Call contract: df(x) is called only right after an f(x) at the same x
/// that did not converge, and f is not called in between. A derivative may
/// therefore read state that f(x) left behind (the nonlinear solvers read
/// the chunks f just filled) instead of recomputing it. Likewise a converged
/// result's x, unless it is an endpoint returned because flo or fhi is 0,
/// is the x of the last f call, so that state describes the root. After
/// 200 steps it gives up and returns the current x unconverged.
template <typename F, typename DF>
RootResult newton_safeguarded(F&& f, DF&& df, double lo, double hi,
                              double flo, double fhi, RootOptions opts = {}) {
  NLDL_REQUIRE(lo <= hi, "newton_safeguarded requires lo <= hi");
  if (flo == 0.0) return {lo, 0, true};
  if (fhi == 0.0) return {hi, 0, true};
  NLDL_REQUIRE(std::signbit(flo) != std::signbit(fhi),
               "newton_safeguarded requires a sign change over [lo, hi]");
  double x = 0.5 * (lo + hi);
  constexpr int kMaxIterations = 200;
  RootResult result;
  for (result.iterations = 0; result.iterations < kMaxIterations;
       ++result.iterations) {
    const double fx = f(x);
    if (std::abs(fx) <= opts.f_tol || (hi - lo) <= opts.x_tol) {
      result.x = x;
      result.converged = true;
      return result;
    }
    // Shrink the bracket around the root.
    if (std::signbit(fx) == std::signbit(flo)) {
      lo = x;
      flo = fx;
    } else {
      hi = x;
    }
    const double dfx = df(x);
    double next = (dfx != 0.0) ? x - fx / dfx : lo - 1.0;  // force fallback
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    x = next;
  }
  result.x = x;
  result.converged = false;
  return result;
}

}  // namespace nldl::util
