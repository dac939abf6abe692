#include "core/no_free_lunch.hpp"

#include "dlt/analysis.hpp"
#include "dlt/nonlinear_dlt.hpp"
#include "util/assert.hpp"

namespace nldl::core {

NflPoint remaining_fraction_on(const platform::Platform& platform,
                               double alpha, double total_load) {
  NflPoint point;
  point.p = platform.size();
  point.alpha = alpha;
  point.closed_form = dlt::remaining_fraction_homogeneous(platform.size(),
                                                          alpha);
  point.simulated_parallel =
      dlt::nonlinear_parallel_single_round(platform, total_load, alpha)
          .remaining_fraction;
  point.simulated_one_port =
      dlt::nonlinear_one_port_single_round(platform, total_load, alpha)
          .remaining_fraction;
  return point;
}

std::vector<NflPoint> remaining_fraction_sweep(
    const std::vector<std::size_t>& worker_counts, double alpha,
    double total_load) {
  NLDL_REQUIRE(!worker_counts.empty(), "need at least one p value");
  std::vector<NflPoint> points;
  points.reserve(worker_counts.size());
  for (const std::size_t p : worker_counts) {
    points.push_back(remaining_fraction_on(
        platform::Platform::homogeneous(p), alpha, total_load));
  }
  return points;
}

std::vector<SortingPoint> sorting_fraction_sweep(
    const std::vector<double>& ns, const std::vector<std::size_t>& ps) {
  NLDL_REQUIRE(!ns.empty() && !ps.empty(), "need at least one sweep point");
  std::vector<SortingPoint> points;
  points.reserve(ns.size() * ps.size());
  for (const double n : ns) {
    for (const std::size_t p : ps) {
      SortingPoint point;
      point.n = n;
      point.p = p;
      point.fraction = dlt::sorting_remaining_fraction(n, p);
      point.step1 = dlt::sample_sort_step1_cost(n, p);
      point.step2 = dlt::sample_sort_step2_cost(n, p);
      point.step3 = dlt::sample_sort_step3_cost(n, p);
      point.preprocessing_ratio =
          (point.step1 + point.step2) /
          (static_cast<double>(p) * point.step3);
      points.push_back(point);
    }
  }
  return points;
}

util::Table nfl_table(const std::vector<NflPoint>& points) {
  util::Table table({"p", "alpha", "1-1/p^(a-1)", "parallel-links",
                     "one-port"});
  for (const NflPoint& point : points) {
    table.row()
        .cell(point.p)
        .cell(point.alpha, 2)
        .cell(point.closed_form, 6)
        .cell(point.simulated_parallel, 6)
        .cell(point.simulated_one_port, 6)
        .done();
  }
  return table;
}

util::Table sorting_table(const std::vector<SortingPoint>& points) {
  util::Table table({"N", "p", "log p/log N", "step1", "step2", "step3",
                     "preproc/parallel"});
  for (const SortingPoint& point : points) {
    table.row()
        .cell(point.n, 0)
        .cell(point.p)
        .cell(point.fraction, 5)
        .cell(point.step1, 0)
        .cell(point.step2, 0)
        .cell(point.step3, 0)
        .cell(point.preprocessing_ratio, 5)
        .done();
  }
  return table;
}

}  // namespace nldl::core
