// Deterministic parallel parameter sweeps.
//
// Every experiment family in this repo — the Figure 4 trials, the Section 2
// capacity sweep, the ablations, the extension benches — is a parameter
// grid evaluated point by point. This header extracts the pattern that
// core::run_fig4 hand-rolled into a reusable framework:
//
//   1. declare the grid (named axes, cartesian product, row-major order);
//   2. the sweep pre-splits one RNG sub-stream per grid point, in flat
//      index order, exactly as a serial loop would consume them;
//   3. points dispatch onto a util::ThreadPool (any width, including the
//      serial width 1) in contiguous chunks;
//   4. results land in a vector indexed by flat grid index, so any
//      reduction performed over that vector in index order is strictly
//      ordered.
//
// Steps 2–4 make the output bit-identical for every thread count: no trial
// ever observes another trial's RNG, and no accumulator ever sees results
// out of order. bench::Harness builds the runtime serial-vs-parallel
// self-check and the BENCH_*.json emission on top.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace nldl::util {

/// Declarative parameter grid: the cartesian product of named axes, laid
/// out row-major (the first axis declared varies slowest). Axis values are
/// doubles; categorical axes (speed models, platforms, kernels) are
/// declared by count and read back as indices.
class Grid {
 public:
  /// Append a named axis with explicit coordinate values.
  Grid& axis(std::string name, std::vector<double> values);

  /// Append a categorical axis: `count` positions 0, 1, ..., count-1.
  Grid& axis(std::string name, std::size_t count);

  [[nodiscard]] std::size_t axes() const noexcept { return axes_.size(); }

  /// Total number of grid points (product of axis sizes; 1 for an empty
  /// grid — the single point with no coordinates).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Coordinate of flat point `index` along the named axis.
  [[nodiscard]] double value(std::size_t index, const std::string& axis) const;

  /// Coordinate as a container index (for categorical axes). The value
  /// must be an exact non-negative integer.
  [[nodiscard]] std::size_t index_of(std::size_t index,
                                     const std::string& axis) const;

 private:
  struct Axis {
    std::string name;
    std::vector<double> values;
  };

  std::vector<Axis> axes_;
};

/// One point of a running sweep, handed to the point function.
class SweepPoint {
 public:
  SweepPoint(const Grid& grid, std::size_t index)
      : grid_(&grid), index_(index) {}

  /// Flat index in [0, grid.size()).
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

  [[nodiscard]] double value(const std::string& axis) const {
    return grid_->value(index_, axis);
  }
  [[nodiscard]] std::size_t index_of(const std::string& axis) const {
    return grid_->index_of(index_, axis);
  }

 private:
  const Grid* grid_;
  std::size_t index_;
};

struct SweepOptions {
  /// Worker threads: 1 = serial on the calling thread, 0 = one per
  /// hardware thread. The results are the same bit for bit regardless.
  std::size_t threads = 1;
  /// Master seed; each grid point receives its own sub-stream split from
  /// it (jump-ahead by 2^128 per point, so streams never overlap).
  std::uint64_t seed = Rng::kDefaultSeed;
};

/// Resolve a thread-count knob: 0 means one thread per hardware thread,
/// clamped to at least 1.
[[nodiscard]] std::size_t resolve_threads(std::size_t threads) noexcept;

/// A deterministic parallel sweep over a Grid.
class Sweep {
 public:
  explicit Sweep(Grid grid, SweepOptions options = {})
      : grid_(std::move(grid)), options_(options) {}

  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] const SweepOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return grid_.size(); }

  /// Evaluate fn(point, rng) at every grid point — in any order, possibly
  /// concurrently — and return the results in flat-index order. Result
  /// must be default-constructible. Exceptions from any point propagate
  /// after every dispatched point has finished.
  template <typename Result>
  [[nodiscard]] std::vector<Result> map(
      const std::function<Result(const SweepPoint&, Rng&)>& fn) const {
    const std::size_t total = grid_.size();

    // Pre-split one sub-stream per point, in flat order — the exact
    // sequence a serial sweep would consume. This is the whole trick:
    // sampling is decoupled from scheduling.
    Rng master(options_.seed);
    std::vector<Rng> streams;
    streams.reserve(total);
    for (std::size_t i = 0; i < total; ++i) streams.push_back(master.split());

    std::vector<Result> results(total);
    const auto run_one = [&](std::size_t index) {
      const SweepPoint point(grid_, index);
      results[index] = fn(point, streams[index]);
    };

    const std::size_t threads =
        std::min(resolve_threads(options_.threads), total);
    if (threads <= 1 || total <= 1) {
      for (std::size_t i = 0; i < total; ++i) run_one(i);
    } else {
      ThreadPool pool(threads);
      parallel_for(&pool, 0, total, 1, run_one);
    }
    return results;
  }

  /// map() followed by a strictly ordered reduction: fold(acc, result,
  /// point) is called for every point in ascending flat index, whatever
  /// the thread count — so order-sensitive accumulators (Welford stats,
  /// streaming min/max) stay bit-identical to a serial sweep.
  template <typename Result, typename Acc>
  [[nodiscard]] Acc run(
      const std::function<Result(const SweepPoint&, Rng&)>& fn, Acc acc,
      const std::function<void(Acc&, const Result&, const SweepPoint&)>&
          fold) const {
    const std::vector<Result> results = map<Result>(fn);
    for (std::size_t i = 0; i < results.size(); ++i) {
      fold(acc, results[i], SweepPoint(grid_, i));
    }
    return acc;
  }

 private:
  Grid grid_;
  SweepOptions options_;
};

}  // namespace nldl::util
