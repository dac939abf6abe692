// Extension bench — 2.5D matrix multiplication communication model
// (Solomonik & Demmel, the paper's ref [42] and the "notable exception"
// of Section 4.2).
//
// Shows, for N = 8192: per-processor words moved vs replication factor c,
// against the Irony–Toledo–Tiskin bandwidth lower bound, and the memory
// price paid — contextualizing the paper's 2-D (c = 1) numbers. The
// (base grid × c) sweep runs through util::Sweep under bench::Harness.
#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "linalg/matmul_25d.hpp"
#include "util/cli.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

const std::vector<double> kBases{16, 64};
const std::vector<double> kReplicas{1, 2, 4};

struct Row25D {
  bool valid = false;
  std::size_t p = 0;
  std::size_t c = 0;
  double words = 0.0;
  double bound = 0.0;
  double memory = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const double n = args.get_double("n", 8192.0);

  bench::Harness harness("ext_matmul25d",
                         bench::harness_options_from_args(args));
  harness.config("n", n);

  std::printf("=== Extension: 2.5D matmul communication model (ref [42]) "
              "===\n");
  std::printf("N = %.0f; grid sqrt(p/c) x sqrt(p/c) x c\n\n", n);

  const auto rows = harness.run<std::vector<Row25D>>(
      [&](std::size_t threads) {
        util::Grid grid;
        grid.axis("base", kBases).axis("c", kReplicas);
        util::SweepOptions options;
        options.threads = threads;
        return util::Sweep(std::move(grid), options).map<Row25D>(
            [n](const util::SweepPoint& point, util::Rng&) {
              const auto base =
                  static_cast<std::size_t>(point.value("base"));
              const auto c = static_cast<std::size_t>(point.value("c"));
              Row25D row;
              row.p = base * c;
              row.c = c;
              if (!linalg::valid_25d_grid(row.p, c)) return row;
              row.valid = true;
              const linalg::Matmul25DParams params{row.p, c};
              row.words = linalg::matmul_25d_words_per_proc(n, params);
              row.memory = linalg::matmul_25d_memory_per_proc(n, params);
              row.bound =
                  linalg::matmul_bandwidth_lower_bound(n, row.p,
                                                       row.memory);
              return row;
            });
      },
      [](const std::vector<Row25D>& result, util::JsonWriter& json) {
        for (const Row25D& row : result) {
          if (!row.valid) continue;
          json.begin_object();
          json.key("p").value(row.p);
          json.key("c").value(row.c);
          json.key("words_per_proc").value(row.words);
          json.key("itt_lower_bound").value(row.bound);
          json.key("memory_per_proc").value(row.memory);
          json.end_object();
        }
      });

  util::Table table({"p", "c", "words/proc", "vs c=1", "ITT lower bound",
                     "words/bound", "memory/proc (xN^2/p)"});
  for (std::size_t bi = 0; bi < kBases.size(); ++bi) {
    double c1_words = 0.0;
    for (std::size_t ci = 0; ci < kReplicas.size(); ++ci) {
      const Row25D& row = rows[bi * kReplicas.size() + ci];
      if (!row.valid) continue;
      if (row.c == 1) c1_words = row.words;
      table.row()
          .cell(row.p)
          .cell(row.c)
          .cell(row.words, 0)
          .cell(row.c == 1 ? 1.0 : row.words / c1_words, 3)
          .cell(row.bound, 0)
          .cell(row.words / row.bound, 2)
          .cell(row.memory / (n * n / double(row.p)), 1)
          .done();
    }
  }
  table.print(std::cout);
  std::printf("\n(c replicas cut the broadcast volume ~1/sqrt(c) at c x "
              "the memory — why the paper calls\n 2.5D the notable "
              "exception to outer-product-based implementations)\n");

  return harness.finish();
}
