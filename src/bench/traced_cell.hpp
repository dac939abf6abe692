// The traced-cell report shared by the serving drivers (bench_online,
// bench_contention, bench_qos, bench_soak).
//
// Each of those drivers re-runs one headline cell with an
// obs::TraceRecorder and an obs::MetricsRegistry attached and proves the
// traced run emits the same point text as its untraced twin. The
// recording then comes here: every job's blame components must sum to its
// latency bit for bit, --blame prints the blame table, --trace=FILE
// exports the Chrome timeline with the critical-path overlay,
// --metrics=FILE dumps the registry, and the time-attribution table
// closes the report.
#pragma once

#include <cstddef>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

namespace nldl::bench {

/// The traced-cell flags: --trace=FILE, --metrics=FILE and --blame.
struct TracedCellFlags {
  std::string trace_path;
  std::string metrics_path;
  bool blame = false;

  /// Any of the flags is set, so the driver runs its traced cell.
  [[nodiscard]] bool any() const noexcept {
    return !trace_path.empty() || !metrics_path.empty() || blame;
  }
};

[[nodiscard]] TracedCellFlags traced_cell_flags(const util::Args& args);

/// Report on the traced cell `label` over `workers` worker tracks, in the
/// order of the file comment. Returns false when some job's blame does not
/// sum to its latency or a requested file could not be written (each is
/// also named on stderr); drivers fold the result into their exit code.
[[nodiscard]] bool report_traced_cell(const TracedCellFlags& flags,
                                      const std::string& label,
                                      std::size_t workers,
                                      const obs::TraceRecorder& recorder,
                                      const obs::MetricsRegistry& registry);

}  // namespace nldl::bench
