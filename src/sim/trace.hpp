// ASCII Gantt rendering of simulated timelines, for the example programs
// and the observability layer's attribution summaries.
//
// The renderer is built on the obs::TraceEvent stream (obs/trace.hpp):
// any traced run — a single-job private replay, a shared-master busy
// period with many concurrent jobs, a whole qos run — renders with the
// same code path. The historical (platform, SimResult) overload is kept
// as an adapter that synthesizes unattributed events from the result's
// chunk spans.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace nldl::sim {

/// Render a per-worker timeline from a trace event stream: one row per
/// worker, `width` character columns spanning [0, horizon], where the
/// horizon is the latest event end. Cells show 'A' + job % 26 while
/// computing for that job ('#' when the compute span carries no job
/// attribution, '*' when installments of DIFFERENT jobs share the cell),
/// '-' while receiving only, '=' while receiving and computing, '.'
/// idle. When the stream holds dispatch instants (shared-master runs), a
/// release-marker header row puts a 'v' at every dispatch barrier.
/// `workers` = 0 infers the worker count from the events. Painting
/// aggregates per column, so a soak-scale stream renders at any width.
[[nodiscard]] std::string ascii_gantt(
    const std::vector<obs::TraceEvent>& events, std::size_t workers = 0,
    std::size_t width = 72);

/// Render a per-worker timeline of one simulation result: '-' while
/// receiving, '#' while computing, '=' while doing both (pipelined
/// multi-round), '.' idle. One row per worker, `width` character columns
/// spanning [0, makespan]. Adapter over the event-stream renderer.
[[nodiscard]] std::string ascii_gantt(const platform::Platform& platform,
                                      const SimResult& result,
                                      std::size_t width = 72);

}  // namespace nldl::sim
