#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "util/assert.hpp"

namespace nldl::sim {

namespace {

/// One character column of one worker row.
struct Cell {
  unsigned bits = 0;  ///< 1 = receiving, 2 = computing
  std::size_t job = obs::kNoIndex;  ///< compute owner (kNoIndex = none)
  bool mixed = false;  ///< distinct jobs computed in this cell
};

char glyph(const Cell& cell) {
  switch (cell.bits & 3U) {
    case 0U:
      return '.';
    case 1U:
      return '-';
    case 3U:
      return '=';
    default:
      break;
  }
  if (cell.mixed) return '*';
  if (cell.job == obs::kNoIndex) return '#';
  return static_cast<char>('A' + static_cast<char>(cell.job % 26));
}

/// Shared renderer: `labels` must hold one equal-length row label per
/// worker; the dispatch-marker header appears only when the stream holds
/// dispatch instants.
std::string render(const std::vector<obs::TraceEvent>& events,
                   std::size_t workers, std::size_t width,
                   const std::vector<std::string>& labels, double horizon) {
  NLDL_REQUIRE(width >= 8, "gantt width too small");
  NLDL_REQUIRE(workers >= 1 && labels.size() == workers,
               "gantt needs one label per worker");
  horizon = std::max(horizon, 1e-300);

  const auto column = [&](double t) {
    const auto cell = static_cast<std::size_t>(
        std::max(t, 0.0) / horizon * static_cast<double>(width));
    return std::min(cell, width - 1);
  };

  std::vector<std::vector<Cell>> cells(workers, std::vector<Cell>(width));
  const auto paint = [&](std::size_t worker, double t0, double t1,
                         unsigned bit, std::size_t job) {
    if (t1 <= t0 || worker >= workers) return;
    const std::size_t lo = column(t0);
    const std::size_t hi =
        std::min(std::max(column(t1), lo + 1), width);
    for (std::size_t c = lo; c < hi; ++c) {
      Cell& cell = cells[worker][c];
      if (bit == 2U) {
        if ((cell.bits & 2U) == 0U) {
          cell.job = job;
        } else if (cell.job != job) {
          cell.mixed = true;
        }
      }
      cell.bits |= bit;
    }
  };

  bool any_dispatch = false;
  std::vector<char> markers(width, ' ');
  for (const obs::TraceEvent& event : events) {
    switch (event.kind) {
      case obs::EventKind::kTransfer:
        paint(event.worker, event.start, event.end, 1U, event.job);
        break;
      case obs::EventKind::kCompute:
        paint(event.worker, event.start, event.end, 2U, event.job);
        break;
      case obs::EventKind::kDispatch:
        any_dispatch = true;
        markers[column(event.start)] = 'v';
        break;
      default:
        break;
    }
  }

  const std::size_t pad = labels.front().size();
  std::string out;
  if (any_dispatch) {
    std::string header(pad, ' ');
    NLDL_ASSERT(pad >= 9, "gantt labels too narrow for the release header");
    header.replace(0, 8, "releases");
    out += header;
    out.append(markers.begin(), markers.end());
    out += '\n';
  }
  for (std::size_t i = 0; i < workers; ++i) {
    NLDL_REQUIRE(labels[i].size() == pad, "gantt labels must align");
    out += labels[i];
    for (const Cell& cell : cells[i]) out += glyph(cell);
    out += "|\n";
  }
  char footer[64];
  std::snprintf(footer, sizeof(footer), "%*s t = [0, %.4g]\n",
                static_cast<int>(pad), "", horizon);
  out += footer;
  return out;
}

}  // namespace

std::string ascii_gantt(const std::vector<obs::TraceEvent>& events,
                        std::size_t workers, std::size_t width) {
  std::size_t n = workers;
  double horizon = 0.0;
  for (const obs::TraceEvent& event : events) {
    if (event.worker != obs::kNoIndex) n = std::max(n, event.worker + 1);
    horizon = std::max(horizon, event.end);
  }
  NLDL_REQUIRE(n >= 1, "gantt needs at least one worker");
  std::vector<std::string> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    char label[32];
    std::snprintf(label, sizeof(label), "w%-8zu |", i);
    labels[i] = label;
  }
  return render(events, n, width, labels, horizon);
}

std::string ascii_gantt(const platform::Platform& platform,
                        const SimResult& result, std::size_t width) {
  std::vector<obs::TraceEvent> events;
  events.reserve(result.spans.size() * 2);
  for (const ChunkSpan& span : result.spans) {
    obs::TraceEvent event;
    event.worker = span.worker;
    event.size = span.size;
    event.kind = obs::EventKind::kTransfer;
    event.start = span.comm_start;
    event.end = span.comm_end;
    events.push_back(event);
    event.kind = obs::EventKind::kCompute;
    event.start = span.compute_start;
    event.end = span.compute_end;
    events.push_back(event);
  }
  std::vector<std::string> labels(platform.size());
  for (std::size_t i = 0; i < platform.size(); ++i) {
    char label[48];
    std::snprintf(label, sizeof(label), "P%-3zu (s=%7.3f) |", i + 1,
                  platform.speed(i));
    labels[i] = label;
  }
  return render(events, platform.size(), width, labels, result.makespan);
}

}  // namespace nldl::sim
