// nldl_trace_check — CLI over obs/validate.hpp, for ctest and CI.
//
//   nldl_trace_check <trace.json> [more.json ...]
//       Validate each exported Chrome trace-event file against the
//       schema (well-formed events, monotone timestamps, balanced B/E
//       nesting per track). Exit 0 iff every file validates.
//
//   nldl_trace_check --summary <trace.json> [--top N] [--slo OBJ]
//       Validate, then triage: event counts by kind, the worker-time
//       attribution table, the top-N critical-path blame table
//       (reconstructed from the exported events with the microsecond
//       tolerance), and a burn-rate block over the trace's deadline-miss
//       instants at objective OBJ (default 0.95). Exit 0 iff the file
//       validates and every job's blame closes on its latency.
//
//   nldl_trace_check --metrics <metrics.json> [more.json ...]
//       Validate MetricsRegistry JSON dumps (numbers or well-formed
//       quantile objects). Exit 0 iff every file validates.
//
//   nldl_trace_check --bench-diff <a.json> <b.json>
//       Compare the "deterministic" payloads of two bench JSON
//       artifacts; the "measured" sidecars (wall times, RSS)
//       are ignored by design. Exit 0 iff the payloads are identical.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "obs/validate.hpp"
#include "util/assert.hpp"
#include "util/json_parse.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

int validate_traces(const std::vector<std::string>& paths) {
  int failures = 0;
  for (const std::string& path : paths) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "%s: cannot read\n", path.c_str());
      ++failures;
      continue;
    }
    const nldl::obs::ValidationResult result =
        nldl::obs::validate_chrome_trace_text(text);
    if (result) {
      std::printf("%s: OK (%zu events)\n", path.c_str(), result.events);
    } else {
      std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                   result.error.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int validate_metrics(const std::vector<std::string>& paths) {
  int failures = 0;
  for (const std::string& path : paths) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "%s: cannot read\n", path.c_str());
      ++failures;
      continue;
    }
    try {
      const nldl::util::JsonValue root = nldl::util::parse_json(text);
      const nldl::obs::ValidationResult result =
          nldl::obs::validate_metrics_json(root);
      if (result) {
        std::printf("%s: OK (%zu entries)\n", path.c_str(), result.events);
      } else {
        std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                     result.error.c_str());
        ++failures;
      }
    } catch (const nldl::util::PreconditionError& error) {
      std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                   error.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

// The exported microsecond timestamps perturb span endpoints by up to
// half a tick, so the causal reconstruction needs a relative tolerance
// when matching "transfer end == compute start" chains.
constexpr double kRoundtripTolerance = 1e-9;

int summarize_trace(const std::string& path, std::size_t top_k,
                    double slo_objective) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "%s: cannot read\n", path.c_str());
    return 1;
  }
  const nldl::obs::ValidationResult valid =
      nldl::obs::validate_chrome_trace_text(text);
  if (!valid) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                 valid.error.c_str());
    return 1;
  }
  const nldl::util::JsonValue root = nldl::util::parse_json(text);
  const std::vector<nldl::obs::TraceEvent> events =
      nldl::obs::events_from_chrome_trace(root);
  std::printf("%s: OK (%zu chrome events, %zu trace events)\n\n",
              path.c_str(), valid.events, events.size());

  // Event counts by kind, in enum order, zero-count kinds omitted.
  std::vector<std::size_t> counts;
  std::size_t workers = 0;
  double horizon = 0.0;
  for (const nldl::obs::TraceEvent& event : events) {
    const auto kind = static_cast<std::size_t>(event.kind);
    if (kind >= counts.size()) counts.resize(kind + 1, 0);
    ++counts[kind];
    if (event.worker != nldl::obs::kNoIndex && event.worker + 1 > workers) {
      workers = event.worker + 1;
    }
    horizon = std::max(horizon, event.end);
  }
  std::printf("--- event counts ---\n");
  for (std::size_t kind = 0; kind < counts.size(); ++kind) {
    if (counts[kind] == 0) continue;
    std::printf("  %-14s %8zu\n",
                nldl::obs::to_string(
                    static_cast<nldl::obs::EventKind>(kind)),
                counts[kind]);
  }
  std::printf("\n");

  std::fputs(nldl::obs::render_attribution(
                 nldl::obs::attribute_time(events, workers), path)
                 .c_str(),
             stdout);

  const nldl::obs::CriticalPath analysis(events, kRoundtripTolerance);
  std::fputs(nldl::obs::render_blame(analysis, top_k, path).c_str(),
             stdout);
  int failures = 0;
  for (const nldl::obs::JobBlame& job : analysis.jobs()) {
    if (job.total() != job.latency) {
      std::fprintf(stderr,
                   "blame components do not sum to latency for job %zu\n",
                   job.job);
      ++failures;
    }
  }

  // Burn-rate replay: each kJob span is one SLI observation at its
  // finish time; a job missed iff the trace carries a kDeadlineMiss
  // instant for it. Traces without deadlines simply never miss.
  if (!analysis.jobs().empty() && horizon > 0.0) {
    std::vector<std::size_t> missed;
    for (const nldl::obs::TraceEvent& event : events) {
      if (event.kind == nldl::obs::EventKind::kDeadlineMiss) {
        missed.push_back(event.job);
      }
    }
    std::sort(missed.begin(), missed.end());
    nldl::obs::BurnRateMonitor monitor(
        nldl::obs::SloPolicy::paging(slo_objective, horizon / 72.0),
        horizon);
    for (const nldl::obs::JobBlame& job : analysis.jobs()) {
      const bool miss = std::binary_search(missed.begin(), missed.end(),
                                           job.job);
      monitor.observe(job.finish, miss);
    }
    monitor.finalize();
    std::fputs(monitor.render().c_str(), stdout);
  }
  return failures == 0 ? 0 : 1;
}

int bench_diff(const std::string& path_a, const std::string& path_b) {
  std::string text_a;
  std::string text_b;
  if (!read_file(path_a, text_a)) {
    std::fprintf(stderr, "%s: cannot read\n", path_a.c_str());
    return 1;
  }
  if (!read_file(path_b, text_b)) {
    std::fprintf(stderr, "%s: cannot read\n", path_b.c_str());
    return 1;
  }
  try {
    const nldl::util::JsonValue a = nldl::util::parse_json(text_a);
    const nldl::util::JsonValue b = nldl::util::parse_json(text_b);
    const nldl::obs::ValidationResult result =
        nldl::obs::compare_deterministic_payload(a, b);
    if (result) {
      std::printf("deterministic payloads identical: %s == %s\n",
                  path_a.c_str(), path_b.c_str());
      return 0;
    }
    std::fprintf(stderr, "MISMATCH: %s\n", result.error.c_str());
    return 1;
  } catch (const nldl::util::PreconditionError& error) {
    std::fprintf(stderr, "parse error: %s\n", error.what());
    return 1;
  }
}

int usage() {
  std::fprintf(
      stderr,
      "usage: nldl_trace_check <trace.json> [more.json ...]\n"
      "       nldl_trace_check --summary <trace.json> [--top N] [--slo OBJ]\n"
      "       nldl_trace_check --metrics <metrics.json> [more.json ...]\n"
      "       nldl_trace_check --bench-diff <a.json> <b.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--bench-diff") {
    if (args.size() != 3) return usage();
    return bench_diff(args[1], args[2]);
  }
  if (!args.empty() && args[0] == "--metrics") {
    if (args.size() < 2) return usage();
    return validate_metrics(
        std::vector<std::string>(args.begin() + 1, args.end()));
  }
  if (!args.empty() && args[0] == "--summary") {
    std::string path;
    std::size_t top_k = 10;
    double slo_objective = 0.95;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--top" && i + 1 < args.size()) {
        top_k = static_cast<std::size_t>(std::stoul(args[++i]));
      } else if (args[i] == "--slo" && i + 1 < args.size()) {
        const std::string& text = args[++i];
        const char* last = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), last, slo_objective);
        if (ec != std::errc{} || ptr != last) return usage();
      } else if (path.empty() && args[i].rfind("--", 0) != 0) {
        path = args[i];
      } else {
        return usage();
      }
    }
    if (path.empty()) return usage();
    try {
      return summarize_trace(path, top_k, slo_objective);
    } catch (const nldl::util::PreconditionError& error) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.what());
      return 1;
    }
  }
  if (args.empty()) return usage();
  return validate_traces(args);
}
