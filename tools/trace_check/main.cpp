// nldl_trace_check — CLI over obs/validate.hpp, for ctest and CI.
//
//   nldl_trace_check <trace.json> [more.json ...]
//       Validate each exported Chrome trace-event file against the
//       schema (well-formed events, monotone timestamps, balanced B/E
//       nesting per track). Exit 0 iff every file validates.
//
//   nldl_trace_check --summary <trace.json> [--top N] [--slo OBJ]
//       Validate and decode in one pass, then triage: event counts by
//       kind, the worker-time attribution table, the top-N critical-path
//       blame table (reconstructed from the exported events with the
//       microsecond tolerance), and a burn-rate block over the trace's
//       deadline-miss instants at objective OBJ (default 0.95). Exit 0
//       iff the file validates and every job's blame closes on its
//       latency; a malformed N, or an OBJ outside (0, 1), prints the
//       usage and exits 2.
//
//   nldl_trace_check --metrics <metrics.json> [more.json ...]
//       Validate MetricsRegistry JSON dumps (one flat object, numbers
//       only). Exit 0 iff every file validates.
//
//   nldl_trace_check --bench-diff [--rel-tol=R] <a.json> <b.json>
//       Compare the "deterministic" payloads of two bench JSON
//       artifacts; the "measured" sidecars (wall times, RSS)
//       are ignored by design. Prints the leaves compared, the leaves
//       moved and the largest relative deviation with its path, then
//       every number beyond R, every changed count and every structural
//       mismatch, each with both values. Exit 0 iff nothing is beyond R
//       and the structure matches; R defaults to 0, the bitwise check.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "obs/validate.hpp"
#include "util/assert.hpp"
#include "util/json_parse.hpp"

namespace {

/// Read a whole file into `out`, reserved once from the file's length,
/// so a large trace is held in one copy; a stream without a length (a
/// pipe) grows as it is read.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  out.clear();
  if (!error) out.reserve(static_cast<std::size_t>(size));
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    out.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return !in.bad();
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

/// Read and parse `path`; on failure print why and return false.
bool read_json(const std::string& path, nldl::util::JsonValue& out) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "%s: cannot read\n", path.c_str());
    return false;
  }
  try {
    out = nldl::util::parse_json(text);
    return true;
  } catch (const nldl::util::PreconditionError& error) {
    std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                 nldl::util::message_of(error).c_str());
    return false;
  }
}

int validate_metrics(const std::vector<std::string>& paths) {
  int failures = 0;
  for (const std::string& path : paths) {
    nldl::util::JsonValue root;
    if (!read_json(path, root)) {
      ++failures;
      continue;
    }
    const nldl::obs::ValidationResult result =
        nldl::obs::validate_metrics_json(root);
    if (result) {
      std::printf("%s: OK (%zu entries)\n", path.c_str(), result.events);
    } else {
      std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                   result.error.c_str());
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
  // Validate and decode in one pass; the text is not needed after it.
  nldl::obs::ValidationResult valid;
  const std::vector<nldl::obs::TraceEvent> events =
      nldl::obs::events_from_chrome_trace(text, &valid);
  std::string().swap(text);
  if (!valid) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                 valid.error.c_str());
    return 1;
  }
  std::printf("%s: OK (%zu chrome events, %zu trace events)\n\n",
              path.c_str(), valid.events, events.size());

  // Event counts by kind, in enum order, zero-count kinds omitted.
  std::vector<std::size_t> counts;
  double horizon = 0.0;
  for (const nldl::obs::TraceEvent& event : events) {
    const auto kind = static_cast<std::size_t>(event.kind);
    if (kind >= counts.size()) counts.resize(kind + 1, 0);
    ++counts[kind];
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
                 nldl::obs::attribute_time(events, 0), path)
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

int bench_diff(const std::string& path_a, const std::string& path_b,
               double rel_tol) {
  nldl::util::JsonValue a;
  nldl::util::JsonValue b;
  if (!read_json(path_a, a) || !read_json(path_b, b)) return 1;
  const nldl::obs::PayloadComparison result =
      nldl::obs::compare_deterministic_payload(a, b, rel_tol);
  std::printf("%s vs %s: %zu leaves compared, %zu moved", path_a.c_str(),
              path_b.c_str(), result.leaves, result.moved);
  if (!result.max_path.empty()) {
    std::printf(", largest relative deviation %.2e at %s",
                result.max_relative, result.max_path.c_str());
  }
  std::printf(" (rel-tol %g)\n", rel_tol);
  for (const nldl::obs::PayloadDifference& d : result.beyond) {
    std::printf("  beyond: %s: %s -> %s (%s)\n", d.path.c_str(), d.a.c_str(),
                d.b.c_str(), d.what.c_str());
  }
  for (const nldl::obs::PayloadDifference& d : result.mismatches) {
    std::printf("  MISMATCH: %s: %s -> %s (%s)\n", d.path.c_str(),
                d.a.c_str(), d.b.c_str(), d.what.c_str());
  }
  if (result) {
    std::printf(result.moved == 0 ? "deterministic payloads identical\n"
                                  : "within rel-tol\n");
    return 0;
  }
  std::fflush(stdout);
  std::fprintf(stderr, "MISMATCH: %zu beyond rel-tol, %zu structural\n",
               result.beyond.size(), result.mismatches.size());
  return 1;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: nldl_trace_check <trace.json> [more.json ...]\n"
      "       nldl_trace_check --summary <trace.json> [--top N] [--slo OBJ]\n"
      "       nldl_trace_check --metrics <metrics.json> [more.json ...]\n"
      "       nldl_trace_check --bench-diff [--rel-tol=R] <a.json> "
      "<b.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--bench-diff") {
    std::vector<std::string> paths;
    double rel_tol = 0.0;
    const std::string tol_flag = "--rel-tol=";
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i].rfind(tol_flag, 0) == 0) {
        const char* first = args[i].data() + tol_flag.size();
        const char* last = args[i].data() + args[i].size();
        auto [ptr, ec] = std::from_chars(first, last, rel_tol);
        if (ec != std::errc{} || ptr != last || !std::isfinite(rel_tol) ||
            rel_tol < 0.0) {
          return usage();
        }
      } else if (args[i].rfind("--", 0) == 0) {
        return usage();
      } else {
        paths.push_back(args[i]);
      }
    }
    if (paths.size() != 2) return usage();
    return bench_diff(paths[0], paths[1], rel_tol);
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
        // Unsigned from_chars rejects a sign, so "-1" cannot wrap.
        const std::string& text = args[++i];
        const char* last = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), last, top_k);
        if (ec != std::errc{} || ptr != last) return usage();
      } else if (args[i] == "--slo" && i + 1 < args.size()) {
        const std::string& text = args[++i];
        const char* last = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), last, slo_objective);
        // An objective lies in (0, 1); the comparison also rejects NaN.
        if (ec != std::errc{} || ptr != last ||
            !(slo_objective > 0.0 && slo_objective < 1.0)) {
          return usage();
        }
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
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   nldl::util::message_of(error).c_str());
      return 1;
    }
  }
  if (args.empty()) return usage();
  return validate_traces(args);
}
