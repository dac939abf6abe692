#include "bench/traced_cell.hpp"

#include <cstdio>
#include <fstream>

#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "util/json.hpp"

namespace nldl::bench {

TracedCellFlags traced_cell_flags(const util::Args& args) {
  TracedCellFlags flags;
  flags.trace_path = args.get_string("trace", "");
  flags.metrics_path = args.get_string("metrics", "");
  flags.blame = args.get_bool("blame", false);
  return flags;
}

bool report_traced_cell(const TracedCellFlags& flags, const std::string& label,
                        std::size_t workers,
                        const obs::TraceRecorder& recorder,
                        const obs::MetricsRegistry& registry) {
  bool ok = true;
  const obs::CriticalPath analysis(recorder.events());
  for (const obs::JobBlame& job : analysis.jobs()) {
    if (job.total() != job.latency) {
      std::fprintf(stderr, "blame components do not sum to latency "
                           "for job %zu\n", job.job);
      ok = false;
    }
  }
  if (flags.blame) {
    std::fputs(obs::render_blame(analysis, 10, label).c_str(), stdout);
  }

  if (!flags.trace_path.empty()) {
    std::ofstream out(flags.trace_path);
    obs::ChromeTraceOptions trace_options;
    trace_options.workers = workers;
    trace_options.label = label;
    trace_options.critical_path = &analysis;
    obs::write_chrome_trace(out, recorder.events(), trace_options);
    out.flush();
    if (out) {
      std::printf("trace written to %s (%zu events)\n",
                  flags.trace_path.c_str(), recorder.size());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   flags.trace_path.c_str());
      ok = false;
    }
  }
  if (!flags.metrics_path.empty()) {
    std::ofstream out(flags.metrics_path);
    util::JsonWriter json(out);
    registry.write_json(json);
    const bool complete = json.complete();
    out << '\n';
    out.flush();
    if (out && complete) {
      std::printf("metrics written to %s (%zu entries)\n",
                  flags.metrics_path.c_str(), registry.size());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   flags.metrics_path.c_str());
      ok = false;
    }
  }
  std::fputs(obs::render_attribution(
                 obs::attribute_time(recorder.events(), workers), label)
                 .c_str(),
             stdout);
  return ok;
}

}  // namespace nldl::bench
