// Deterministic event tracing on the SIMULATED clock — the observability
// substrate of the serving stack.
//
// Every interesting scheduling moment (a chunk transferring or computing,
// a water-fill re-rate, a dispatch barrier, an admission verdict, a
// preemption with its restart surcharge, a deadline miss, the replay
// machinery's checkpoints/compactions) is a typed obs::TraceEvent stamped
// in simulated seconds and attributed to a worker / job / tenant. The sim
// domain never reads a real clock (nldl-lint's nondet-source rule); wall
// time lives exclusively in the bench/profiling layer (bench/profile.hpp).
//
// Emission contract: every hook site is guarded by a raw TraceSink
// pointer that defaults to null — the null-sink fast path is a single
// predictable branch per site, and results are bit-identical with or
// without a sink attached (tests/test_obs.cpp pins both properties;
// bench_micro's trace_emission kernel prices the recording path).
// Recording is deterministic: the same run produces the same event
// sequence, bit for bit, because events carry only simulated quantities.
//
// Consumers: obs::TraceRecorder collects events in memory;
// obs/export.hpp turns a recording into a Perfetto-loadable Chrome
// trace-event JSON file or an ASCII time-attribution summary, and
// sim::ascii_gantt renders per-worker timelines from the same stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nldl::obs {

/// "No worker/job/tenant" attribution marker.
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// The event taxonomy. Span kinds occupy [start, end]; instant kinds
/// carry start == end.
enum class EventKind : std::uint8_t {
  // -- spans ---------------------------------------------------------------
  kTransfer,     ///< chunk receive on a worker's link [comm_start, comm_end]
  kCompute,      ///< chunk compute on a worker [compute_start, compute_end]
  kJob,          ///< whole job service [dispatch, finish]
  kInstallment,  ///< one qos installment: solver-timed at concurrency 1,
                 ///< where no per-chunk replay runs (so this is the
                 ///< honest granularity), replay-timed above it
  kRestart,      ///< restart-surcharge re-work, solver-estimated duration
  // -- instants ------------------------------------------------------------
  kRerate,       ///< comm model re-rated the eligible transfer set
                 ///< (water-filling under bounded multiport)
  kDispatch,     ///< an owner's chunks released into a shared period / slot
  kArrival,      ///< a job joined the wait queue; value = jobs ahead of it
                 ///< (the queue-position cause of its admission wait)
  kAdmit,        ///< admission verdicts at arrival
  kDegrade,
  kReject,
  kPreempt,       ///< a started job went cold; value = surcharge estimate
  kDeadlineMiss,  ///< admitted job finished past its deadline
  kCheckpoint,    ///< incremental replay checkpointed the settled prefix
  kCompact,       ///< settled run dropped finalized chunks
  kReplay,        ///< a speculative replay refreshed finish estimates
  kAlert,         ///< SLO burn-rate alert fired; value = fast-window burn
};

/// Stable lower-case name of the kind (trace-event "name" field).
[[nodiscard]] const char* to_string(EventKind kind);

/// Inverse of to_string; returns false when `name` is not a kind.
[[nodiscard]] bool event_kind_from_string(const std::string& name,
                                          EventKind& kind);

/// True for the span kinds (end > start is meaningful).
[[nodiscard]] bool is_span(EventKind kind) noexcept;

/// One trace event on the simulated clock. Unattributed dimensions hold
/// kNoIndex; `value` is kind-specific (eligible transfers for kRerate,
/// chunk count for kDispatch, surcharge seconds for kPreempt/kRestart,
/// dropped chunks for kCompact, events simulated for kReplay, ...).
struct TraceEvent {
  EventKind kind = EventKind::kTransfer;
  double start = 0.0;  ///< simulated seconds, absolute
  double end = 0.0;    ///< == start for instants
  std::size_t worker = kNoIndex;
  std::size_t job = kNoIndex;
  std::size_t tenant = kNoIndex;
  double size = 0.0;   ///< load units carried (transfer/compute spans)
  double alpha = 0.0;  ///< compute exponent attribution, 0 = n/a
  double value = 0.0;  ///< kind-specific scalar

  bool operator==(const TraceEvent&) const = default;
};

/// Abstract event consumer. Hook sites hold a raw `TraceSink*` that
/// defaults to nullptr (the near-zero-cost fast path); implementations
/// must not observe anything nondeterministic in record() if the trace
/// is meant to be reproducible.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
};

/// The standard sink: collect events in memory, in emission order.
/// Emission order is deterministic but NOT time-sorted (spans are
/// reported as they finalize); exporters sort by start time.
class TraceRecorder final : public TraceSink {
 public:
  void record(const TraceEvent& event) override { events_.push_back(event); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  void clear() noexcept { events_.clear(); }

  /// Events of one kind, in emission order (test/analysis convenience).
  [[nodiscard]] std::vector<TraceEvent> of_kind(EventKind kind) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace nldl::obs
