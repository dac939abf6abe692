// Tests for src/obs/: the tracing contract (attaching a sink never
// changes results, recording is deterministic), the metrics registry's
// ordering/type/merge rules, Chrome trace-event export validating
// against the schema checker, matching a JsonWriter-built reference byte
// for byte once its whitespace is moved to one record per line, and
// decoding back to generated streams, the time-attribution partition,
// and the event-stream ASCII gantt.
#include <algorithm>
#include <bit>
#include <clocale>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "online/scheduler.hpp"
#include "online/server.hpp"
#include "platform/platform.hpp"
#include "qos/policy.hpp"
#include "qos/server.hpp"
#include "sim/trace.hpp"
#include "trace_tree_oracle.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace nldl {
namespace {

platform::Platform test_platform() {
  return platform::Platform::two_class(6, 1.0, 3.0);
}

/// Overlapping arrivals (multi-job busy periods), mixed alphas, finite
/// deadlines so the qos admission path exercises every verdict.
std::vector<online::Job> burst_jobs() {
  return {{0, 0.0, 60.0, 2.0, 400.0, 0},  {1, 1.0, 30.0, 1.0, 150.0, 1},
          {2, 2.0, 45.0, 2.0, 500.0, 0},  {3, 15.0, 20.0, 1.0, 90.0, 2},
          {4, 16.0, 80.0, 2.0, 900.0, 1}, {5, 40.0, 25.0, 1.0, 200.0, 2}};
}

const std::vector<sim::CommModelKind> kCommKinds{
    sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
    sim::CommModelKind::kBoundedMultiport};

online::ServerOptions online_options(sim::CommModelKind comm,
                                     online::MasterMode master) {
  online::ServerOptions options;
  options.comm = comm;
  if (comm == sim::CommModelKind::kBoundedMultiport) {
    options.capacity = 2.0;
  }
  options.master = master;
  return options;
}

qos::ServerOptions qos_options(sim::CommModelKind comm,
                               std::size_t concurrency) {
  qos::ServerOptions options;
  options.service.comm = comm;
  if (comm == sim::CommModelKind::kBoundedMultiport) {
    options.service.capacity = 2.0;
  }
  options.service.plan.rounds = 3;
  options.service.plan.restart_load_fraction = 1.0;
  options.concurrency = concurrency;
  return options;
}

void expect_identical(const std::vector<online::JobStats>& a,
                      const std::vector<online::JobStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dispatch, b[i].dispatch) << "job " << i;
    EXPECT_EQ(a[i].finish, b[i].finish) << "job " << i;
    EXPECT_EQ(a[i].slot, b[i].slot) << "job " << i;
    EXPECT_EQ(a[i].workers, b[i].workers) << "job " << i;
    EXPECT_EQ(a[i].compute_time, b[i].compute_time) << "job " << i;
    EXPECT_EQ(a[i].isolated_makespan, b[i].isolated_makespan) << "job " << i;
  }
}

void expect_identical(const std::vector<qos::JobRecord>& a,
                      const std::vector<qos::JobRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].admitted, b[i].admitted) << "job " << i;
    EXPECT_EQ(a[i].degraded, b[i].degraded) << "job " << i;
    EXPECT_EQ(a[i].served_load, b[i].served_load) << "job " << i;
    EXPECT_EQ(a[i].predicted_service, b[i].predicted_service) << "job " << i;
    EXPECT_EQ(a[i].dispatch, b[i].dispatch) << "job " << i;
    EXPECT_EQ(a[i].finish, b[i].finish) << "job " << i;
    EXPECT_EQ(a[i].service_time, b[i].service_time) << "job " << i;
    EXPECT_EQ(a[i].compute_time, b[i].compute_time) << "job " << i;
    EXPECT_EQ(a[i].preemptions, b[i].preemptions) << "job " << i;
    EXPECT_EQ(a[i].restart_time, b[i].restart_time) << "job " << i;
  }
}

// --- tracing never changes results ------------------------------------------

TEST(TraceNeutrality, OnlineServerAcrossCommModelsAndMasterModes) {
  const platform::Platform plat = test_platform();
  const std::vector<online::Job> jobs = burst_jobs();
  for (const sim::CommModelKind comm : kCommKinds) {
    for (const online::MasterMode master :
         {online::MasterMode::kPrivatePort,
          online::MasterMode::kSharedMaster}) {
      online::ServerOptions bare_options = online_options(comm, master);
      const online::Server bare(plat, bare_options);
      const online::FairShareScheduler fair_a(2);
      const auto untraced = bare.run(jobs, fair_a);

      obs::TraceRecorder recorder;
      online::ServerOptions traced_options = online_options(comm, master);
      traced_options.trace = &recorder;
      const online::Server traced(plat, traced_options);
      const online::FairShareScheduler fair_b(2);
      const auto with_trace = traced.run(jobs, fair_b);

      SCOPED_TRACE(sim::to_string(comm) + " / " +
                   online::to_string(master));
      expect_identical(untraced, with_trace);
      EXPECT_FALSE(recorder.empty());

      // Recording is deterministic: a second traced run emits the same
      // event sequence bit for bit.
      obs::TraceRecorder again;
      online::ServerOptions repeat_options = online_options(comm, master);
      repeat_options.trace = &again;
      const online::Server repeat(plat, repeat_options);
      const online::FairShareScheduler fair_c(2);
      (void)repeat.run(jobs, fair_c);
      EXPECT_EQ(recorder.events(), again.events());
    }
  }
}

TEST(TraceNeutrality, QosServerAcrossCommModelsAndConcurrency) {
  const platform::Platform plat = test_platform();
  const std::vector<online::Job> jobs = burst_jobs();
  for (const sim::CommModelKind comm : kCommKinds) {
    for (const std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
      const qos::Server bare(plat, qos_options(comm, concurrency));
      qos::SrptPolicy srpt_a;
      const auto untraced = bare.run(jobs, srpt_a);

      obs::TraceRecorder recorder;
      qos::ServerOptions traced_options = qos_options(comm, concurrency);
      traced_options.trace = &recorder;
      const qos::Server traced(plat, traced_options);
      qos::SrptPolicy srpt_b;
      const auto with_trace = traced.run(jobs, srpt_b);

      SCOPED_TRACE(sim::to_string(comm) + " / concurrency " +
                   std::to_string(concurrency));
      expect_identical(untraced, with_trace);
      EXPECT_FALSE(recorder.empty());

      obs::TraceRecorder again;
      qos::ServerOptions repeat_options = qos_options(comm, concurrency);
      repeat_options.trace = &again;
      const qos::Server repeat(plat, repeat_options);
      qos::SrptPolicy srpt_c;
      (void)repeat.run(jobs, srpt_c);
      EXPECT_EQ(recorder.events(), again.events());
    }
  }
}

// --- event content -----------------------------------------------------------

TEST(TraceContent, QosSerialEmitsVerdictsInstallmentsAndPreemptions) {
  const platform::Platform plat = test_platform();
  obs::TraceRecorder recorder;
  qos::ServerOptions options =
      qos_options(sim::CommModelKind::kParallelLinks, 1);
  options.trace = &recorder;
  const qos::Server server(plat, options);
  qos::SrptPolicy srpt;
  const auto records = server.run(burst_jobs(), srpt);

  std::size_t admitted = 0;
  std::size_t preemptions = 0;
  for (const qos::JobRecord& record : records) {
    if (record.admitted) ++admitted;
    preemptions += record.preemptions;
  }
  ASSERT_GT(admitted, 0u);
  ASSERT_GT(preemptions, 0u) << "scenario must exercise preemption";

  // One admission verdict per offered job, stamped at its arrival.
  const auto admits = recorder.of_kind(obs::EventKind::kAdmit);
  const auto degrades = recorder.of_kind(obs::EventKind::kDegrade);
  const auto rejects = recorder.of_kind(obs::EventKind::kReject);
  EXPECT_EQ(admits.size() + degrades.size() + rejects.size(),
            records.size());

  // One whole-job span per admitted job, [dispatch, finish].
  const auto job_spans = recorder.of_kind(obs::EventKind::kJob);
  EXPECT_EQ(job_spans.size(), admitted);
  for (const obs::TraceEvent& span : job_spans) {
    EXPECT_LT(span.start, span.end);
    EXPECT_NE(span.job, obs::kNoIndex);
  }

  // Preemption instants match the per-record tallies and carry the
  // positive restart-surcharge estimate; each pays a restart span later.
  const auto preempts = recorder.of_kind(obs::EventKind::kPreempt);
  EXPECT_EQ(preempts.size(), preemptions);
  for (const obs::TraceEvent& event : preempts) {
    EXPECT_GT(event.value, 0.0);
  }
  EXPECT_EQ(recorder.of_kind(obs::EventKind::kRestart).size(), preemptions);
  EXPECT_FALSE(recorder.of_kind(obs::EventKind::kInstallment).empty());
}

TEST(TraceContent, QosArrivalCountsOnlyWaitingJobs) {
  // Job 1 arrives during the first of job 0's three installments, with
  // nothing else waiting. The job in service is not queued ahead of it,
  // so its kArrival carries queue depth 0 at every k.
  const platform::Platform plat = platform::Platform::homogeneous(4);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<online::Job> jobs{{0, 0.0, 60.0, 1.0, inf, 0},
                                      {1, 1.0, 30.0, 1.0, inf, 0}};
  for (const std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("concurrency " + std::to_string(concurrency));
    obs::TraceRecorder recorder;
    qos::ServerOptions options =
        qos_options(sim::CommModelKind::kParallelLinks, concurrency);
    options.trace = &recorder;
    qos::FcfsPolicy fcfs;
    (void)qos::Server(plat, options).run(jobs, fcfs);

    const auto installments = recorder.of_kind(obs::EventKind::kInstallment);
    ASSERT_FALSE(installments.empty());
    EXPECT_EQ(installments.front().job, 0u);
    EXPECT_LT(installments.front().start, 1.0);
    EXPECT_GT(installments.front().end, 1.0);
    const auto arrivals = recorder.of_kind(obs::EventKind::kArrival);
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[1].job, 1u);
    EXPECT_EQ(arrivals[1].value, 0.0);
  }
}

TEST(TraceContent, QosPreemptsLandAfterTheSwitch) {
  // One kPreempt per counted preemption, at every k and comm model. The
  // job goes cold at the first event after the boundary the policy passed
  // it over at, so each instant lies strictly after the end of the job's
  // previous installment and no later than the start of its next one,
  // which pays the restart.
  const platform::Platform plat = test_platform();
  std::size_t total = 0;
  for (const sim::CommModelKind comm : kCommKinds) {
    for (const std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(sim::to_string(comm) + " / concurrency " +
                   std::to_string(concurrency));
      obs::TraceRecorder recorder;
      qos::ServerOptions options = qos_options(comm, concurrency);
      options.trace = &recorder;
      qos::SrptPolicy srpt;
      const auto records = qos::Server(plat, options).run(burst_jobs(), srpt);
      std::size_t preemptions = 0;
      for (const qos::JobRecord& record : records) {
        preemptions += record.preemptions;
      }
      const auto preempts = recorder.of_kind(obs::EventKind::kPreempt);
      EXPECT_EQ(preempts.size(), preemptions);
      total += preempts.size();

      const auto installments =
          recorder.of_kind(obs::EventKind::kInstallment);
      const auto restarts = recorder.of_kind(obs::EventKind::kRestart);
      for (const obs::TraceEvent& preempt : preempts) {
        double previous_end = -1.0;
        double next_start = std::numeric_limits<double>::infinity();
        for (const obs::TraceEvent& span : installments) {
          if (span.job != preempt.job) continue;
          if (span.end <= preempt.start) {
            previous_end = std::max(previous_end, span.end);
          } else {
            next_start = std::min(next_start, span.start);
          }
        }
        EXPECT_GE(previous_end, 0.0) << "job " << preempt.job;
        EXPECT_LT(previous_end, preempt.start) << "job " << preempt.job;
        EXPECT_GE(next_start, preempt.start) << "job " << preempt.job;
        bool restarted = false;
        for (const obs::TraceEvent& span : restarts) {
          restarted |= span.job == preempt.job && span.start == next_start;
        }
        EXPECT_TRUE(restarted) << "job " << preempt.job;
      }
    }
  }
  EXPECT_GT(total, 0u) << "scenario must exercise preemption";
}

TEST(TraceContent, SharedMasterRunsCarryWorkerSpans) {
  const platform::Platform plat = test_platform();
  obs::TraceRecorder recorder;
  qos::ServerOptions options =
      qos_options(sim::CommModelKind::kBoundedMultiport, 2);
  options.trace = &recorder;
  const qos::Server server(plat, options);
  qos::SrptPolicy srpt;
  (void)server.run(burst_jobs(), srpt);

  const auto transfers = recorder.of_kind(obs::EventKind::kTransfer);
  const auto computes = recorder.of_kind(obs::EventKind::kCompute);
  ASSERT_FALSE(transfers.empty());
  ASSERT_FALSE(computes.empty());
  for (const obs::TraceEvent& span : transfers) {
    EXPECT_NE(span.worker, obs::kNoIndex);
    EXPECT_LT(span.worker, plat.size());
    EXPECT_LE(span.start, span.end);
  }
  for (const obs::TraceEvent& span : computes) {
    EXPECT_NE(span.worker, obs::kNoIndex);
    EXPECT_NE(span.job, obs::kNoIndex);  // compute is job-attributed
    EXPECT_LT(span.start, span.end);
  }
  EXPECT_FALSE(recorder.of_kind(obs::EventKind::kDispatch).empty());
}

TEST(TraceContent, KindNamesAndSpanPredicate) {
  EXPECT_STREQ(obs::to_string(obs::EventKind::kTransfer), "transfer");
  EXPECT_STREQ(obs::to_string(obs::EventKind::kDeadlineMiss),
               "deadline_miss");
  EXPECT_TRUE(obs::is_span(obs::EventKind::kCompute));
  EXPECT_TRUE(obs::is_span(obs::EventKind::kRestart));
  EXPECT_FALSE(obs::is_span(obs::EventKind::kRerate));
  EXPECT_FALSE(obs::is_span(obs::EventKind::kPreempt));
}

// --- export + validation -----------------------------------------------------

TEST(ChromeExport, SharedMasterQosTraceValidates) {
  const platform::Platform plat = test_platform();
  obs::TraceRecorder recorder;
  qos::ServerOptions options =
      qos_options(sim::CommModelKind::kBoundedMultiport, 2);
  options.trace = &recorder;
  const qos::Server server(plat, options);
  qos::SrptPolicy srpt;
  (void)server.run(burst_jobs(), srpt);

  std::ostringstream out;
  obs::ChromeTraceOptions trace_options;
  trace_options.workers = plat.size();
  trace_options.label = "test qos";
  obs::write_chrome_trace(out, recorder.events(), trace_options);

  const obs::ValidationResult result =
      obs::validate_chrome_trace_text(out.str());
  EXPECT_TRUE(result) << result.error;
  EXPECT_GT(result.events, recorder.size());  // metadata rows on top
  EXPECT_EQ(out.str().substr(0, out.str().find('\n')),
            R"({"displayTimeUnit":"ms","traceEvents":[)");
}

TEST(ChromeExport, ValidatorRejectsBrokenDocuments) {
  EXPECT_FALSE(obs::validate_chrome_trace_text("not json"));
  EXPECT_FALSE(obs::validate_chrome_trace_text("{}"));
  // Decreasing timestamps.
  EXPECT_FALSE(obs::validate_chrome_trace_text(
      R"({"traceEvents":[
        {"name":"a","ph":"i","ts":5,"pid":1,"tid":1,"s":"t"},
        {"name":"b","ph":"i","ts":4,"pid":1,"tid":1,"s":"t"}]})"));
  // Unbalanced B/E.
  EXPECT_FALSE(obs::validate_chrome_trace_text(
      R"({"traceEvents":[
        {"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]})"));
  EXPECT_FALSE(obs::validate_chrome_trace_text(
      R"({"traceEvents":[
        {"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]})"));
  // Well-formed minimal document passes.
  EXPECT_TRUE(obs::validate_chrome_trace_text(
      R"({"traceEvents":[
        {"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
        {"name":"a","ph":"E","ts":2,"pid":1,"tid":1}]})"));
}

// --- pinned Chrome export bytes --------------------------------------------

obs::TraceEvent make_event(obs::EventKind kind, double start, double end,
                           std::size_t job, std::size_t tenant,
                           std::size_t worker = obs::kNoIndex) {
  obs::TraceEvent event;
  event.kind = kind;
  event.start = start;
  event.end = end;
  event.job = job;
  event.tenant = tenant;
  event.worker = worker;
  return event;
}

/// Two jobs through one worker: job 1 arrives without a tenant (named
/// later by its spans), waits behind job 0 on the link and the cpu, and
/// misses its deadline. Exported with its critical path, this covers
/// every phase the exporter writes: M, X, B/E, i, and s/t/f with "bp".
std::vector<obs::TraceEvent> pinned_events() {
  using obs::EventKind;
  constexpr std::size_t kNone = obs::kNoIndex;
  std::vector<obs::TraceEvent> events;
  events.push_back(make_event(EventKind::kArrival, 0.0, 0.0, 0, 1));
  events.push_back(make_event(EventKind::kArrival, 0.25, 0.25, 1, kNone));
  obs::TraceEvent dispatch = make_event(EventKind::kDispatch, 0.5, 0.5, 0, 1);
  dispatch.value = 1.0;
  events.push_back(dispatch);
  obs::TraceEvent rerate =
      make_event(EventKind::kRerate, 0.5, 0.5, kNone, kNone);
  rerate.value = 1.0;
  events.push_back(rerate);
  obs::TraceEvent transfer =
      make_event(EventKind::kTransfer, 0.5, 1.5, 0, 1, 0);
  transfer.size = 2.0;
  events.push_back(transfer);
  obs::TraceEvent compute = make_event(EventKind::kCompute, 1.5, 3.0, 0, 1, 0);
  compute.size = 2.0;
  compute.alpha = 2.0;
  events.push_back(compute);
  obs::TraceEvent transfer1 =
      make_event(EventKind::kTransfer, 1.5, 2.0, 1, 2, 0);
  transfer1.size = 0.5;
  events.push_back(transfer1);
  obs::TraceEvent compute1 =
      make_event(EventKind::kCompute, 3.0, 3.5, 1, 2, 0);
  compute1.size = 0.5;
  compute1.alpha = 1.5;
  events.push_back(compute1);
  events.push_back(make_event(EventKind::kJob, 0.5, 3.0, 0, 1));
  events.push_back(make_event(EventKind::kJob, 1.0, 3.5, 1, 2));
  obs::TraceEvent miss =
      make_event(EventKind::kDeadlineMiss, 3.5, 3.5, 1, 2);
  miss.value = 0.125;
  events.push_back(miss);
  return events;
}

// The exact bytes write_chrome_trace produces for pinned_events(): one
// record per line, and one newline after the closing "]}".
constexpr const char* kPinnedChromeTrace = R"json({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"pin workers"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"pin jobs"}},
{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"pin scheduler"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"w0 link"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"w0 cpu"}},
{"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"job 0 (tenant 1)"}},
{"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"job 1 (tenant 2)"}},
{"name":"thread_name","ph":"M","pid":3,"tid":0,"args":{"name":"master"}},
{"name":"process_name","ph":"M","pid":4,"tid":0,"args":{"name":"pin critical path"}},
{"name":"thread_name","ph":"M","pid":4,"tid":0,"args":{"name":"job 0 path"}},
{"name":"thread_name","ph":"M","pid":4,"tid":1,"args":{"name":"job 1 path"}},
{"name":"arrival","cat":"nldl","ph":"i","ts":0,"s":"t","pid":2,"tid":0,"args":{"job":0,"tenant":1}},
{"name":"arrival","cat":"nldl","ph":"i","ts":250000,"s":"t","pid":2,"tid":1,"args":{"job":1}},
{"name":"dispatch","cat":"nldl","ph":"i","ts":5e+05,"s":"t","pid":3,"tid":0,"args":{"job":0,"tenant":1,"value":1}},
{"name":"rerate","cat":"nldl","ph":"i","ts":5e+05,"s":"t","pid":3,"tid":0,"args":{"value":1}},
{"name":"transfer","cat":"nldl","ph":"X","ts":5e+05,"dur":1e+06,"pid":1,"tid":0,"args":{"job":0,"tenant":1,"worker":0,"size":2}},
{"name":"job","cat":"nldl","ph":"B","ts":5e+05,"pid":2,"tid":0,"args":{"job":0,"tenant":1}},
{"name":"comm","cat":"nldl","ph":"X","ts":5e+05,"dur":1e+06,"pid":4,"tid":0,"args":{"worker":0,"via_job":0}},
{"name":"critical path","cat":"nldl","ph":"s","ts":5e+05,"id":0,"pid":4,"tid":0,"args":{"worker":0,"via_job":0}},
{"name":"job","cat":"nldl","ph":"B","ts":1e+06,"pid":2,"tid":1,"args":{"job":1,"tenant":2}},
{"name":"stall","cat":"nldl","ph":"X","ts":1e+06,"dur":5e+05,"pid":4,"tid":1,"args":{"worker":0,"via_job":0}},
{"name":"critical path","cat":"nldl","ph":"s","ts":1e+06,"id":1,"pid":4,"tid":1,"args":{"worker":0,"via_job":0}},
{"name":"compute","cat":"nldl","ph":"X","ts":1500000,"dur":1500000,"pid":1,"tid":1,"args":{"job":0,"tenant":1,"worker":0,"size":2,"alpha":2}},
{"name":"transfer","cat":"nldl","ph":"X","ts":1500000,"dur":5e+05,"pid":1,"tid":0,"args":{"job":1,"tenant":2,"worker":0,"size":0.5}},
{"name":"compute","cat":"nldl","ph":"X","ts":1500000,"dur":1500000,"pid":4,"tid":0,"args":{"worker":0,"via_job":0}},
{"name":"critical path","cat":"nldl","ph":"f","ts":1500000,"id":0,"bp":"e","pid":4,"tid":0,"args":{"worker":0,"via_job":0}},
{"name":"stall","cat":"nldl","ph":"X","ts":1500000,"dur":1500000,"pid":4,"tid":1,"args":{"worker":0,"via_job":0}},
{"name":"critical path","cat":"nldl","ph":"t","ts":1500000,"id":1,"pid":4,"tid":1,"args":{"worker":0,"via_job":0}},
{"name":"job","cat":"nldl","ph":"E","ts":3e+06,"pid":2,"tid":0,"args":{"job":0,"tenant":1}},
{"name":"compute","cat":"nldl","ph":"X","ts":3e+06,"dur":5e+05,"pid":1,"tid":1,"args":{"job":1,"tenant":2,"worker":0,"size":0.5,"alpha":1.5}},
{"name":"compute","cat":"nldl","ph":"X","ts":3e+06,"dur":5e+05,"pid":4,"tid":1,"args":{"worker":0,"via_job":1}},
{"name":"critical path","cat":"nldl","ph":"f","ts":3e+06,"id":1,"bp":"e","pid":4,"tid":1,"args":{"worker":0,"via_job":1}},
{"name":"job","cat":"nldl","ph":"E","ts":3500000,"pid":2,"tid":1,"args":{"job":1,"tenant":2}},
{"name":"deadline_miss","cat":"nldl","ph":"i","ts":3500000,"s":"t","pid":2,"tid":1,"args":{"job":1,"tenant":2,"value":0.125}}
]}
)json";

TEST(ChromeExport, PinnedTraceBytes) {
  const std::vector<obs::TraceEvent> events = pinned_events();
  const obs::CriticalPath path(events);
  obs::ChromeTraceOptions options;
  options.label = "pin";
  options.critical_path = &path;
  std::ostringstream out;
  obs::write_chrome_trace(out, events, options);
  EXPECT_EQ(out.str(), kPinnedChromeTrace);
  const obs::ValidationResult result =
      obs::validate_chrome_trace_text(out.str());
  EXPECT_TRUE(result) << result.error;
}

// --- exporter against a reference ------------------------------------------

// Test-local reference: the exporter as it was written before it printed
// from fixed text fragments, one util::JsonWriter call per token and a
// stable sort of whole lines. write_chrome_trace must reproduce its bytes
// on every input, once one_event_per_line has moved their whitespace.
struct ReferenceEmit {
  double ts = 0.0;
  char phase = 'X';
  double dur = 0.0;
  std::int64_t pid = 3;
  std::int64_t tid = 0;
  const obs::TraceEvent* event = nullptr;
  const char* name = nullptr;
  std::int64_t flow_id = -1;
  std::size_t arg_worker = obs::kNoIndex;
  std::size_t arg_via = obs::kNoIndex;
};

void reference_metadata(util::JsonWriter& json, std::int64_t pid,
                        std::int64_t tid, const char* meta,
                        const std::string& name) {
  json.begin_object();
  json.key("name").value(meta);
  json.key("ph").value("M");
  json.key("pid").value(pid);
  json.key("tid").value(tid);
  json.key("args").begin_object();
  json.key("name").value(name);
  json.end_object();
  json.end_object();
}

void reference_chrome_trace(std::ostream& out,
                            const std::vector<obs::TraceEvent>& events,
                            const obs::ChromeTraceOptions& options) {
  using obs::EventKind;
  constexpr std::size_t kNone = obs::kNoIndex;
  // Worker tracks: 0 .. workers − 1 when the count is given, else the
  // workers that carry transfer or compute spans, ascending.
  std::set<std::size_t> workers;
  for (std::size_t w = 0; w < options.workers; ++w) workers.insert(w);
  if (options.workers == 0) {
    for (const obs::TraceEvent& event : events) {
      const bool on_worker = event.kind == EventKind::kTransfer ||
                             event.kind == EventKind::kCompute;
      if (on_worker && event.worker != kNone) workers.insert(event.worker);
    }
  }
  std::vector<const obs::TraceEvent*> ordered;
  for (const obs::TraceEvent& event : events) ordered.push_back(&event);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                     return a->start < b->start;
                   });
  std::vector<ReferenceEmit> emits;
  std::vector<std::pair<std::size_t, std::size_t>> jobs;
  std::map<std::size_t, std::size_t> slot_of;
  for (const obs::TraceEvent* event : ordered) {
    if (event->job != kNone) {
      const auto [it, inserted] = slot_of.try_emplace(event->job, jobs.size());
      if (inserted) {
        jobs.emplace_back(event->job, event->tenant);
      } else if (jobs[it->second].second == kNone) {
        jobs[it->second].second = event->tenant;
      }
    }
    ReferenceEmit emit;
    emit.event = event;
    emit.ts = event->start * 1e6;
    const double dur = std::max(0.0, event->end - event->start) * 1e6;
    const auto job_tid = static_cast<std::int64_t>(event->job);
    switch (event->kind) {
      case EventKind::kTransfer:
      case EventKind::kCompute:
        emit.dur = dur;
        emit.pid = 1;
        emit.tid = static_cast<std::int64_t>(2 * event->worker) +
                   (event->kind == EventKind::kCompute ? 1 : 0);
        emits.push_back(emit);
        break;
      case EventKind::kJob: {
        emit.phase = 'B';
        emit.pid = 2;
        emit.tid = job_tid;
        emits.push_back(emit);
        ReferenceEmit end = emit;
        end.phase = 'E';
        end.ts = event->end * 1e6;
        emits.push_back(end);
        break;
      }
      case EventKind::kInstallment:
      case EventKind::kRestart:
        emit.dur = dur;
        emit.pid = 2;
        emit.tid = job_tid;
        emits.push_back(emit);
        break;
      case EventKind::kArrival:
      case EventKind::kAdmit:
      case EventKind::kDegrade:
      case EventKind::kReject:
      case EventKind::kPreempt:
      case EventKind::kDeadlineMiss:
        emit.phase = 'i';
        emit.pid = 2;
        emit.tid = job_tid;
        emits.push_back(emit);
        break;
      case EventKind::kRerate:
      case EventKind::kDispatch:
      case EventKind::kCheckpoint:
      case EventKind::kCompact:
      case EventKind::kReplay:
      case EventKind::kAlert:
        emit.phase = 'i';
        emits.push_back(emit);
        break;
    }
  }
  if (options.critical_path != nullptr) {
    for (const obs::JobBlame& blame : options.critical_path->jobs()) {
      const std::vector<obs::PathSegment>& path = blame.path;
      for (std::size_t i = 0; i < path.size(); ++i) {
        ReferenceEmit slice;
        slice.ts = path[i].start * 1e6;
        slice.dur = std::max(0.0, path[i].end - path[i].start) * 1e6;
        slice.pid = 4;
        slice.tid = static_cast<std::int64_t>(blame.job);
        slice.name = obs::to_string(path[i].kind);
        slice.arg_worker = path[i].worker;
        slice.arg_via = path[i].via_job;
        emits.push_back(slice);
        if (path.size() < 2) continue;
        ReferenceEmit flow = slice;
        flow.phase = i == 0 ? 's' : (i + 1 == path.size() ? 'f' : 't');
        flow.dur = 0.0;
        flow.name = "critical path";
        flow.flow_id = static_cast<std::int64_t>(blame.job);
        emits.push_back(flow);
      }
    }
  }
  std::stable_sort(emits.begin(), emits.end(),
                   [](const ReferenceEmit& a, const ReferenceEmit& b) {
                     return a.ts < b.ts;
                   });

  util::JsonWriter json(out);
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();
  reference_metadata(json, 1, 0, "process_name", options.label + " workers");
  reference_metadata(json, 2, 0, "process_name", options.label + " jobs");
  reference_metadata(json, 3, 0, "process_name", options.label + " scheduler");
  for (const std::size_t w : workers) {
    std::string worker = "w";
    worker += std::to_string(w);
    reference_metadata(json, 1, static_cast<std::int64_t>(2 * w),
                       "thread_name", worker + " link");
    reference_metadata(json, 1, static_cast<std::int64_t>(2 * w + 1),
                       "thread_name", worker + " cpu");
  }
  for (const auto& [job, tenant] : jobs) {
    std::string name = "job " + std::to_string(job);
    if (tenant != kNone) name += " (tenant " + std::to_string(tenant) + ")";
    reference_metadata(json, 2, static_cast<std::int64_t>(job), "thread_name",
                       name);
  }
  reference_metadata(json, 3, 0, "thread_name", "master");
  if (options.critical_path != nullptr) {
    reference_metadata(json, 4, 0, "process_name",
                       options.label + " critical path");
    for (const obs::JobBlame& blame : options.critical_path->jobs()) {
      reference_metadata(json, 4, static_cast<std::int64_t>(blame.job),
                         "thread_name",
                         "job " + std::to_string(blame.job) + " path");
    }
  }
  for (const ReferenceEmit& emit : emits) {
    json.begin_object();
    json.key("name").value(emit.name != nullptr
                               ? emit.name
                               : obs::to_string(emit.event->kind));
    json.key("cat").value("nldl");
    json.key("ph").value(std::string_view(&emit.phase, 1));
    json.key("ts").value(emit.ts);
    if (emit.phase == 'X') json.key("dur").value(emit.dur);
    if (emit.phase == 'i') json.key("s").value("t");
    if (emit.flow_id >= 0) {
      json.key("id").value(emit.flow_id);
      if (emit.phase == 'f') json.key("bp").value("e");
    }
    json.key("pid").value(emit.pid);
    json.key("tid").value(emit.tid);
    json.key("args").begin_object();
    if (emit.event != nullptr) {
      const obs::TraceEvent& event = *emit.event;
      if (event.job != kNone) json.key("job").value(event.job);
      if (event.tenant != kNone) json.key("tenant").value(event.tenant);
      if (event.worker != kNone) json.key("worker").value(event.worker);
      if (event.size != 0.0) json.key("size").value(event.size);
      if (event.alpha != 0.0) json.key("alpha").value(event.alpha);
      if (event.value != 0.0) json.key("value").value(event.value);
    } else {
      if (emit.arg_worker != kNone) json.key("worker").value(emit.arg_worker);
      if (emit.arg_via != kNone) json.key("via_job").value(emit.arg_via);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

/// A JsonWriter document in the exporter's layout: every whitespace
/// character outside string literals dropped, then a line break after the
/// traceEvents array's `[`, after each `,` between two of its records and
/// after its last record, and one newline at the end. Records, keys,
/// numbers and escapes pass through untouched.
std::string one_event_per_line(std::string_view pretty) {
  std::string out;
  bool in_string = false;
  bool escaped = false;
  int depth = 0;  // 1 inside the root, 2 inside traceEvents, 3 in a record
  std::size_t records = 0;
  for (const char ch : pretty) {
    if (in_string) {
      out += ch;
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == ' ' || ch == '\n' || ch == '\t' || ch == '\r') continue;
    if (ch == '"') in_string = true;
    if (ch == ']' && depth == 2 && records > 0) out += '\n';
    if (ch == '{' && depth == 2) ++records;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    out += ch;
    if ((ch == '[' || ch == ',') && depth == 2) out += '\n';
  }
  out += '\n';
  return out;
}

/// write_chrome_trace's document for `events`, or the reference's in the
/// exporter's layout.
std::string chrome_text(const std::vector<obs::TraceEvent>& events,
                        const obs::ChromeTraceOptions& options,
                        bool reference = false) {
  std::ostringstream out;
  if (reference) {
    reference_chrome_trace(out, events, options);
    return one_event_per_line(out.str());
  }
  obs::write_chrome_trace(out, events, options);
  return out.str();
}

/// Empty when the exporter writes the reference's bytes; otherwise where
/// the two documents part, with a little context from each.
std::string reference_mismatch(const std::vector<obs::TraceEvent>& events,
                               const obs::ChromeTraceOptions& options) {
  const std::string got = chrome_text(events, options);
  const std::string want = chrome_text(events, options, true);
  if (got == want) return {};
  const auto [at, unused] =
      std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  const auto offset = static_cast<std::size_t>(at - got.begin());
  const std::size_t from = offset < 80 ? 0 : offset - 80;
  return "sizes " + std::to_string(got.size()) + " vs " +
         std::to_string(want.size()) + ", first difference at byte " +
         std::to_string(offset) + "\n--- exporter:\n" +
         got.substr(from, 160) + "\n--- reference:\n" + want.substr(from, 160);
}

/// burst_jobs() with every deadline at a fifth of its slack: under degrade
/// admission and SRPT at k = 1 the stream degrades and preempts.
std::vector<online::Job> tight_burst_jobs() {
  std::vector<online::Job> jobs = burst_jobs();
  for (online::Job& job : jobs) {
    job.deadline = job.arrival + 0.2 * (job.deadline - job.arrival);
  }
  return jobs;
}

/// The traces the differential tests export: a qos k = 1 stream that
/// degrades and preempts, a qos k = 2 stream, and an online shared-master
/// stream.
std::vector<std::vector<obs::TraceEvent>> server_traces() {
  const platform::Platform plat = test_platform();
  std::vector<std::vector<obs::TraceEvent>> traces;

  obs::TraceRecorder serial;
  qos::ServerOptions serial_options =
      qos_options(sim::CommModelKind::kOnePort, 1);
  serial_options.admission.mode = qos::AdmissionMode::kDegrade;
  serial_options.trace = &serial;
  qos::SrptPolicy srpt;
  (void)qos::Server(plat, serial_options).run(tight_burst_jobs(), srpt);
  traces.push_back(serial.events());

  obs::TraceRecorder shared;
  qos::ServerOptions shared_options =
      qos_options(sim::CommModelKind::kBoundedMultiport, 2);
  shared_options.trace = &shared;
  (void)qos::Server(plat, shared_options).run(burst_jobs(), srpt);
  traces.push_back(shared.events());

  obs::TraceRecorder online_trace;
  online::ServerOptions online_opts =
      online_options(sim::CommModelKind::kBoundedMultiport,
                     online::MasterMode::kSharedMaster);
  online_opts.trace = &online_trace;
  const online::FairShareScheduler fair(2);
  (void)online::Server(plat, online_opts).run(burst_jobs(), fair);
  traces.push_back(online_trace.events());
  return traces;
}

TEST(ChromeExport, MatchesTheReferenceOnServerTraces) {
  const std::vector<std::vector<obs::TraceEvent>> traces = server_traces();
  const auto count = [&](obs::EventKind kind) {
    return std::count_if(
        traces[0].begin(), traces[0].end(),
        [kind](const obs::TraceEvent& event) { return event.kind == kind; });
  };
  ASSERT_GT(count(obs::EventKind::kDegrade), 0) << "k = 1 must degrade";
  ASSERT_GT(count(obs::EventKind::kPreempt), 0) << "k = 1 must preempt";
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const obs::CriticalPath path(traces[t]);
    ASSERT_FALSE(path.jobs().empty());
    for (const bool with_path : {false, true}) {
      for (const std::size_t workers : {std::size_t{0}, std::size_t{6}}) {
        SCOPED_TRACE("trace " + std::to_string(t) + ", critical path " +
                     std::to_string(with_path) + ", workers " +
                     std::to_string(workers));
        obs::ChromeTraceOptions options;
        options.workers = workers;
        options.critical_path = with_path ? &path : nullptr;
        EXPECT_EQ(reference_mismatch(traces[t], options), "");
      }
    }
  }
}

TEST(ChromeExport, MatchesTheReferenceOnEdgeCases) {
  // The pinned stream, with and without its critical path.
  const std::vector<obs::TraceEvent> pinned = pinned_events();
  const obs::CriticalPath path(pinned);
  obs::ChromeTraceOptions options;
  options.label = "pin";
  EXPECT_EQ(reference_mismatch(pinned, options), "");
  options.critical_path = &path;
  EXPECT_EQ(reference_mismatch(pinned, options), "");

  // A label that needs every kind of escape reaches the metadata names
  // through JsonWriter's escaping.
  options.label = std::string("q\"uote \\ back\nline \x01 ctl");
  EXPECT_EQ(reference_mismatch(pinned, options), "");
  const std::string escaped = chrome_text(pinned, options);
  EXPECT_NE(escaped.find(R"(q\"uote \\ back\nline \u0001 ctl workers)"),
            std::string::npos);

  // Non-finite args print null, a -0.0 arg is left out like 0.0, and an
  // event with nothing to say prints an empty args object. Equal
  // timestamps keep their emission order.
  std::vector<obs::TraceEvent> odd;
  obs::TraceEvent compute =
      make_event(obs::EventKind::kCompute, 1.0, 2.0, 0, 1, 0);
  compute.size = std::numeric_limits<double>::quiet_NaN();
  compute.alpha = -0.0;
  compute.value = std::numeric_limits<double>::infinity();
  odd.push_back(compute);
  obs::TraceEvent bare;
  bare.kind = obs::EventKind::kRerate;
  bare.start = bare.end = 1.0;
  odd.push_back(bare);
  obs::TraceEvent negative =
      make_event(obs::EventKind::kPreempt, 1.0, 1.0, 0, 1);
  negative.value = -std::numeric_limits<double>::infinity();
  odd.push_back(negative);
  obs::ChromeTraceOptions plain;
  EXPECT_EQ(reference_mismatch(odd, plain), "");
  const std::string text = chrome_text(odd, plain);
  EXPECT_NE(text.find("\"size\":null"), std::string::npos);
  EXPECT_NE(text.find("\"value\":null"), std::string::npos);
  EXPECT_EQ(text.find("\"alpha\""), std::string::npos);
  EXPECT_NE(text.find("\"args\":{}"), std::string::npos);

  // No events at all: only the metadata rows.
  EXPECT_EQ(reference_mismatch({}, plain), "");
}

// Under a comma-decimal C locale (de_DE) the exporter still prints '.'
// and the reference's bytes. Minimal hosts ship no such locale; the
// comma_locale ctest fixture compiles one and runs this test through
// LOCPATH, and without one the test skips.
TEST(ChromeExport, MatchesTheReferenceUnderACommaLocale) {
  const std::vector<std::vector<obs::TraceEvent>> traces = server_traces();
  const obs::CriticalPath path(traces[0]);
  obs::ChromeTraceOptions options;
  options.critical_path = &path;
  const std::string in_c_locale = chrome_text(traces[0], options);

  const char* previous = std::setlocale(LC_ALL, nullptr);  // nldl-lint: allow(locale): the comma-locale regression test saves the locale it switches away from
  const std::string saved = previous != nullptr ? previous : "C";
  if (std::setlocale(LC_ALL, "de_DE.UTF-8") == nullptr) {  // nldl-lint: allow(locale): the comma-locale regression test forces a comma-decimal locale
    GTEST_SKIP() << "no de_DE.UTF-8 locale on this host";
  }
  char decimal[8];
  std::snprintf(decimal, sizeof(decimal), "%.1f", 0.5);
  const std::string mismatch = reference_mismatch(traces[0], options);
  const std::string in_comma_locale = chrome_text(traces[0], options);
  std::setlocale(LC_ALL, saved.c_str());  // nldl-lint: allow(locale): the comma-locale regression test restores the locale it found
  EXPECT_STREQ(decimal, "0,5") << "the locale must print a comma";
  EXPECT_EQ(mismatch, "");
  EXPECT_EQ(in_comma_locale, in_c_locale);
}

TEST(ChromeExport, OneRecordPerLine) {
  // The header line, one line per record (each a JSON object on its own
  // once its trailing comma is dropped; the last has none), and "]}".
  for (const std::vector<obs::TraceEvent>& events : server_traces()) {
    const obs::CriticalPath path(events);
    for (const bool with_path : {false, true}) {
      SCOPED_TRACE("critical path " + std::to_string(with_path));
      obs::ChromeTraceOptions options;
      options.critical_path = with_path ? &path : nullptr;
      const std::string text = chrome_text(events, options);
      const obs::ValidationResult result =
          obs::validate_chrome_trace_text(text);
      ASSERT_TRUE(result) << result.error;
      ASSERT_EQ(text.back(), '\n');
      std::vector<std::string_view> lines;
      const std::string_view view(text);
      for (std::size_t at = 0; at < view.size();) {
        const std::size_t end = view.find('\n', at);
        lines.push_back(view.substr(at, end - at));
        at = end + 1;
      }
      ASSERT_EQ(lines.size(), result.events + 2);
      EXPECT_EQ(lines.front(), R"({"displayTimeUnit":"ms","traceEvents":[)");
      EXPECT_EQ(lines.back(), "]}");
      for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
        std::string_view line = lines[i];
        const bool last = i + 2 == lines.size();
        ASSERT_FALSE(line.empty()) << "line " << i;
        EXPECT_EQ(line.back() == ',', !last) << "line " << i << ": " << line;
        if (!last) line.remove_suffix(1);
        util::JsonValue record;
        ASSERT_NO_THROW(record = util::parse_json(line))
            << "line " << i << ": " << line;
        EXPECT_TRUE(record.is_object()) << "line " << i << ": " << line;
      }
    }
  }
}

// --- attribution -------------------------------------------------------------

TEST(Attribution, PartitionCoversWorkerSeconds) {
  const platform::Platform plat = test_platform();
  obs::TraceRecorder recorder;
  qos::ServerOptions options =
      qos_options(sim::CommModelKind::kBoundedMultiport, 2);
  options.trace = &recorder;
  const qos::Server server(plat, options);
  qos::SrptPolicy srpt;
  (void)server.run(burst_jobs(), srpt);

  const obs::Attribution attribution =
      obs::attribute_time(recorder.events(), plat.size());
  ASSERT_GT(attribution.span_events, 0u);
  EXPECT_GT(attribution.comm, 0.0);
  EXPECT_GT(attribution.compute, 0.0);
  EXPECT_GE(attribution.idle, 0.0);
  // comm + compute + restart + idle partitions workers × horizon.
  const double accounted = attribution.comm + attribution.compute +
                           attribution.restart + attribution.idle;
  EXPECT_NEAR(accounted, attribution.total(),
              1e-9 * attribution.total());
  EXPECT_GE(attribution.coverage(), 0.99);

  const std::string summary =
      obs::render_attribution(attribution, "unit");
  EXPECT_NE(summary.find("comm (exclusive)"), std::string::npos);
  EXPECT_NE(summary.find("restart re-work"), std::string::npos);
}

TEST(Attribution, ZeroHorizonAndZeroLengthSpans) {
  // No events, so no horizon: nothing to attribute, coverage is vacuously
  // full (no division by the zero total).
  const obs::Attribution empty = obs::attribute_time({}, 3);
  EXPECT_EQ(empty.horizon, 0.0);
  EXPECT_EQ(empty.total(), 0.0);
  EXPECT_EQ(empty.coverage(), 1.0);

  // Cancelled (zero-length) spans contribute no worker-seconds; the
  // inferred horizon still extends to their timestamp, so the lane is
  // pure idle.
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent cancelled;
  cancelled.kind = obs::EventKind::kCompute;
  cancelled.start = 5.0;
  cancelled.end = 5.0;
  cancelled.worker = 0;
  cancelled.job = 0;
  events.push_back(cancelled);
  const obs::Attribution degenerate = obs::attribute_time(events, 1);
  EXPECT_EQ(degenerate.horizon, 5.0);
  EXPECT_EQ(degenerate.compute, 0.0);
  EXPECT_EQ(degenerate.idle, 5.0);
  EXPECT_EQ(degenerate.coverage(), 1.0);
}

TEST(Attribution, AllIdleWorkersWithInstantOnlyStream) {
  // A stream of scheduler instants carries no worker spans: every lane
  // is idle across the horizon they imply.
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent instant;
  instant.kind = obs::EventKind::kRerate;
  instant.start = instant.end = 8.0;
  events.push_back(instant);
  const obs::Attribution attribution = obs::attribute_time(events, 2);
  EXPECT_EQ(attribution.span_events, 0u);
  EXPECT_EQ(attribution.comm, 0.0);
  EXPECT_EQ(attribution.compute, 0.0);
  EXPECT_EQ(attribution.restart, 0.0);
  EXPECT_EQ(attribution.idle, 16.0);
  EXPECT_EQ(attribution.coverage(), 1.0);
}

// --- metrics registry --------------------------------------------------------

TEST(MetricsRegistry, FirstTouchOrderAndTypes) {
  obs::MetricsRegistry registry;
  registry.counter("b.count") += 2;
  registry.gauge("a.gauge") = 1.5;
  registry.counter("c.count") += 1;
  registry.counter("b.count") += 3;

  EXPECT_EQ(registry.names(),
            (std::vector<std::string>{"b.count", "a.gauge", "c.count"}));
  EXPECT_EQ(registry.counter_value("b.count"), 5u);
  EXPECT_EQ(registry.gauge_value("a.gauge"), 1.5);
  EXPECT_TRUE(registry.contains("c.count"));
  EXPECT_FALSE(registry.contains("missing"));
  EXPECT_THROW((void)registry.counter_value("missing"),
               util::PreconditionError);
  EXPECT_THROW((void)registry.counter_value("a.gauge"),
               util::PreconditionError);
  EXPECT_THROW((void)registry.gauge_value("b.count"),
               util::PreconditionError);
  // The type is fixed on first use.
  EXPECT_THROW((void)registry.gauge("b.count"), util::PreconditionError);
}

TEST(MetricsRegistry, WriteJsonIsOrdered) {
  obs::MetricsRegistry a;
  a.counter("events") += 15;
  a.gauge("seconds") = 2.0;

  std::ostringstream out;
  {
    util::JsonWriter json(out);
    a.write_json(json);
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("\"events\": 15"), std::string::npos);
  EXPECT_NE(text.find("\"seconds\": 2"), std::string::npos);
  EXPECT_LT(text.find("\"events\""), text.find("\"seconds\""));
}

TEST(MetricsRegistry, ServersAccountIntoRegistry) {
  const platform::Platform plat = test_platform();
  const std::vector<online::Job> jobs = burst_jobs();

  obs::MetricsRegistry online_metrics;
  const online::Server server(
      plat, online_options(sim::CommModelKind::kBoundedMultiport,
                           online::MasterMode::kSharedMaster));
  const online::FairShareScheduler fair(2);
  (void)server.run(jobs, fair, &online_metrics);
  EXPECT_GT(online_metrics.counter_value("replay.engine_events"), 0u);
  EXPECT_GT(online_metrics.counter_value("replay.busy_periods"), 0u);

  obs::MetricsRegistry qos_metrics;
  const qos::Server qos_server(
      plat, qos_options(sim::CommModelKind::kParallelLinks, 1));
  qos::SrptPolicy srpt;
  const auto records = qos_server.run(jobs, srpt, &qos_metrics);
  std::size_t preemptions = 0;
  for (const qos::JobRecord& record : records) {
    preemptions += record.preemptions;
  }
  EXPECT_EQ(qos_metrics.counter_value("qos.admitted") +
                qos_metrics.counter_value("qos.rejected"),
            records.size());
  EXPECT_EQ(qos_metrics.counter_value("qos.preemptions"), preemptions);
  EXPECT_GE(qos_metrics.gauge_value("qos.restart_time_s"), 0.0);
  // At k = 1 no shared replay runs, so the layout is the outcome block
  // alone; k > 1 appends the replay counters.
  const std::vector<std::string> outcomes{
      "qos.admitted",        "qos.degraded",    "qos.rejected",
      "qos.deadline_misses", "qos.preemptions", "qos.restart_time_s"};
  EXPECT_EQ(qos_metrics.names(), outcomes);
  obs::MetricsRegistry shared_metrics;
  qos::SrptPolicy shared_srpt;
  (void)qos::Server(plat, qos_options(sim::CommModelKind::kParallelLinks, 2))
      .run(jobs, shared_srpt, &shared_metrics);
  std::vector<std::string> with_replay = outcomes;
  with_replay.insert(with_replay.end(),
                     {"replay.engine_events", "replay.replays",
                      "replay.busy_periods"});
  EXPECT_EQ(shared_metrics.names(), with_replay);
}

// --- metrics JSON validation -------------------------------------------------

TEST(MetricsValidation, AcceptsRegistryDumpsRejectsMalformed) {
  obs::MetricsRegistry registry;
  registry.counter("events") += 3;
  registry.gauge("seconds") = 1.5;
  registry.gauge("lat.p95") = 2.0;
  std::ostringstream out;
  {
    util::JsonWriter json(out);
    registry.write_json(json);
    EXPECT_TRUE(json.complete());
  }
  const obs::ValidationResult ok =
      obs::validate_metrics_json(util::parse_json(out.str()));
  EXPECT_TRUE(ok) << ok.error;
  EXPECT_EQ(ok.events, 3u);

  // Root must be an object.
  EXPECT_FALSE(obs::validate_metrics_json(util::parse_json("[]")));
  // Every member must be a number: strings, arrays and objects (a
  // {"q", "count"} quantile object among them) are rejected.
  EXPECT_FALSE(obs::validate_metrics_json(
      util::parse_json(R"({"name": "oops"})")));
  EXPECT_FALSE(obs::validate_metrics_json(util::parse_json(R"({"v": [1]})")));
  const obs::ValidationResult quantile = obs::validate_metrics_json(
      util::parse_json(R"({"n": 1, "lat": {"q": 0.95, "count": 0}})"));
  EXPECT_FALSE(quantile);
  EXPECT_EQ(quantile.error, "metric 'lat': not a number");
  EXPECT_TRUE(obs::validate_metrics_json(util::parse_json("{}")));
}

// --- deterministic-payload diff ---------------------------------------------

obs::PayloadComparison diff(const std::string& a, const std::string& b,
                            double rel_tol) {
  return obs::compare_deterministic_payload(util::parse_json(a),
                                            util::parse_json(b), rel_tol);
}

constexpr const char* kPayload =
    R"({"deterministic": {"name": "cell", "ok": true, "none": null,
        "points": [{"p50": 1.5, "jobs": 40}, {"p50": 2.25, "jobs": 41}]},
       "measured": {"wall_s": 1.0}})";

TEST(PayloadDiff, IdenticalPayloadsMatchAtZeroTolerance) {
  // Whitespace and the measured sidecar are ignored by design.
  const std::string other =
      R"({"deterministic":{"name":"cell","ok":true,"none":null,)"
      R"("points":[{"p50":1.5,"jobs":40},{"p50":2.25,"jobs":41}]},)"
      R"("measured":{"wall_s":7.0}})";
  const obs::PayloadComparison result = diff(kPayload, other, 0.0);
  EXPECT_TRUE(result);
  EXPECT_EQ(result.leaves, 7u);
  EXPECT_EQ(result.moved, 0u);
  EXPECT_TRUE(result.max_path.empty());
  // At zero tolerance one ulp is a difference.
  EXPECT_FALSE(diff(R"({"deterministic": 0.1})",
                    R"({"deterministic": 0.10000000000000002})", 0.0));
}

TEST(PayloadDiff, NumberMovedWithinToleranceIsReported) {
  const std::string moved =
      R"({"deterministic": {"name": "cell", "ok": true, "none": null,
          "points": [{"p50": 1.5, "jobs": 40},
                     {"p50": 2.2500000001, "jobs": 41}]}})";
  const obs::PayloadComparison within = diff(kPayload, moved, 1e-8);
  EXPECT_TRUE(within);
  EXPECT_EQ(within.moved, 1u);
  EXPECT_EQ(within.max_path, "deterministic.points[1].p50");
  EXPECT_NEAR(within.max_relative, 1e-10 / 2.2500000001, 1e-15);
  // The default tolerance is the bitwise check.
  EXPECT_FALSE(obs::compare_deterministic_payload(util::parse_json(kPayload),
                                                  util::parse_json(moved)));
}

TEST(PayloadDiff, NumberMovedBeyondToleranceFailsWithBothValues) {
  const std::string moved =
      R"({"deterministic": {"name": "cell", "ok": true, "none": null,
          "points": [{"p50": 1.6, "jobs": 40}, {"p50": 2.25, "jobs": 41}]}})";
  const obs::PayloadComparison result = diff(kPayload, moved, 1e-8);
  EXPECT_FALSE(result);
  ASSERT_EQ(result.beyond.size(), 1u);
  EXPECT_TRUE(result.mismatches.empty());
  EXPECT_EQ(result.beyond[0].path, "deterministic.points[0].p50");
  EXPECT_EQ(result.beyond[0].a, "1.5");
  EXPECT_EQ(result.beyond[0].b, "1.6");
  EXPECT_TRUE(diff(kPayload, moved, 0.1));
}

TEST(PayloadDiff, IntegerChangeFailsAtAnyTolerance) {
  // 1e9 -> 1e9 + 1 is a relative move of 1e-9, inside 1e-8, but a count
  // or digest that changes at all is a discrete difference.
  const std::string before =
      R"({"deterministic": {"busy_periods": 1000000000, "share": 0.5}})";
  const std::string after =
      R"({"deterministic": {"busy_periods": 1000000001, "share": 0.5}})";
  const obs::PayloadComparison result = diff(before, after, 1e-8);
  EXPECT_FALSE(result);
  ASSERT_EQ(result.beyond.size(), 1u);
  EXPECT_EQ(result.beyond[0].path, "deterministic.busy_periods");
  EXPECT_EQ(result.beyond[0].a, "1e+09");
  EXPECT_EQ(result.beyond[0].b, "1000000001");
}

TEST(PayloadDiff, MissingKeyIsAStructuralMismatch) {
  const std::string fewer =
      R"({"deterministic": {"name": "cell", "ok": true, "none": null,
          "points": [{"p50": 1.5}, {"p50": 2.25, "jobs": 41}]}})";
  const obs::PayloadComparison result = diff(kPayload, fewer, 1.0);
  EXPECT_FALSE(result);
  EXPECT_TRUE(result.beyond.empty());
  ASSERT_EQ(result.mismatches.size(), 1u);
  EXPECT_EQ(result.mismatches[0].path, "deterministic.points[0].jobs");
  EXPECT_EQ(result.mismatches[0].what, "key missing");
  // Members both sides have are still compared.
  EXPECT_EQ(result.leaves, 6u);
  // Same keys in another order fail too, as the bitwise check did.
  EXPECT_FALSE(diff(R"({"deterministic": {"a": 1, "b": 2}})",
                    R"({"deterministic": {"b": 2, "a": 1}})", 1.0));
  // So does a document without a payload.
  EXPECT_FALSE(diff(kPayload, R"({"measured": {}})", 1.0));
}

TEST(PayloadDiff, ArrayLengthAndScalarKindsAreStructural) {
  const std::string shorter =
      R"({"deterministic": {"name": "cell", "ok": true, "none": null,
          "points": [{"p50": 1.5, "jobs": 40}]}})";
  const obs::PayloadComparison result = diff(kPayload, shorter, 1.0);
  EXPECT_FALSE(result);
  ASSERT_EQ(result.mismatches.size(), 1u);
  EXPECT_EQ(result.mismatches[0].path, "deterministic.points");
  EXPECT_EQ(result.mismatches[0].what, "array length differs");

  const std::string changed =
      R"({"deterministic": {"name": "cell2", "ok": false, "none": 0,
          "points": [{"p50": 1.5, "jobs": 40}, {"p50": 2.25, "jobs": 41}]}})";
  const obs::PayloadComparison scalars = diff(kPayload, changed, 1.0);
  EXPECT_FALSE(scalars);
  ASSERT_EQ(scalars.mismatches.size(), 3u);
  EXPECT_EQ(scalars.mismatches[0].what, "string differs");
  EXPECT_EQ(scalars.mismatches[0].a, "\"cell\"");
  EXPECT_EQ(scalars.mismatches[0].b, "\"cell2\"");
  EXPECT_EQ(scalars.mismatches[1].what, "boolean differs");
  EXPECT_EQ(scalars.mismatches[2].what, "kind differs");
  EXPECT_THROW((void)diff(kPayload, kPayload, -1.0), util::PreconditionError);
}

// --- event-kind round trip ---------------------------------------------------

TEST(TraceContent, KindNamesRoundTripThroughStrings) {
  for (const obs::EventKind kind :
       {obs::EventKind::kTransfer, obs::EventKind::kArrival,
        obs::EventKind::kAlert, obs::EventKind::kDeadlineMiss,
        obs::EventKind::kCheckpoint}) {
    obs::EventKind parsed = obs::EventKind::kTransfer;
    EXPECT_TRUE(obs::event_kind_from_string(obs::to_string(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  obs::EventKind parsed = obs::EventKind::kTransfer;
  EXPECT_FALSE(obs::event_kind_from_string("no_such_kind", parsed));
}

// --- event-stream ascii gantt ------------------------------------------------

TEST(EventGantt, MultiJobGlyphsAndReleaseMarkers) {
  std::vector<obs::TraceEvent> events;
  const auto span = [&](obs::EventKind kind, double start, double end,
                        std::size_t worker, std::size_t job) {
    obs::TraceEvent event;
    event.kind = kind;
    event.start = start;
    event.end = end;
    event.worker = worker;
    event.job = job;
    events.push_back(event);
  };
  // Job 0 ('A') on worker 0, job 1 ('B') on worker 1, receive spans,
  // overlapping compute of both jobs on worker 0 (the '*' mixed cell),
  // and two dispatch instants for the release markers.
  span(obs::EventKind::kTransfer, 0.0, 2.0, 0, 0);
  span(obs::EventKind::kCompute, 2.0, 10.0, 0, 0);
  span(obs::EventKind::kCompute, 8.0, 10.0, 0, 1);  // overlap → '*'
  span(obs::EventKind::kTransfer, 5.0, 6.0, 1, 1);
  span(obs::EventKind::kCompute, 6.0, 14.0, 1, 1);
  obs::TraceEvent dispatch;
  dispatch.kind = obs::EventKind::kDispatch;
  dispatch.start = dispatch.end = 0.0;
  events.push_back(dispatch);
  dispatch.start = dispatch.end = 5.0;
  events.push_back(dispatch);

  const std::string gantt = sim::ascii_gantt(events, 2, 40);
  EXPECT_NE(gantt.find("releases"), std::string::npos);
  EXPECT_NE(gantt.find('v'), std::string::npos);
  EXPECT_NE(gantt.find('A'), std::string::npos);
  EXPECT_NE(gantt.find('B'), std::string::npos);
  EXPECT_NE(gantt.find('*'), std::string::npos);
  EXPECT_NE(gantt.find('-'), std::string::npos);
  EXPECT_NE(gantt.find("w0"), std::string::npos);
  EXPECT_NE(gantt.find("w1"), std::string::npos);

  // Without dispatch events there is no releases header row.
  events.resize(events.size() - 2);
  const std::string bare = sim::ascii_gantt(events, 2, 40);
  EXPECT_EQ(bare.find("releases"), std::string::npos);
}

TEST(EventGantt, NarrowWidthDownsamplesWideCharts) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent span;
  span.kind = obs::EventKind::kCompute;
  span.start = 0.0;
  span.end = 100.0;
  span.worker = 0;
  span.job = 0;
  events.push_back(span);

  const std::string wide = sim::ascii_gantt(events, 1, 72);
  const std::string narrow = sim::ascii_gantt(events, 1, 24);
  EXPECT_GT(wide.find('\n'), narrow.find('\n'));  // shorter rows
  EXPECT_NE(narrow.find('A'), std::string::npos);
}

// --- arrival / alert instants ------------------------------------------------

TEST(ChromeExport, ArrivalAndAlertInstantsRouteToTheirTracks) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent arrival;
  arrival.kind = obs::EventKind::kArrival;
  arrival.start = arrival.end = 1.0;
  arrival.job = 3;
  arrival.tenant = 1;
  arrival.value = 2.0;  // two jobs ahead in the queue
  events.push_back(arrival);
  obs::TraceEvent alert;
  alert.kind = obs::EventKind::kAlert;
  alert.start = alert.end = 4.0;
  alert.value = 15.0;
  events.push_back(alert);

  std::ostringstream out;
  obs::write_chrome_trace(out, events, {});
  const std::string text = out.str();
  const obs::ValidationResult result = obs::validate_chrome_trace_text(text);
  EXPECT_TRUE(result) << result.error;
  EXPECT_NE(text.find("\"arrival\""), std::string::npos);
  EXPECT_NE(text.find("\"alert\""), std::string::npos);
  // kArrival is a job-track instant (pid 2), kAlert a scheduler-track
  // instant (pid 3).
  EXPECT_LT(text.find("\"arrival\""), text.find("\"alert\""));
  EXPECT_NE(text.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(text.find("\"pid\":3"), std::string::npos);

  // Server arrivals survive the export→parse round trip.
  const std::vector<obs::TraceEvent> decoded =
      obs::events_from_chrome_trace(text);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].kind, obs::EventKind::kArrival);
  EXPECT_EQ(decoded[0].job, 3u);
  EXPECT_EQ(decoded[0].value, 2.0);
  EXPECT_EQ(decoded[1].kind, obs::EventKind::kAlert);
  EXPECT_EQ(decoded[1].value, 15.0);
}

TEST(ChromeImport, StreamMatchesTheTreeOnPinnedAndServerTraces) {
  // The one-pass readers against the document-tree oracle on the pinned
  // bytes and on the three server traces, each exported with its
  // critical path.
  oracle::expect_matches_tree(kPinnedChromeTrace);
  for (const std::vector<obs::TraceEvent>& events : server_traces()) {
    const obs::CriticalPath path(events);
    obs::ChromeTraceOptions options;
    options.critical_path = &path;
    const std::string text = chrome_text(events, options);
    ASSERT_TRUE(obs::validate_chrome_trace_text(text));
    oracle::expect_matches_tree(text);
  }
}

/// A seeded event stream for the export round trip. It holds every
/// EventKind, with starts drawn from a small grid (so they tie) in random
/// order (so they decrease), kNoIndex and indices up to 2^53 − 1, and
/// args of ±0, NaN, ±inf, subnormals, ±1e300 and ordinary values. Each
/// kJob span has a job id of its own, because the decoder pairs B and E
/// per track, last open first, and that job's arrival and verdict
/// instants come no later than its dispatch, as a server records them;
/// most served jobs finish on a compute span of their own. With
/// `large_workers`, worker indices reach 2^53 − 1 as well.
std::vector<obs::TraceEvent> generated_events(std::uint64_t seed,
                                              bool large_workers) {
  constexpr std::size_t kTop = (std::size_t{1} << 53) - 1;
  constexpr std::size_t kKinds =
      static_cast<std::size_t>(obs::EventKind::kAlert) + 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> times{0.0, 4.9e-324, 0.25, 1.0 / 3.0, 1.5,
                                  2.0, 7.125,    1e3};
  const std::vector<double> args{
      0.0,      -0.0,    std::numeric_limits<double>::quiet_NaN(),
      kInf,     -kInf,   std::numeric_limits<double>::denorm_min(),
      -2.2250738585072009e-308, 1e300, -1e300, 0.5, 3.0};
  const std::vector<std::size_t> indices{obs::kNoIndex, 0, 1, 7, kTop,
                                         (std::size_t{1} << 40) + 3};
  const std::vector<std::size_t> workers =
      large_workers ? std::vector<std::size_t>{0, 3, kTop, std::size_t{1} << 45}
                    : std::vector<std::size_t>{0, 1, 2, 3};

  util::Rng rng(seed);
  const auto pick = [&rng](const auto& values) {
    return values[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
  };
  const auto draw_time = [&] {
    return rng.uniform() < 0.6 ? pick(times) : rng.uniform(0.0, 50.0);
  };
  const std::size_t count =
      kKinds + static_cast<std::size_t>(rng.uniform_int(0, 40));
  std::vector<obs::TraceEvent> events;
  std::size_t served = 0;  // kJob spans so far
  for (std::size_t i = 0; i < count; ++i) {
    obs::TraceEvent event;
    event.kind = static_cast<obs::EventKind>(
        i < kKinds ? i : static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(kKinds) - 1)));
    event.start = draw_time();
    event.end = event.start;
    event.job = pick(indices);
    event.tenant = pick(indices);
    event.worker = rng.uniform() < 0.5 ? obs::kNoIndex : pick(workers);
    switch (event.kind) {
      case obs::EventKind::kTransfer:
      case obs::EventKind::kCompute:
        event.worker = pick(workers);
        [[fallthrough]];
      case obs::EventKind::kInstallment:
      case obs::EventKind::kRestart: {
        // Zero-length spans, and now and then an end before the start,
        // which the export clips to a zero dur.
        const double u = rng.uniform();
        event.end = event.start + (u < 0.1   ? -1.0
                                   : u < 0.3 ? 0.0
                                             : rng.uniform(0.0, 10.0));
        break;
      }
      case obs::EventKind::kJob:
        // Ids 0, 2^53 − 1, 1, 2^53 − 2, ...: distinct, small and large.
        event.job = served % 2 == 0 ? served / 2 : kTop - served / 2;
        ++served;
        event.end = event.start + rng.uniform(0.0, 20.0);
        break;
      default:
        break;
    }
    event.size = pick(args);
    event.alpha = pick(args);
    event.value = pick(args);
    events.push_back(event);
  }
  // A served job's arrival and verdict come no later than its dispatch,
  // and most served jobs end with a transfer and a compute of their own on
  // one worker, so the critical path runs through worker spans.
  std::map<std::size_t, double> dispatch;
  for (std::size_t i = 0, jobs = events.size(); i < jobs; ++i) {
    const obs::TraceEvent job = events[i];
    if (job.kind != obs::EventKind::kJob) continue;
    dispatch[job.job] = job.start;
    if (rng.uniform() < 0.3) continue;
    obs::TraceEvent chunk = job;
    chunk.worker = pick(workers);
    chunk.kind = obs::EventKind::kTransfer;
    chunk.end = job.start + 0.5 * (job.end - job.start);
    events.push_back(chunk);
    chunk.kind = obs::EventKind::kCompute;
    chunk.start = chunk.end;
    chunk.end = job.end;
    events.push_back(chunk);
  }
  for (obs::TraceEvent& event : events) {
    const bool verdict = event.kind == obs::EventKind::kArrival ||
                         event.kind == obs::EventKind::kAdmit ||
                         event.kind == obs::EventKind::kDegrade;
    const auto it = dispatch.find(event.job);
    if (verdict && it != dispatch.end()) {
      event.start = event.end = std::min(event.start, it->second);
    }
  }
  return events;
}

/// What the decoder must return for one exported event: the same kind and
/// indices; times through the exporter's microseconds and back (ts/1e6,
/// an X end as start + dur/1e6, a B/E pair's end from its E); a finite,
/// nonzero arg bit for bit, and +0 for an arg the export leaves out (±0)
/// or prints as null (NaN, ±inf).
obs::TraceEvent expected_decode(const obs::TraceEvent& event) {
  constexpr double kMicros = 1e6;
  constexpr double kSeconds = 1e-6;
  const auto arg = [](double value) {
    return std::isfinite(value) && value != 0.0 ? value : 0.0;
  };
  obs::TraceEvent out = event;
  out.start = (event.start * kMicros) * kSeconds;
  switch (event.kind) {
    case obs::EventKind::kTransfer:
    case obs::EventKind::kCompute:
    case obs::EventKind::kInstallment:
    case obs::EventKind::kRestart:
      out.end = out.start +
                (std::max(0.0, event.end - event.start) * kMicros) * kSeconds;
      break;
    case obs::EventKind::kJob:
      out.end = (event.end * kMicros) * kSeconds;
      break;
    default:
      out.end = out.start;
      break;
  }
  out.size = arg(event.size);
  out.alpha = arg(event.alpha);
  out.value = arg(event.value);
  return out;
}

/// An event as a tuple of integers (doubles by their bits), so a stream
/// sorts into one canonical order and compares bit for bit.
using EventBits =
    std::tuple<int, std::uint64_t, std::uint64_t, std::size_t, std::size_t,
               std::size_t, std::uint64_t, std::uint64_t, std::uint64_t>;

std::vector<EventBits> sorted_bits(const std::vector<obs::TraceEvent>& events) {
  std::vector<EventBits> out;
  for (const obs::TraceEvent& e : events) {
    out.emplace_back(static_cast<int>(e.kind),
                     std::bit_cast<std::uint64_t>(e.start),
                     std::bit_cast<std::uint64_t>(e.end), e.job, e.worker,
                     e.tenant, std::bit_cast<std::uint64_t>(e.size),
                     std::bit_cast<std::uint64_t>(e.alpha),
                     std::bit_cast<std::uint64_t>(e.value));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ChromeImport, GeneratedExportsRoundTrip) {
  // Seeded streams, exported with and without their critical-path
  // overlay: each document has the JsonWriter reference's bytes (with the
  // worker count inferred and given), validates, the one-pass readers
  // agree with the tree oracle, and it decodes back to its stream (in any
  // order: the decoder returns a job span at its "E").
  constexpr std::uint64_t kSeeds = 48;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const bool large_workers = seed % 2 == 0;
    const std::vector<obs::TraceEvent> events =
        generated_events(seed, large_workers);
    std::vector<obs::TraceEvent> expected;
    for (const obs::TraceEvent& event : events) {
      expected.push_back(expected_decode(event));
    }
    const obs::CriticalPath path(events);
    for (const bool with_path : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", critical path " +
                   std::to_string(with_path));
      obs::ChromeTraceOptions options;
      options.critical_path = with_path ? &path : nullptr;
      options.workers = 4;
      EXPECT_EQ(reference_mismatch(events, options), "");
      // Worker tracks are inferred, for indices near 2^53 too: only the
      // workers that carry spans are named.
      options.workers = 0;
      EXPECT_EQ(reference_mismatch(events, options), "");
      const std::string text = chrome_text(events, options);
      const obs::ValidationResult result =
          obs::validate_chrome_trace_text(text);
      ASSERT_TRUE(result) << result.error;
      oracle::expect_matches_tree(text);
      const std::vector<obs::TraceEvent> decoded =
          obs::events_from_chrome_trace(text);
      EXPECT_EQ(sorted_bits(decoded), sorted_bits(expected));
    }
  }
}

/// The first double from `from`, stepping by nextafter toward zero, for
/// which `text_of` has `chars` characters (NaN after 1000 steps).
template <typename TextOf>
double first_with_length(double from, std::size_t chars, TextOf text_of) {
  double value = from;
  for (int step = 0; step < 1000; ++step) {
    if (text_of(value).size() == chars) return value;
    value = std::nextafter(value, 0.0);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

TEST(ChromeExport, MatchesTheReferenceAtTheRecordLengthBound) {
  // The longest record the writer prints: an X span with the longest
  // name among span kinds, all six args, indices 2^53 − 1, and numbers
  // whose shortest round-trip texts are the longest there are (24
  // characters negative, 23 positive).
  constexpr std::size_t kTop = (std::size_t{1} << 53) - 1;
  constexpr double kLongest = -2.2250738585072014e-308;
  ASSERT_EQ(util::json_number(kLongest).size(), 24U);
  obs::TraceEvent event;
  event.kind = obs::EventKind::kInstallment;
  // ts = start · 1e6 and dur = (end − start) · 1e6, as the writer prints.
  event.start = first_with_length(-1.2345678901234567e-290, 24,
                                  [](double start) {
                                    return util::json_number(start * 1e6);
                                  });
  event.end = first_with_length(
      1.2345678901234567e-290, 23, [start = event.start](double end) {
        return util::json_number(std::max(0.0, end - start) * 1e6);
      });
  event.job = kTop;
  event.tenant = kTop;
  event.worker = kTop;
  event.size = kLongest;
  event.alpha = kLongest;
  event.value = kLongest;
  ASSERT_EQ(util::json_number(event.start * 1e6).size(), 24U);
  ASSERT_EQ(
      util::json_number(std::max(0.0, event.end - event.start) * 1e6).size(),
      23U);
  obs::ChromeTraceOptions options;
  EXPECT_EQ(reference_mismatch({event}, options), "");
  const std::string text = chrome_text({event}, options);
  EXPECT_NE(text.find(R"("size":-2.2250738585072014e-308,)"
                      R"("alpha":-2.2250738585072014e-308,)"
                      R"("value":-2.2250738585072014e-308}})"),
            std::string::npos);
  // Many of them in a row cross the writer's flush point mid-stream.
  const std::vector<obs::TraceEvent> many(2000, event);
  EXPECT_EQ(reference_mismatch(many, options), "");
}

TEST(ChromeExport, SparseWorkerIndicesNameOnlyTheirTracks) {
  // Spans on one worker far from 0, with the count inferred: the document
  // names that worker's two tracks and no other, stays under 1 KiB,
  // validates and decodes back. (It named every index below the
  // largest + 1: 515,667,501 bytes for worker 3,000,000, and no end for
  // one near 2^53.)
  for (const std::size_t worker :
       {std::size_t{3000000}, (std::size_t{1} << 53) - 2}) {
    SCOPED_TRACE("worker " + std::to_string(worker));
    std::vector<obs::TraceEvent> events;
    obs::TraceEvent transfer =
        make_event(obs::EventKind::kTransfer, 0.5, 1.5, 0, 1, worker);
    transfer.size = 2.0;
    events.push_back(transfer);
    obs::TraceEvent compute =
        make_event(obs::EventKind::kCompute, 1.5, 3.0, 0, 1, worker);
    compute.size = 2.0;
    compute.alpha = 2.0;
    events.push_back(compute);
    const obs::ChromeTraceOptions options;
    const std::string text = chrome_text(events, options);
    EXPECT_LT(text.size(), 1024U);
    const std::string name = "w" + std::to_string(worker);
    EXPECT_NE(text.find("\"" + name + " link\""), std::string::npos);
    EXPECT_NE(text.find("\"" + name + " cpu\""), std::string::npos);
    EXPECT_EQ(text.find("\"w0 link\""), std::string::npos);
    EXPECT_EQ(reference_mismatch(events, options), "");
    const obs::ValidationResult result =
        obs::validate_chrome_trace_text(text);
    ASSERT_TRUE(result) << result.error;
    std::vector<obs::TraceEvent> expected;
    for (const obs::TraceEvent& event : events) {
      expected.push_back(expected_decode(event));
    }
    EXPECT_EQ(sorted_bits(obs::events_from_chrome_trace(text)),
              sorted_bits(expected));
  }
  // A given count keeps naming workers 0 .. count − 1.
  obs::ChromeTraceOptions two;
  two.workers = 2;
  const std::string named = chrome_text(
      {make_event(obs::EventKind::kCompute, 0.0, 1.0, 0, 1, 7)}, two);
  EXPECT_NE(named.find(R"("w1 cpu")"), std::string::npos);
  EXPECT_EQ(named.find(R"("w7 cpu")"), std::string::npos);
}

TEST(ChromeImport, RejectsIndicesThatAreNotWholeNumbers) {
  // The "job", "worker" and "tenant" args become std::size_t indices.
  // Negative, fractional, huge or inexact values fail the schema check
  // and make the decoder throw, each naming the arg, instead of reaching
  // an out-of-range cast.
  const auto trace = [](const std::string& key, const std::string& value) {
    return R"({"traceEvents":[{"name":"transfer","ph":"X","ts":0,"dur":1,)"
           R"("pid":1,"tid":0,"args":{")" +
           key + "\":" + value + "}}]}";
  };
  for (const std::string key : {"job", "worker", "tenant"}) {
    const std::string quoted = "\"" + key + "\"";
    for (const std::string value : {"-1", "1e30", "2.5", "9007199254740992"}) {
      const std::string text = trace(key, value);
      const obs::ValidationResult result =
          obs::validate_chrome_trace_text(text);
      EXPECT_FALSE(result) << text;
      EXPECT_NE(result.error.find(quoted), std::string::npos) << result.error;
      try {
        (void)obs::events_from_chrome_trace(text);
        ADD_FAILURE() << "decoded " << text;
      } catch (const util::PreconditionError& error) {
        EXPECT_NE(std::string(error.what()).find(quoted), std::string::npos)
            << error.what();
      }
    }
    for (const std::string value : {"0", "-0", "9007199254740991"}) {
      const std::string text = trace(key, value);
      const obs::ValidationResult result =
          obs::validate_chrome_trace_text(text);
      EXPECT_TRUE(result) << result.error;
      const std::vector<obs::TraceEvent> events =
          obs::events_from_chrome_trace(text);
      ASSERT_EQ(events.size(), 1u);
      const std::size_t index = key == "job"      ? events[0].job
                                : key == "worker" ? events[0].worker
                                                  : events[0].tenant;
      EXPECT_EQ(index, value == "9007199254740991" ? 9007199254740991u : 0u);
    }
  }
}

TEST(TraceContent, ServersEmitOneArrivalPerOfferedJob) {
  const platform::Platform plat = test_platform();
  const std::vector<online::Job> jobs = burst_jobs();

  obs::TraceRecorder online_recorder;
  online::ServerOptions online_opts =
      online_options(sim::CommModelKind::kParallelLinks,
                     online::MasterMode::kPrivatePort);
  online_opts.trace = &online_recorder;
  const online::Server online_server(plat, online_opts);
  const online::FairShareScheduler fair(2);
  (void)online_server.run(jobs, fair);
  const auto online_arrivals =
      online_recorder.of_kind(obs::EventKind::kArrival);
  ASSERT_EQ(online_arrivals.size(), jobs.size());
  for (const obs::TraceEvent& event : online_arrivals) {
    EXPECT_EQ(event.start, event.end);  // instant, at the arrival time
    EXPECT_NE(event.job, obs::kNoIndex);
    EXPECT_GE(event.value, 0.0);  // queue depth
  }

  obs::TraceRecorder qos_recorder;
  qos::ServerOptions qos_opts =
      qos_options(sim::CommModelKind::kParallelLinks, 1);
  qos_opts.trace = &qos_recorder;
  const qos::Server qos_server(plat, qos_opts);
  qos::SrptPolicy srpt;
  (void)qos_server.run(jobs, srpt);
  EXPECT_EQ(qos_recorder.of_kind(obs::EventKind::kArrival).size(),
            jobs.size());
}

}  // namespace
}  // namespace nldl
