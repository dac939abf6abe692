// Tests for obs::CriticalPath: the five-way blame decomposition sums
// BIT-EXACTLY to each job's observed latency and the path segments tile
// [dispatch, finish] exactly — pinned across all three comm models, both
// servers, and both master modes, and under any numbering of the workers;
// plus contention stall attribution, queue-depth plumbing from kArrival,
// the pid-4 flow export, and the Chrome-trace roundtrip under the
// microsecond tolerance.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "online/scheduler.hpp"
#include "online/server.hpp"
#include "platform/platform.hpp"
#include "qos/policy.hpp"
#include "qos/server.hpp"

namespace nldl {
namespace {

platform::Platform test_platform() {
  return platform::Platform::two_class(6, 1.0, 3.0);
}

std::vector<online::Job> burst_jobs() {
  return {{0, 0.0, 60.0, 2.0, 400.0, 0},  {1, 1.0, 30.0, 1.0, 150.0, 1},
          {2, 2.0, 45.0, 2.0, 500.0, 0},  {3, 15.0, 20.0, 1.0, 90.0, 2},
          {4, 16.0, 80.0, 2.0, 900.0, 1}, {5, 40.0, 25.0, 1.0, 200.0, 2}};
}

const std::vector<sim::CommModelKind> kCommKinds{
    sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
    sim::CommModelKind::kBoundedMultiport};

std::vector<obs::TraceEvent> traced_online(sim::CommModelKind comm,
                                           online::MasterMode master) {
  const platform::Platform plat = test_platform();
  obs::TraceRecorder recorder;
  online::ServerOptions options;
  options.comm = comm;
  if (comm == sim::CommModelKind::kBoundedMultiport) options.capacity = 2.0;
  options.master = master;
  options.trace = &recorder;
  const online::Server server(plat, options);
  const online::FairShareScheduler fair(2);
  (void)server.run(burst_jobs(), fair);
  return recorder.events();
}

std::vector<obs::TraceEvent> traced_qos(sim::CommModelKind comm,
                                        std::size_t concurrency) {
  const platform::Platform plat = test_platform();
  obs::TraceRecorder recorder;
  qos::ServerOptions options;
  options.service.comm = comm;
  if (comm == sim::CommModelKind::kBoundedMultiport) {
    options.service.capacity = 2.0;
  }
  options.service.plan.rounds = 3;
  options.service.plan.restart_load_fraction = 1.0;
  options.concurrency = concurrency;
  options.trace = &recorder;
  const qos::Server server(plat, options);
  qos::SrptPolicy srpt;
  (void)server.run(burst_jobs(), srpt);
  return recorder.events();
}

/// The two pinned invariants, for any event stream and tolerance:
/// components sum bitwise to latency, and the path tiles
/// [dispatch, finish] with bitwise-contiguous segments.
void expect_exact(const std::vector<obs::TraceEvent>& events,
                  double tolerance = 0.0) {
  const obs::CriticalPath analysis(events, tolerance);
  std::size_t served = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.kind == obs::EventKind::kJob) ++served;
  }
  ASSERT_EQ(analysis.jobs().size(), served);
  for (const obs::JobBlame& job : analysis.jobs()) {
    SCOPED_TRACE("job " + std::to_string(job.job));
    EXPECT_EQ(job.total(), job.latency);  // bitwise
    EXPECT_EQ(job.latency, job.finish - job.arrival);
    EXPECT_GE(job.wait, 0.0);
    EXPECT_GE(job.comm, 0.0);
    EXPECT_GE(job.compute, 0.0);
    EXPECT_GE(job.restart, 0.0);
    ASSERT_FALSE(job.path.empty());
    EXPECT_EQ(job.path.front().start, job.dispatch);
    EXPECT_EQ(job.path.back().end, job.finish);
    for (std::size_t i = 0; i + 1 < job.path.size(); ++i) {
      EXPECT_EQ(job.path[i].end, job.path[i + 1].start)
          << "segment " << i << " does not abut its successor";
    }
    for (const obs::PathSegment& segment : job.path) {
      EXPECT_LT(segment.start, segment.end);
    }
  }
}

// --- exactness across the full scenario matrix -------------------------------

TEST(BlameExactness, OnlineAcrossCommModelsAndMasterModes) {
  for (const sim::CommModelKind comm : kCommKinds) {
    for (const online::MasterMode master :
         {online::MasterMode::kPrivatePort,
          online::MasterMode::kSharedMaster}) {
      SCOPED_TRACE(sim::to_string(comm) + " / " + online::to_string(master));
      expect_exact(traced_online(comm, master));
    }
  }
}

TEST(BlameExactness, QosAcrossCommModelsAndConcurrency) {
  for (const sim::CommModelKind comm : kCommKinds) {
    for (const std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(sim::to_string(comm) + " / concurrency " +
                   std::to_string(concurrency));
      expect_exact(traced_qos(comm, concurrency));
    }
  }
}

TEST(BlameExactness, DeterministicAcrossRebuilds) {
  const auto events =
      traced_online(sim::CommModelKind::kBoundedMultiport,
                    online::MasterMode::kSharedMaster);
  const obs::CriticalPath a(events);
  const obs::CriticalPath b(events);
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].wait, b.jobs()[i].wait);
    EXPECT_EQ(a.jobs()[i].comm, b.jobs()[i].comm);
    EXPECT_EQ(a.jobs()[i].compute, b.jobs()[i].compute);
    EXPECT_EQ(a.jobs()[i].restart, b.jobs()[i].restart);
    EXPECT_EQ(a.jobs()[i].stall, b.jobs()[i].stall);
    EXPECT_EQ(a.jobs()[i].path.size(), b.jobs()[i].path.size());
  }
}

TEST(BlameExactness, SparseWorkerIndicesMatchDenseOnes) {
  // CriticalPath and attribute_time keep state only for the workers that
  // carry spans, visited in ascending index order. Spreading the same
  // workers' indices toward 2^53, order kept, must move no blame, segment
  // time or attribution sum by a bit; only the reported indices follow.
  constexpr std::size_t kStride = std::size_t{1} << 50;
  const auto spread = [](std::size_t worker) {
    return worker == obs::kNoIndex ? worker : worker * kStride + worker;
  };
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  std::vector<std::vector<obs::TraceEvent>> streams;
  for (const sim::CommModelKind comm : kCommKinds) {
    for (const online::MasterMode master :
         {online::MasterMode::kPrivatePort,
          online::MasterMode::kSharedMaster}) {
      streams.push_back(traced_online(comm, master));
    }
    streams.push_back(traced_qos(comm, 2));
  }
  for (std::size_t s = 0; s < streams.size(); ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    const std::vector<obs::TraceEvent>& dense = streams[s];
    std::vector<obs::TraceEvent> sparse = dense;
    std::size_t workers = 0;
    for (obs::TraceEvent& event : sparse) {
      if (event.worker != obs::kNoIndex) {
        workers = std::max(workers, event.worker + 1);
      }
      event.worker = spread(event.worker);
    }
    ASSERT_GT(workers, 1u);

    const obs::CriticalPath a(dense);
    const obs::CriticalPath b(sparse);
    ASSERT_EQ(a.jobs().size(), b.jobs().size());
    for (std::size_t j = 0; j < a.jobs().size(); ++j) {
      const obs::JobBlame& x = a.jobs()[j];
      const obs::JobBlame& y = b.jobs()[j];
      SCOPED_TRACE("job " + std::to_string(x.job));
      EXPECT_EQ(x.job, y.job);
      EXPECT_EQ(bits(x.wait), bits(y.wait));
      EXPECT_EQ(bits(x.comm), bits(y.comm));
      EXPECT_EQ(bits(x.compute), bits(y.compute));
      EXPECT_EQ(bits(x.restart), bits(y.restart));
      EXPECT_EQ(bits(x.stall), bits(y.stall));
      EXPECT_EQ(bits(x.latency), bits(y.latency));
      ASSERT_EQ(x.path.size(), y.path.size());
      for (std::size_t i = 0; i < x.path.size(); ++i) {
        EXPECT_EQ(x.path[i].kind, y.path[i].kind);
        EXPECT_EQ(bits(x.path[i].start), bits(y.path[i].start));
        EXPECT_EQ(bits(x.path[i].end), bits(y.path[i].end));
        EXPECT_EQ(spread(x.path[i].worker), y.path[i].worker);
        EXPECT_EQ(x.path[i].via_job, y.path[i].via_job);
      }
    }
    const obs::CriticalPath::Totals ta = a.totals();
    const obs::CriticalPath::Totals tb = b.totals();
    EXPECT_EQ(bits(ta.comm), bits(tb.comm));
    EXPECT_EQ(bits(ta.compute), bits(tb.compute));
    EXPECT_EQ(bits(ta.stall), bits(tb.stall));

    // The worker count is the largest index + 1 on both sides, so only
    // the idle remainder of workers × horizon may differ.
    const obs::Attribution da = obs::attribute_time(dense, 0);
    const obs::Attribution sa = obs::attribute_time(sparse, 0);
    EXPECT_EQ(da.workers, workers);
    EXPECT_EQ(sa.workers, spread(workers - 1) + 1);
    EXPECT_EQ(da.span_events, sa.span_events);
    EXPECT_GT(da.span_events, 0u);
    EXPECT_EQ(bits(da.horizon), bits(sa.horizon));
    EXPECT_EQ(bits(da.comm), bits(sa.comm));
    EXPECT_EQ(bits(da.compute), bits(sa.compute));
    EXPECT_EQ(bits(da.restart), bits(sa.restart));
  }
}

// --- attribution content -----------------------------------------------------

TEST(Blame, ContentionChargesStallAndRestart) {
  // Concurrent qos on the shared bounded-multiport master: jobs gate on
  // each other's transfers and preempted jobs pay restart re-work, so
  // the aggregate must carry both buckets.
  const obs::CriticalPath analysis(
      traced_qos(sim::CommModelKind::kBoundedMultiport, 2));
  const obs::CriticalPath::Totals totals = analysis.totals();
  ASSERT_GT(totals.jobs, 0u);
  EXPECT_GT(totals.comm, 0.0);
  EXPECT_GT(totals.compute, 0.0);
  EXPECT_GT(totals.stall, 0.0) << "contention scenario must show stall";
  EXPECT_NEAR(totals.wait + totals.comm + totals.compute + totals.restart +
                  totals.stall,
              totals.latency, 1e-9 * totals.latency);

  // Stall segments name their culprit when the path runs through another
  // job's span. Whether a given scenario's chains cross is load-dependent,
  // so scan the whole contention matrix for at least one named culprit.
  bool culprit_found = false;
  const auto scan = [&culprit_found](const obs::CriticalPath& scenario) {
    for (const obs::JobBlame& job : scenario.jobs()) {
      for (const obs::PathSegment& segment : job.path) {
        if (segment.kind == obs::BlameKind::kStall &&
            segment.via_job != obs::kNoIndex && segment.via_job != job.job) {
          culprit_found = true;
        }
      }
    }
  };
  scan(analysis);
  for (const sim::CommModelKind comm : kCommKinds) {
    scan(obs::CriticalPath(traced_qos(comm, 2)));
    scan(obs::CriticalPath(
        traced_online(comm, online::MasterMode::kSharedMaster)));
  }
  EXPECT_TRUE(culprit_found);
}

TEST(Blame, QueueDepthMatchesArrivalInstants) {
  const auto events = traced_online(sim::CommModelKind::kParallelLinks,
                                    online::MasterMode::kPrivatePort);
  std::size_t arrivals = 0;
  const obs::CriticalPath analysis(events);
  for (const obs::TraceEvent& event : events) {
    if (event.kind != obs::EventKind::kArrival) continue;
    ++arrivals;
    const obs::JobBlame* job = analysis.find(event.job);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->queue_depth, event.value);
    EXPECT_EQ(job->arrival, event.start);
  }
  EXPECT_EQ(arrivals, burst_jobs().size());
}

TEST(Blame, RejectedJobsAreNotBlamed) {
  // Jobs 1, 3 and 5 are due 1e-3 after they arrive, which no service
  // meets, so kReject admission turns them away: their streams carry a
  // kArrival and a kReject but no kJob span. Only the admitted jobs may be
  // blamed; a rejected one would read dispatch = finish = 0.
  std::vector<online::Job> jobs = burst_jobs();
  for (const std::size_t id : {1, 3, 5}) {
    jobs[id].deadline = jobs[id].arrival + 1e-3;
  }
  const platform::Platform plat = test_platform();
  for (const std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("concurrency " + std::to_string(concurrency));
    obs::TraceRecorder recorder;
    qos::ServerOptions options;
    options.admission.mode = qos::AdmissionMode::kReject;
    options.service.plan.rounds = 3;
    options.concurrency = concurrency;
    options.trace = &recorder;
    const qos::Server server(plat, options);
    qos::SrptPolicy srpt;
    std::vector<std::size_t> admitted;
    for (const qos::JobRecord& record : server.run(jobs, srpt)) {
      if (record.admitted) admitted.push_back(record.job.id);
    }
    ASSERT_EQ(admitted, (std::vector<std::size_t>{0, 2, 4}));

    const obs::CriticalPath analysis(recorder.events());
    std::vector<std::size_t> blamed;
    for (const obs::JobBlame& job : analysis.jobs()) {
      blamed.push_back(job.job);
      EXPECT_GE(job.wait, 0.0) << "job " << job.job;
      EXPECT_GE(job.latency, 0.0) << "job " << job.job;
    }
    EXPECT_EQ(blamed, admitted);
    EXPECT_EQ(analysis.totals().jobs, admitted.size());
    expect_exact(recorder.events());
  }
}

TEST(Blame, DominantTieBreaksTowardEarlierBucket) {
  obs::JobBlame blame;
  blame.wait = 1.0;
  blame.comm = 3.0;
  blame.compute = 3.0;
  EXPECT_EQ(blame.dominant(), obs::BlameKind::kComm);
  blame.stall = 4.0;
  EXPECT_EQ(blame.dominant(), obs::BlameKind::kStall);
}

TEST(Blame, EmptyStreamYieldsNoJobs) {
  const obs::CriticalPath analysis({});
  EXPECT_TRUE(analysis.jobs().empty());
  EXPECT_EQ(analysis.find(0), nullptr);
  EXPECT_EQ(analysis.totals().jobs, 0u);
  EXPECT_NE(obs::render_blame(analysis).find("0 jobs"), std::string::npos);
}

TEST(Blame, RenderNamesBucketsAndFindLocatesJobs) {
  const obs::CriticalPath analysis(
      traced_qos(sim::CommModelKind::kOnePort, 2));
  ASSERT_FALSE(analysis.jobs().empty());
  const obs::JobBlame& first = analysis.jobs().front();
  const obs::JobBlame* found = analysis.find(first.job);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->latency, first.latency);
  EXPECT_EQ(analysis.find(9999), nullptr);

  const std::string table = obs::render_blame(analysis, 3, "unit");
  EXPECT_NE(table.find("critical-path blame"), std::string::npos);
  EXPECT_NE(table.find("latency"), std::string::npos);
  EXPECT_NE(table.find("restart"), std::string::npos);
  EXPECT_NE(table.find("aggregate:"), std::string::npos);
  EXPECT_STREQ(obs::to_string(obs::BlameKind::kWait), "wait");
  EXPECT_STREQ(obs::to_string(obs::BlameKind::kStall), "stall");
}

// --- export + roundtrip ------------------------------------------------------

TEST(BlameExport, FlowTrackValidatesAndCarriesPathSlices) {
  const auto events =
      traced_qos(sim::CommModelKind::kBoundedMultiport, 2);
  const obs::CriticalPath analysis(events);
  std::ostringstream out;
  obs::ChromeTraceOptions options;
  options.workers = test_platform().size();
  options.label = "blame export";
  options.critical_path = &analysis;
  obs::write_chrome_trace(out, events, options);

  const std::string text = out.str();
  const obs::ValidationResult result = obs::validate_chrome_trace_text(text);
  EXPECT_TRUE(result) << result.error;
  EXPECT_NE(text.find("\"critical path\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(text.find("\"bp\":\"e\""), std::string::npos);
}

TEST(BlameExport, ChromeRoundtripClosesUnderTolerance) {
  // Two granularities: the online shared-master stream carries per-chunk
  // transfer and compute spans; the k = 1 qos stream carries only
  // solver-timed installments and restarts, the blame nldl_trace_check
  // --summary re-derives from exported qos files.
  const std::vector<std::pair<std::string, std::vector<obs::TraceEvent>>>
      inputs{{"online shared master",
              traced_online(sim::CommModelKind::kBoundedMultiport,
                            online::MasterMode::kSharedMaster)},
             {"qos concurrency 1",
              traced_qos(sim::CommModelKind::kOnePort, 1)}};
  for (const auto& [label, events] : inputs) {
    SCOPED_TRACE(label);
    const obs::CriticalPath direct(events);
    ASSERT_FALSE(direct.jobs().empty());

    std::ostringstream out;
    obs::ChromeTraceOptions options;
    options.workers = test_platform().size();
    options.critical_path = &direct;
    obs::write_chrome_trace(out, events, options);

    // Reconstruct the event stream from the exported document. The
    // microsecond encoding perturbs endpoints, so the causal matching
    // needs the relative tolerance — the exactness invariants still hold.
    const std::vector<obs::TraceEvent> decoded =
        obs::events_from_chrome_trace(out.str());
    expect_exact(decoded, 1e-9);

    const obs::CriticalPath roundtrip(decoded, 1e-9);
    ASSERT_EQ(roundtrip.jobs().size(), direct.jobs().size());
    for (std::size_t i = 0; i < direct.jobs().size(); ++i) {
      EXPECT_EQ(roundtrip.jobs()[i].job, direct.jobs()[i].job);
      EXPECT_NEAR(roundtrip.jobs()[i].latency, direct.jobs()[i].latency,
                  1e-5);
    }
  }
}

}  // namespace
}  // namespace nldl
