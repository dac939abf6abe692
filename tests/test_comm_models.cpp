// Equivalence tests across the three communication models, on randomized
// platforms and randomized multi-round schedules:
//
//   - bounded-multiport with capacity = +inf (unlimited concurrency)
//     reproduces parallel links bit for bit;
//   - bounded-multiport restricted to one transfer at a time — the
//     one-port model's defining constraint — reproduces one-port bit for
//     bit, including with capacity set exactly to a single link's rate on
//     uniform-bandwidth platforms;
//   - with capacity equal to a single link's rate but unrestricted
//     concurrency, fluid max-min sharing still moves the same aggregate
//     volume as the serialized port, so the communication phase ends at
//     the same instant;
//   - makespan is monotone non-increasing in master capacity.
#include "sim/comm_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "platform/processor.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::sim {
namespace {

using platform::Platform;
using platform::Processor;

constexpr double kInf = std::numeric_limits<double>::infinity();

Platform random_platform(util::Rng& rng, bool uniform_c) {
  const std::size_t p = static_cast<std::size_t>(rng.uniform_int(1, 6));
  std::vector<Processor> workers;
  workers.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    Processor proc;
    proc.c = uniform_c ? 1.0 : rng.uniform(0.2, 3.0);
    proc.w = rng.uniform(0.2, 3.0);
    workers.push_back(proc);
  }
  return Platform(std::move(workers));
}

std::vector<ChunkAssignment> random_schedule(util::Rng& rng, std::size_t p,
                                             bool with_releases = false) {
  const std::size_t chunks = static_cast<std::size_t>(rng.uniform_int(0, 24));
  std::vector<ChunkAssignment> schedule;
  schedule.reserve(chunks);
  for (std::size_t k = 0; k < chunks; ++k) {
    ChunkAssignment chunk;
    chunk.worker = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p) - 1));
    // A few zero-size chunks exercise the instant-completion path.
    chunk.size = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.1, 10.0);
    if (with_releases) {
      // A mix of immediately-available and time-released chunks,
      // including releases that land mid-flight of earlier transfers.
      chunk.release = rng.uniform() < 0.4 ? 0.0 : rng.uniform(0.0, 30.0);
    }
    schedule.push_back(chunk);
  }
  return schedule;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].worker, b.spans[i].worker);
    EXPECT_EQ(a.spans[i].comm_start, b.spans[i].comm_start) << "chunk " << i;
    EXPECT_EQ(a.spans[i].comm_end, b.spans[i].comm_end) << "chunk " << i;
    EXPECT_EQ(a.spans[i].compute_start, b.spans[i].compute_start)
        << "chunk " << i;
    EXPECT_EQ(a.spans[i].compute_end, b.spans[i].compute_end)
        << "chunk " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(CommModelEquivalence, InfiniteCapacityIsParallelLinks) {
  util::Rng rng(2013);
  for (int rep = 0; rep < 50; ++rep) {
    const Platform plat = random_platform(rng, /*uniform_c=*/false);
    const auto schedule = random_schedule(rng, plat.size());
    const Engine engine(plat, EngineOptions{rep % 2 == 0 ? 1.0 : 2.0});
    const SimResult links =
        engine.run(schedule, CommModelKind::kParallelLinks);
    const SimResult bounded =
        engine.run(schedule, BoundedMultiportModel(kInf));
    expect_identical(links, bounded);
  }
}

TEST(CommModelEquivalence, SingleTransferAtATimeIsOnePort) {
  // One transfer at a time with an uncapped budget: the heterogeneous-
  // bandwidth one-port star.
  util::Rng rng(41);
  for (int rep = 0; rep < 50; ++rep) {
    const Platform plat = random_platform(rng, /*uniform_c=*/false);
    const auto schedule = random_schedule(rng, plat.size());
    const Engine engine(plat);
    const SimResult one_port = engine.run(schedule, CommModelKind::kOnePort);
    const SimResult bounded =
        engine.run(schedule, BoundedMultiportModel::one_port());
    expect_identical(one_port, bounded);
  }
}

TEST(CommModelEquivalence, LinkRateCapacitySerialIsOnePort) {
  // Capacity equal to a single link's rate, serving one transfer at a
  // time, on platforms with uniform bandwidth (the generated-platform
  // setting): exactly the one-port star.
  util::Rng rng(42);
  for (int rep = 0; rep < 50; ++rep) {
    const Platform plat = random_platform(rng, /*uniform_c=*/true);
    const auto schedule = random_schedule(rng, plat.size());
    const Engine engine(plat, EngineOptions{rep % 2 == 0 ? 1.0 : 1.5});
    const SimResult one_port = engine.run(schedule, CommModelKind::kOnePort);
    const double link_rate = plat.worker(0).bandwidth();
    const SimResult bounded =
        engine.run(schedule, BoundedMultiportModel(link_rate, 1));
    expect_identical(one_port, bounded);
  }
}

TEST(CommModelEquivalence, LinkRateCapacityFluidEndsCommWithOnePort) {
  // Fluid max-min sharing at aggregate capacity = one link's rate divides
  // the port among pending workers instead of serializing, so individual
  // arrivals differ — but the total volume moves at the same capped rate,
  // and the communication phase ends at the one-port instant.
  util::Rng rng(43);
  for (int rep = 0; rep < 50; ++rep) {
    const Platform plat = random_platform(rng, /*uniform_c=*/true);
    const auto schedule = random_schedule(rng, plat.size());
    const Engine engine(plat);
    const double link_rate = plat.worker(0).bandwidth();
    const SimResult one_port = engine.run(schedule, CommModelKind::kOnePort);
    const SimResult fluid =
        engine.run(schedule, BoundedMultiportModel(link_rate));
    double one_port_end = 0.0;
    double fluid_end = 0.0;
    for (const ChunkSpan& span : one_port.spans) {
      one_port_end = std::max(one_port_end, span.comm_end);
    }
    for (const ChunkSpan& span : fluid.spans) {
      fluid_end = std::max(fluid_end, span.comm_end);
    }
    EXPECT_NEAR(fluid_end, one_port_end, 1e-9 * std::max(1.0, one_port_end));
  }
}

TEST(CommModelEquivalence, MakespanMonotoneInCapacity) {
  util::Rng rng(7);
  for (int rep = 0; rep < 20; ++rep) {
    const Platform plat = random_platform(rng, /*uniform_c=*/false);
    const auto schedule = random_schedule(rng, plat.size());
    const Engine engine(plat);
    double previous = kInf;
    for (const double capacity : {0.25, 1.0, 4.0, 16.0, kInf}) {
      const double makespan =
          engine.run(schedule, BoundedMultiportModel(capacity)).makespan;
      EXPECT_LE(makespan, previous * (1.0 + 1e-9) + 1e-9)
          << "capacity " << capacity;
      previous = makespan;
    }
  }
}

TEST(CommModel, MaxMinFairRatesWaterFill) {
  // Private caps 0.5 and 10 sharing capacity 4: the slow link saturates,
  // the fast one takes the rest.
  const auto rates = max_min_fair_rates({0.5, 10.0}, 4.0);
  EXPECT_DOUBLE_EQ(rates[0], 0.5);
  EXPECT_DOUBLE_EQ(rates[1], 3.5);
  // Equal caps under a binding capacity split evenly.
  const auto equal = max_min_fair_rates({10.0, 10.0}, 1.0);
  EXPECT_DOUBLE_EQ(equal[0], 0.5);
  EXPECT_DOUBLE_EQ(equal[1], 0.5);
  // Unbounded capacity saturates every private cap.
  const auto caps = max_min_fair_rates({1.0, 2.0, 3.0}, kInf);
  EXPECT_DOUBLE_EQ(caps[0], 1.0);
  EXPECT_DOUBLE_EQ(caps[1], 2.0);
  EXPECT_DOUBLE_EQ(caps[2], 3.0);
}

TEST(CommModel, FactoryAndNames) {
  EXPECT_EQ(to_string(CommModelKind::kParallelLinks), "parallel-links");
  EXPECT_EQ(to_string(CommModelKind::kOnePort), "one-port");
  EXPECT_EQ(to_string(CommModelKind::kBoundedMultiport),
            "bounded-multiport");
  const auto links = make_comm_model(CommModelKind::kParallelLinks);
  EXPECT_NE(dynamic_cast<const ParallelLinksModel*>(links.get()), nullptr);
  const auto port = make_comm_model(CommModelKind::kOnePort);
  EXPECT_NE(dynamic_cast<const OnePortModel*>(port.get()), nullptr);
  const auto bounded = make_comm_model(CommModelKind::kBoundedMultiport, 2.5,
                                       3);
  const auto* capped =
      dynamic_cast<const BoundedMultiportModel*>(bounded.get());
  ASSERT_NE(capped, nullptr);
  EXPECT_EQ(capped->capacity(), 2.5);
  EXPECT_EQ(capped->max_concurrent(), 3u);
}

TEST(CommModel, RejectsBadParameters) {
  EXPECT_THROW(BoundedMultiportModel(0.0), util::PreconditionError);
  EXPECT_THROW(BoundedMultiportModel(-1.0), util::PreconditionError);
  EXPECT_THROW(BoundedMultiportModel(1.0, 0), util::PreconditionError);
  // Degenerate knobs are rejected, not silently water-filled.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)BoundedMultiportModel(nan), util::PreconditionError);
  EXPECT_THROW((void)make_comm_model(CommModelKind::kBoundedMultiport, nan),
               util::PreconditionError);
  EXPECT_THROW(
      (void)make_comm_model(CommModelKind::kBoundedMultiport, -2.0),
      util::PreconditionError);
  EXPECT_THROW(
      (void)make_comm_model(CommModelKind::kBoundedMultiport, 1.0, 0),
      util::PreconditionError);
}

TEST(CommModel, MaxMinFairRatesRejectsDegenerateInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)max_min_fair_rates({1.0, 2.0}, nan),
               util::PreconditionError);
  EXPECT_THROW((void)max_min_fair_rates({1.0, 2.0}, -1.0),
               util::PreconditionError);
  EXPECT_THROW((void)max_min_fair_rates({1.0, nan}, 4.0),
               util::PreconditionError);
  EXPECT_THROW((void)max_min_fair_rates({-0.5, 1.0}, 4.0),
               util::PreconditionError);
  // Zero capacity is a defined (all-zero) answer, not garbage.
  const auto zero = max_min_fair_rates({1.0, 2.0}, 0.0);
  EXPECT_DOUBLE_EQ(zero[0], 0.0);
  EXPECT_DOUBLE_EQ(zero[1], 0.0);
}

// --- degenerate limits on time-released schedules -------------------------

TEST(CommModelEquivalence, InfiniteCapacityIsParallelLinksWithReleases) {
  util::Rng rng(2026);
  for (int rep = 0; rep < 50; ++rep) {
    const Platform plat = random_platform(rng, /*uniform_c=*/false);
    const auto schedule =
        random_schedule(rng, plat.size(), /*with_releases=*/true);
    const Engine engine(plat, EngineOptions{rep % 2 == 0 ? 1.0 : 2.0});
    const SimResult links =
        engine.run(schedule, CommModelKind::kParallelLinks);
    const SimResult bounded =
        engine.run(schedule, BoundedMultiportModel(kInf));
    expect_identical(links, bounded);
  }
}

TEST(CommModelEquivalence, SingleTransferAtATimeIsOnePortWithReleases) {
  util::Rng rng(1729);
  for (int rep = 0; rep < 50; ++rep) {
    const Platform plat = random_platform(rng, /*uniform_c=*/false);
    const auto schedule =
        random_schedule(rng, plat.size(), /*with_releases=*/true);
    const Engine engine(plat);
    const SimResult one_port = engine.run(schedule, CommModelKind::kOnePort);
    const SimResult bounded =
        engine.run(schedule, BoundedMultiportModel::one_port());
    expect_identical(one_port, bounded);
  }
}

TEST(CommModelEquivalence, MakespanMonotoneInCapacityWithReleases) {
  util::Rng rng(77);
  for (int rep = 0; rep < 20; ++rep) {
    const Platform plat = random_platform(rng, /*uniform_c=*/false);
    const auto schedule =
        random_schedule(rng, plat.size(), /*with_releases=*/true);
    const Engine engine(plat);
    double previous = kInf;
    for (const double capacity : {0.25, 1.0, 4.0, 16.0, kInf}) {
      const double makespan =
          engine.run(schedule, BoundedMultiportModel(capacity)).makespan;
      EXPECT_LE(makespan, previous * (1.0 + 1e-9) + 1e-9)
          << "capacity " << capacity;
      previous = makespan;
    }
  }
}

}  // namespace
}  // namespace nldl::sim
