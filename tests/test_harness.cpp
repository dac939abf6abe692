// Tests for the bench harness: serial-vs-parallel self-check protocol,
// timing bookkeeping, and BENCH_*.json emission.
#include "bench/harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench/profile.hpp"
#include "util/assert.hpp"
#include "util/json_parse.hpp"
#include "util/sweep.hpp"

namespace nldl::bench {
namespace {

/// RAII temp file in the test working directory.
struct TempJson {
  std::string path;
  explicit TempJson(std::string name) : path(std::move(name)) {}
  ~TempJson() { std::remove(path.c_str()); }
  [[nodiscard]] std::string read() const {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }
};

HarnessOptions options_with_json(const std::string& path,
                                 std::size_t threads = 3) {
  HarnessOptions options;
  options.threads = threads;
  options.json_path = path;
  return options;
}

TEST(HarnessOptions, ReadsSharedFlags) {
  const char* argv[] = {"bench", "--threads=5", "--reps=2", "--warmup=1",
                        "--json=out.json"};
  const util::Args args(5, argv);
  const HarnessOptions options = harness_options_from_args(args);
  EXPECT_EQ(options.threads, 5U);
  EXPECT_EQ(options.repetitions, 2U);
  EXPECT_EQ(options.warmup, 1U);
  EXPECT_EQ(options.json_path, "out.json");
}

TEST(IdenticalDoubles, ExactComparison) {
  EXPECT_TRUE(identical_doubles({1.0, 2.0}, {1.0, 2.0}));
  EXPECT_FALSE(identical_doubles({1.0}, {1.0, 2.0}));
  EXPECT_FALSE(identical_doubles({1.0}, {1.0 + 1e-15}));
  EXPECT_TRUE(identical_doubles({}, {}));
}

TEST(Harness, SelfCheckPassesForDeterministicSweep) {
  TempJson json("test_harness_ok.json");
  Harness harness("test_ok", options_with_json(json.path));
  harness.config("alpha", 2.0);
  harness.config("label", "unit-test");
  harness.config("count", std::size_t{3});
  harness.config("flag", true);

  const auto result = harness.run<std::vector<double>>(
      [](std::size_t threads) {
        util::Grid grid;
        grid.axis("x", {1.0, 2.0, 3.0});
        util::SweepOptions options;
        options.threads = threads;
        return util::Sweep(std::move(grid), options).map<double>(
            [](const util::SweepPoint& point, util::Rng& rng) {
              return point.value("x") + rng.uniform();
            });
      });

  EXPECT_EQ(result.size(), 3U);
  EXPECT_TRUE(harness.bit_identical());
  EXPECT_GE(harness.serial_seconds(), 0.0);
  EXPECT_GE(harness.parallel_seconds(), 0.0);

  const int exit_code = harness.finish([&](util::JsonWriter& writer) {
    for (const double value : result) {
      writer.begin_object();
      writer.key("value").value(value);
      writer.end_object();
    }
  });
  EXPECT_EQ(exit_code, 0);

  const std::string text = json.read();
  EXPECT_NE(text.find("\"bench\": \"test_ok\""), std::string::npos);
  EXPECT_NE(text.find("\"alpha\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"label\": \"unit-test\""), std::string::npos);
  EXPECT_NE(text.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(text.find("\"flag\": true"), std::string::npos);
  EXPECT_NE(text.find("\"parallel_bit_identical\": true"),
            std::string::npos);
  EXPECT_NE(text.find("\"wall_time_serial_s\""), std::string::npos);
  EXPECT_NE(text.find("\"wall_time_parallel_s\""), std::string::npos);
  EXPECT_NE(text.find("\"points\""), std::string::npos);
  // Balanced scopes — the writer enforces this, but check the file too.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
}

TEST(Harness, SplitSchemaSeparatesDeterministicFromMeasured) {
  TempJson json("test_harness_split.json");
  Harness harness("test_split", options_with_json(json.path, 2));
  harness.config("alpha", 2.0);
  harness.items(4);
  harness.metrics().counter("unit.events") += 7;
  harness.metrics().gauge("unit.seconds") = 1.5;

  (void)harness.run<std::vector<double>>(
      [](std::size_t) { return std::vector<double>{1.0, 2.0, 3.0, 4.0}; });
  const int exit_code = harness.finish(
      [](util::JsonWriter& writer) {
        writer.begin_object();
        writer.key("value").value(1.0);
        writer.end_object();
      },
      [](util::JsonWriter& writer) {
        writer.key("driver_wall_s").value(0.125);
      });
  EXPECT_EQ(exit_code, 0);

  const util::JsonValue doc = util::parse_json(json.read());
  ASSERT_TRUE(doc.is_object());
  EXPECT_NE(doc.find("bench"), nullptr);  // name stays top-level

  // Everything reproducible lives under "deterministic": config, items,
  // the self-check verdict, the metrics registry, and the points.
  const util::JsonValue* det = doc.find("deterministic");
  ASSERT_NE(det, nullptr);
  ASSERT_TRUE(det->is_object());
  ASSERT_NE(det->find("config"), nullptr);
  EXPECT_NE(det->find("config")->find("alpha"), nullptr);
  ASSERT_NE(det->find("items"), nullptr);
  EXPECT_EQ(det->find("items")->number, 4.0);
  ASSERT_NE(det->find("parallel_bit_identical"), nullptr);
  EXPECT_TRUE(det->find("parallel_bit_identical")->boolean);
  const util::JsonValue* metrics = det->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("unit.events"), nullptr);
  EXPECT_EQ(metrics->find("unit.events")->number, 7.0);
  ASSERT_NE(det->find("points"), nullptr);
  EXPECT_TRUE(det->find("points")->is_array());

  // Wall-clock facts live under "measured" and ONLY there.
  const util::JsonValue* measured = doc.find("measured");
  ASSERT_NE(measured, nullptr);
  ASSERT_TRUE(measured->is_object());
  EXPECT_NE(measured->find("threads"), nullptr);
  EXPECT_NE(measured->find("wall_time_serial_s"), nullptr);
  EXPECT_NE(measured->find("wall_time_parallel_s"), nullptr);
  EXPECT_NE(measured->find("speedup"), nullptr);
  EXPECT_NE(measured->find("peak_rss_bytes"), nullptr);
  EXPECT_NE(measured->find("driver_wall_s"), nullptr);

  EXPECT_EQ(det->find("wall_time_serial_s"), nullptr);
  EXPECT_EQ(det->find("driver_wall_s"), nullptr);
  EXPECT_EQ(measured->find("points"), nullptr);
  EXPECT_EQ(measured->find("metrics"), nullptr);
}

TEST(ProfileScope, AddsElapsedSecondsToItsSink) {
  double sink = 1.0;
  {
    const ProfileScope first(sink);
    const ProfileScope second(sink);
  }
  EXPECT_GE(sink, 1.0);  // added to the sink, never overwrote it
}

TEST(Harness, SelfCheckFailsForThreadDependentSweep) {
  TempJson json("test_harness_bad.json");
  Harness harness("test_bad", options_with_json(json.path));

  // A "sweep" whose result depends on the thread count — exactly the
  // determinism bug the harness exists to catch.
  (void)harness.run<std::vector<double>>([](std::size_t threads) {
    return std::vector<double>{static_cast<double>(threads)};
  });
  EXPECT_FALSE(harness.bit_identical());

  const int exit_code = harness.finish([](util::JsonWriter&) {});
  EXPECT_EQ(exit_code, 1);
  EXPECT_NE(json.read().find("\"parallel_bit_identical\": false"),
            std::string::npos);
}

TEST(Harness, RepetitionsCatchRunToRunNondeterminism) {
  TempJson json("test_harness_reps.json");
  HarnessOptions options = options_with_json(json.path, 2);
  options.repetitions = 3;
  Harness harness("test_reps", options);

  // Deterministic in the thread count but different on every call.
  int calls = 0;
  (void)harness.run<std::vector<double>>([&calls](std::size_t) {
    return std::vector<double>{static_cast<double>(calls++)};
  });
  EXPECT_FALSE(harness.bit_identical());
  EXPECT_EQ(harness.finish([](util::JsonWriter&) {}), 1);
}

TEST(PeakRss, RuMaxrssNormalizesBothPlatformConventions) {
  using RssUnit = Harness::RssUnit;
  // Linux reports KiB, macOS reports bytes for the SAME resident size —
  // the raw field differs by 1024x and must converge after conversion.
  EXPECT_EQ(Harness::ru_maxrss_to_bytes(204800, RssUnit::kKibibytes),
            static_cast<std::size_t>(204800) * 1024U);  // 200 MiB, Linux
  EXPECT_EQ(Harness::ru_maxrss_to_bytes(209715200, RssUnit::kBytes),
            static_cast<std::size_t>(209715200));       // 200 MiB, macOS
  EXPECT_EQ(Harness::ru_maxrss_to_bytes(204800, RssUnit::kKibibytes),
            Harness::ru_maxrss_to_bytes(204800L * 1024L, RssUnit::kBytes));
  EXPECT_EQ(Harness::ru_maxrss_to_bytes(1, RssUnit::kKibibytes), 1024u);
  EXPECT_EQ(Harness::ru_maxrss_to_bytes(1, RssUnit::kBytes), 1u);
}

TEST(PeakRss, RuMaxrssRejectsDegenerateReadings) {
  using RssUnit = Harness::RssUnit;
  // A failed getrusage leaves the field 0/garbage; negative and
  // overflowing readings must clamp to "unknown" (0), never wrap.
  EXPECT_EQ(Harness::ru_maxrss_to_bytes(0, RssUnit::kKibibytes), 0u);
  EXPECT_EQ(Harness::ru_maxrss_to_bytes(-1, RssUnit::kKibibytes), 0u);
  EXPECT_EQ(Harness::ru_maxrss_to_bytes(-1, RssUnit::kBytes), 0u);
  EXPECT_EQ(Harness::ru_maxrss_to_bytes(std::numeric_limits<long>::max(),
                                        RssUnit::kKibibytes),
            0u);
}

TEST(PeakRss, ProcessPeakIsPlausible) {
  const std::size_t rss = Harness::peak_rss_bytes();
  // On Linux/macOS this must be a real reading: at least 1 MiB (a running
  // gtest binary) and under 1 TiB (catches unit mix-ups in either
  // direction — reporting KiB as bytes shrinks it 1024x, bytes scaled as
  // KiB would inflate a ~100 MiB process past a TiB quickly).
  EXPECT_GE(rss, 1024u * 1024u);
  EXPECT_LT(rss, static_cast<std::size_t>(1) << 40);
}

TEST(Harness, RejectsMisuse) {
  EXPECT_THROW(Harness("", HarnessOptions{}), util::PreconditionError);
  HarnessOptions no_reps;
  no_reps.repetitions = 0;
  EXPECT_THROW(Harness("x", no_reps), util::PreconditionError);
  Harness unrun("x", HarnessOptions{});
  EXPECT_THROW((void)unrun.finish([](util::JsonWriter&) {}),
               util::PreconditionError);
}

}  // namespace
}  // namespace nldl::bench
