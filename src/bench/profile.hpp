// Wall-clock timing for the harness layer — the one sanctioned home of
// real-time reads in the codebase.
//
// The simulation domain (sim/, online/, qos/, dlt/) is a pure function
// of its inputs and runs entirely on the simulated clock; nldl-lint's
// nondet-source rule keeps real clocks out of it. The benches still need
// wall time — that is what they measure — so every reading funnels
// through WallClock::now() here and lands in the bench JSON's MEASURED
// sidecar (never in the deterministic payload, see bench/harness.hpp).
#pragma once

namespace nldl::bench {

/// The single sanctioned monotonic wall-clock read: seconds from an
/// arbitrary steady epoch. Differences are meaningful, absolutes are not.
struct WallClock {
  [[nodiscard]] static double now();
};

/// RAII wall-clock scope: on destruction adds the elapsed seconds to a
/// plain accumulator.
class ProfileScope {
 public:
  explicit ProfileScope(double& sink)
      : start_(WallClock::now()), sink_(&sink) {}
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  double start_;
  double* sink_;
};

}  // namespace nldl::bench
