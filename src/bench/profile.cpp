#include "bench/profile.hpp"

#include <chrono>

namespace nldl::bench {

double WallClock::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now()  // nldl-lint: allow(nondet-source): the harness wall clock — measured sidecar only, never feeds results
                 .time_since_epoch())
      .count();
}

ProfileScope::~ProfileScope() { *sink_ += WallClock::now() - start_; }

}  // namespace nldl::bench
