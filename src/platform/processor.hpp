// The paper's processor model (Section 1.2).
//
// Each worker P_i has an incoming bandwidth 1/c_i (c_i = time to receive one
// unit of data) and a processing speed s_i = 1/w_i (w_i = time to process
// one unit of load).
#pragma once

#include <cmath>

#include "util/assert.hpp"

namespace nldl::platform {

struct Processor {
  /// Time to receive one unit of data (inverse incoming bandwidth).
  double c = 1.0;
  /// Time to process one unit of load (inverse speed).
  double w = 1.0;

  [[nodiscard]] double bandwidth() const noexcept { return 1.0 / c; }
  [[nodiscard]] double speed() const noexcept { return 1.0 / w; }

  /// Validates the physical constraints (strictly positive, finite rates).
  void validate() const {
    NLDL_REQUIRE(std::isfinite(c) && c > 0.0,
                 "processor communication cost must be finite and positive");
    NLDL_REQUIRE(std::isfinite(w) && w > 0.0,
                 "processor computation cost must be finite and positive");
  }
};

}  // namespace nldl::platform
