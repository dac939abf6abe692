// The three platform generators of the paper's Section 4.3 experiments:
//   (i)   homogeneous speeds (all 1),
//   (ii)  speeds uniform on [1, 100],
//   (iii) speeds log-normal with mu = 0, sigma = 1,
// plus the two-class (1, k) platform of Section 4.1.3 at the study's
// k = 10. Every generated worker has communication cost c = 1.
#pragma once

#include <cstdint>
#include <string>

#include "platform/platform.hpp"
#include "util/rng.hpp"

namespace nldl::platform {

enum class SpeedModel {
  kHomogeneous,  ///< all speeds equal (Figure 4a)
  kUniform,      ///< U[1, 100] (Figure 4b)
  kLogNormal,    ///< exp(N(0,1)) (Figure 4c)
  kTwoClass,     ///< p/2 at speed 1, p/2 at speed 10 (Section 4.1.3)
};

/// Human-readable name, matching the paper's captions.
[[nodiscard]] std::string to_string(SpeedModel model);

/// Draw a platform of p workers under the given speed model.
[[nodiscard]] Platform make_platform(SpeedModel model, std::size_t p,
                                     util::Rng& rng);

}  // namespace nldl::platform
