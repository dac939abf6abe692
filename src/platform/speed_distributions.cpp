#include "platform/speed_distributions.hpp"

#include "util/assert.hpp"

namespace nldl::platform {

std::string to_string(SpeedModel model) {
  switch (model) {
    case SpeedModel::kHomogeneous:
      return "homogeneous";
    case SpeedModel::kUniform:
      return "uniform[1,100]";
    case SpeedModel::kLogNormal:
      return "lognormal(0,1)";
    case SpeedModel::kTwoClass:
      return "two-class(1,k)";
  }
  NLDL_UNREACHABLE("unknown SpeedModel");
}

Platform make_platform(SpeedModel model, std::size_t p, util::Rng& rng) {
  NLDL_REQUIRE(p >= 1, "platform requires at least one worker");
  std::vector<double> speeds;
  speeds.reserve(p);
  switch (model) {
    case SpeedModel::kHomogeneous:
      speeds.assign(p, 1.0);
      break;
    case SpeedModel::kUniform:
      for (std::size_t i = 0; i < p; ++i) {
        speeds.push_back(rng.uniform(1.0, 100.0));
      }
      break;
    case SpeedModel::kLogNormal:
      for (std::size_t i = 0; i < p; ++i) {
        speeds.push_back(rng.lognormal(0.0, 1.0));
      }
      break;
    case SpeedModel::kTwoClass:
      return Platform::two_class(p, 1.0, 10.0);
  }
  return Platform::from_speeds(speeds);
}

}  // namespace nldl::platform
