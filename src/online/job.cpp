#include "online/job.hpp"

#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace nldl::online {

void validate_stream(const std::vector<Job>& jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    NLDL_REQUIRE(job.id == i, "job ids must be 0..n-1 in order");
    NLDL_REQUIRE(std::isfinite(job.arrival) && job.arrival >= 0.0,
                 "job arrivals must be finite and >= 0");
    NLDL_REQUIRE(i == 0 || job.arrival >= jobs[i - 1].arrival,
                 "jobs must be sorted by arrival time");
    NLDL_REQUIRE(std::isfinite(job.load) && job.load > 0.0,
                 "job loads must be finite and positive");
    NLDL_REQUIRE(job.load >= std::numeric_limits<double>::min(),
                 "job load is subnormal (below DBL_MIN): too few significant "
                 "bits to split");
    NLDL_REQUIRE(std::isfinite(job.alpha) && job.alpha >= 1.0,
                 "job alphas must be finite and >= 1");
  }
}

}  // namespace nldl::online
