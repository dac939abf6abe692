#include "platform/platform.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace nldl::platform {

Platform::Platform(std::vector<Processor> workers)
    : workers_(std::move(workers)) {
  NLDL_REQUIRE(!workers_.empty(), "platform requires at least one worker");
  for (const auto& worker : workers_) worker.validate();
}

Platform Platform::homogeneous(std::size_t p, double c) {
  NLDL_REQUIRE(p >= 1, "platform requires at least one worker");
  return Platform(std::vector<Processor>(p, Processor{c, 1.0}));
}

Platform Platform::from_speeds(const std::vector<double>& speeds, double c) {
  std::vector<Processor> workers;
  workers.reserve(speeds.size());
  for (const double s : speeds) {
    NLDL_REQUIRE(s > 0.0, "speeds must be positive");
    workers.push_back(Processor{c, 1.0 / s});
  }
  return Platform(std::move(workers));
}

Platform Platform::two_class(std::size_t p, double slow, double k, double c) {
  NLDL_REQUIRE(p >= 2 && p % 2 == 0, "two_class requires even p >= 2");
  NLDL_REQUIRE(slow > 0.0 && k >= 1.0, "two_class requires slow > 0, k >= 1");
  std::vector<double> speeds(p, slow);
  for (std::size_t i = p / 2; i < p; ++i) speeds[i] = slow * k;
  return from_speeds(speeds, c);
}

const Processor& Platform::worker(std::size_t i) const {
  NLDL_REQUIRE(i < workers_.size(), "worker index out of range");
  return workers_[i];
}

double Platform::total_speed() const noexcept {
  double total = 0.0;
  for (const auto& worker : workers_) total += worker.speed();
  return total;
}

std::vector<double> Platform::speeds() const {
  std::vector<double> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) out.push_back(worker.speed());
  return out;
}

std::vector<double> Platform::normalized_speeds() const {
  std::vector<double> out = speeds();
  const double total = total_speed();
  for (double& x : out) x /= total;
  return out;
}

bool Platform::is_sorted_by_speed() const noexcept {
  return std::is_sorted(
      workers_.begin(), workers_.end(),
      [](const Processor& a, const Processor& b) { return a.speed() < b.speed(); });
}

Platform Platform::sorted_by_speed() const {
  std::vector<Processor> sorted = workers_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Processor& a, const Processor& b) {
              return a.speed() < b.speed();
            });
  return Platform(std::move(sorted));
}

Platform::Partition Platform::interleaved_partition(std::size_t k) const {
  const std::size_t subsets = std::clamp<std::size_t>(k, 1, size());
  Partition partition;
  partition.subsets.reserve(subsets);
  partition.workers.resize(subsets);
  for (std::size_t s = 0; s < subsets; ++s) {
    std::vector<Processor> workers;
    for (std::size_t i = s; i < size(); i += subsets) {
      workers.push_back(workers_[i]);
      partition.workers[s].push_back(i);
    }
    partition.subsets.emplace_back(std::move(workers));
  }
  return partition;
}

double Platform::heterogeneity() const noexcept {
  double lo = workers_.front().speed();
  double hi = lo;
  for (const auto& worker : workers_) {
    lo = std::min(lo, worker.speed());
    hi = std::max(hi, worker.speed());
  }
  return hi / lo;
}

}  // namespace nldl::platform
