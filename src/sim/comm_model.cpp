#include "sim/comm_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace nldl::sim {

std::string to_string(CommModelKind kind) {
  switch (kind) {
    case CommModelKind::kParallelLinks:
      return "parallel-links";
    case CommModelKind::kOnePort:
      return "one-port";
    case CommModelKind::kBoundedMultiport:
      return "bounded-multiport";
  }
  NLDL_ASSERT(false, "unknown CommModelKind");
}

std::vector<double> max_min_fair_rates(const std::vector<double>& caps,
                                       double capacity) {
  // Water-filling garbage in, garbage out: a NaN or negative capacity
  // would silently propagate NaN shares (NaN comparisons are all false,
  // so no cap ever "saturates") and a NaN cap would poison the remaining
  // budget. Reject both up front; +inf capacity and +inf caps are
  // legitimate (uncapped master / uncapped link).
  NLDL_REQUIRE(!std::isnan(capacity) && capacity >= 0.0,
               "aggregate capacity must be >= 0 (NaN is not a capacity)");
  for (const double cap : caps) {
    NLDL_REQUIRE(!std::isnan(cap) && cap >= 0.0,
                 "private link caps must be >= 0 (NaN is not a rate)");
  }
  const std::size_t count = caps.size();
  std::vector<double> rates(count, 0.0);
  std::vector<bool> saturated(count, false);
  double remaining = capacity;
  std::size_t unsaturated = count;
  for (std::size_t pass = 0; pass < count && unsaturated > 0; ++pass) {
    const double share = remaining / static_cast<double>(unsaturated);
    bool any_saturated = false;
    for (std::size_t i = 0; i < count; ++i) {
      if (saturated[i]) continue;
      if (caps[i] <= share) {
        rates[i] = caps[i];
        remaining -= caps[i];
        saturated[i] = true;
        --unsaturated;
        any_saturated = true;
      }
    }
    if (!any_saturated) {
      // Everyone is share-limited: split the remainder equally.
      for (std::size_t i = 0; i < count; ++i) {
        if (!saturated[i]) rates[i] = share;
      }
      break;
    }
  }
  return rates;
}

void ParallelLinksModel::assign_rates(
    const std::vector<TransferView>& eligible,
    std::vector<double>& rates) const {
  for (std::size_t j = 0; j < eligible.size(); ++j) {
    rates[j] = eligible[j].link_rate;
  }
}

void OnePortModel::assign_rates(const std::vector<TransferView>& eligible,
                                std::vector<double>& rates) const {
  // The engine hands transfers sorted by schedule position; the port goes
  // to the first one.
  std::fill(rates.begin(), rates.end(), 0.0);
  if (!eligible.empty()) rates[0] = eligible[0].link_rate;
}

BoundedMultiportModel::BoundedMultiportModel(double capacity,
                                             std::size_t max_concurrent)
    : capacity_(capacity), max_concurrent_(max_concurrent) {
  // Degenerate knobs are rejected, not water-filled: capacity <= 0 would
  // starve every transfer forever (the engine would assert on the first
  // event), NaN would silently produce NaN rates, and max_concurrent == 0
  // is a master that never serves anyone. +inf capacity with unlimited
  // concurrency is the parallel-links limit and stays legal.
  NLDL_REQUIRE(!std::isnan(capacity),
               "master capacity must not be NaN");
  NLDL_REQUIRE(capacity > 0.0, "master capacity must be positive");
  NLDL_REQUIRE(max_concurrent >= 1,
               "master must serve at least one transfer at a time");
}

void BoundedMultiportModel::assign_rates(
    const std::vector<TransferView>& eligible,
    std::vector<double>& rates) const {
  std::fill(rates.begin(), rates.end(), 0.0);
  const std::size_t admitted =
      std::min<std::size_t>(eligible.size(), max_concurrent_);
  if (admitted == 0) return;
  std::vector<double> caps(admitted);
  for (std::size_t j = 0; j < admitted; ++j) {
    caps[j] = eligible[j].link_rate;
  }
  const std::vector<double> fair = max_min_fair_rates(caps, capacity_);
  std::copy(fair.begin(), fair.end(), rates.begin());
}

BoundedMultiportModel BoundedMultiportModel::one_port() {
  return BoundedMultiportModel(std::numeric_limits<double>::infinity(), 1);
}

BoundedMultiportModel BoundedMultiportModel::parallel_links() {
  return BoundedMultiportModel(std::numeric_limits<double>::infinity(),
                               kUnlimited);
}

std::unique_ptr<CommModel> make_comm_model(CommModelKind kind,
                                           double capacity,
                                           std::size_t max_concurrent) {
  switch (kind) {
    case CommModelKind::kParallelLinks:
      return std::make_unique<ParallelLinksModel>();
    case CommModelKind::kOnePort:
      return std::make_unique<OnePortModel>();
    case CommModelKind::kBoundedMultiport:
      return std::make_unique<BoundedMultiportModel>(capacity,
                                                     max_concurrent);
  }
  NLDL_ASSERT(false, "unknown CommModelKind");
}

}  // namespace nldl::sim
