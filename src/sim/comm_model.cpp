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
  NLDL_UNREACHABLE("unknown CommModelKind");
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

// Water-filling in place: a negative entry in `rates` marks a transfer
// still unsaturated (a granted rate is a validated cap or a share, never
// negative), and caps are read straight from the views, so no buffer is
// allocated. The passes and the order of the share and remaining updates
// are those of the textbook loop over copied caps with a saturation mask,
// so the rates are its bits (test_comm_models pins this).
void BoundedMultiportModel::assign_rates(
    const std::vector<TransferView>& eligible,
    std::vector<double>& rates) const {
  constexpr double kUnsaturated = -1.0;
  const std::size_t admitted =
      std::min<std::size_t>(eligible.size(), max_concurrent_);
  // Transfers past the concurrency limit wait.
  std::fill(rates.begin() + static_cast<std::ptrdiff_t>(admitted),
            rates.end(), 0.0);
  // A NaN cap would poison the remaining budget (NaN comparisons are all
  // false, so it would never saturate); +inf caps are legitimate
  // (uncapped link). The capacity was validated at construction.
  for (std::size_t j = 0; j < admitted; ++j) {
    const double cap = eligible[j].link_rate;
    NLDL_REQUIRE(!std::isnan(cap) && cap >= 0.0,
                 "private link caps must be >= 0 (NaN is not a rate)");
    rates[j] = kUnsaturated;
  }
  double remaining = capacity_;
  std::size_t unsaturated = admitted;
  for (std::size_t pass = 0; pass < admitted && unsaturated > 0; ++pass) {
    const double share = remaining / static_cast<double>(unsaturated);
    bool any_saturated = false;
    for (std::size_t j = 0; j < admitted; ++j) {
      if (rates[j] >= 0.0) continue;
      const double cap = eligible[j].link_rate;
      if (cap <= share) {
        rates[j] = cap;
        remaining -= cap;
        --unsaturated;
        any_saturated = true;
      }
    }
    if (!any_saturated) {
      // Everyone is share-limited: split the remainder equally.
      for (std::size_t j = 0; j < admitted; ++j) {
        if (rates[j] < 0.0) rates[j] = share;
      }
      break;
    }
  }
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
  NLDL_UNREACHABLE("unknown CommModelKind");
}

}  // namespace nldl::sim
