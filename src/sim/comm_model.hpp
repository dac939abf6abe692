// Pluggable communication models for the event-driven simulation engine
// (sim/engine.hpp).
//
// A CommModel decides, whenever the set of in-flight transfers changes, at
// what instantaneous rate every eligible transfer proceeds. Three models
// ship with nldl, spanning the spectrum the paper compares:
//
//   ParallelLinksModel    every worker has a private link; each eligible
//                         transfer runs at its full link rate 1/c_i (the
//                         paper's primary Section 1.2 model).
//   OnePortModel          the master transmits to one worker at a time;
//                         transfers are granted the port in schedule order
//                         (the model of the nonlinear-DLT papers the paper
//                         critiques).
//   BoundedMultiportModel the master's aggregate outgoing bandwidth is
//                         capped (Hong & Prasanna style): admitted transfers
//                         share the capacity by max-min fairness
//                         (water-filling), each additionally capped by its
//                         private link rate 1/c_i. An optional concurrency
//                         limit bounds how many transfers the master serves
//                         at once (admission in schedule order).
//
// BoundedMultiportModel strictly generalizes the two extremes:
//   - capacity = +inf, unlimited concurrency  ==  parallel links (every
//     transfer saturates its private cap);
//   - concurrency = 1 (with capacity >= the served link's rate)  ==
//     one-port (transfers serialize in schedule order at full link speed).
// Note the one-port limit requires the *concurrency* knob, not just a small
// capacity: fluid max-min sharing with capacity equal to one link's rate
// moves the same aggregate volume as a serialized port but divides it among
// all pending workers, so per-worker completion times (and hence compute
// start times) differ. "One transfer at a time" is what the one-port model
// means, and that is a concurrency constraint.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace nldl::sim {

/// Discriminator for the built-in communication models.
enum class CommModelKind {
  kParallelLinks,
  kOnePort,
  kBoundedMultiport,
};

[[nodiscard]] std::string to_string(CommModelKind kind);

/// A transfer the engine asks the model to rate. Transfers are handed to
/// assign_rates() sorted by ascending schedule position, and only transfers
/// that are at the head of their worker's link queue (per-worker FIFO) are
/// eligible.
struct TransferView {
  std::size_t chunk = 0;     ///< index of the chunk in the schedule
  std::size_t worker = 0;
  double link_rate = 0.0;    ///< private cap 1/c_i (load units per time)
  double remaining = 0.0;    ///< load units still to transfer
  double released = 0.0;     ///< time the transfer reached its link's head
};

/// Abstract communication model: maps the eligible transfer set to
/// instantaneous rates. Implementations must be stateless with respect to
/// simulation time (the engine re-asks after every event), deterministic,
/// and must never exceed a transfer's private link_rate.
class CommModel {
 public:
  virtual ~CommModel() = default;

  /// Fill `rates` (resized to eligible.size() by the caller) with the
  /// instantaneous rate of every eligible transfer; 0 keeps a transfer
  /// waiting. At least one rate must be positive when `eligible` is
  /// non-empty (the engine enforces this to guarantee progress).
  virtual void assign_rates(const std::vector<TransferView>& eligible,
                            std::vector<double>& rates) const = 0;
};

/// Every eligible transfer runs at its private link rate.
class ParallelLinksModel final : public CommModel {
 public:
  void assign_rates(const std::vector<TransferView>& eligible,
                    std::vector<double>& rates) const override;
};

/// The earliest-scheduled eligible transfer runs at its full link rate;
/// everything else waits for the port.
class OnePortModel final : public CommModel {
 public:
  void assign_rates(const std::vector<TransferView>& eligible,
                    std::vector<double>& rates) const override;
};

/// Max-min fair (water-filling) sharing of a capped master under an
/// optional concurrency limit. See the file comment for the degenerate
/// cases that recover the other two models.
class BoundedMultiportModel final : public CommModel {
 public:
  static constexpr std::size_t kUnlimited =
      std::numeric_limits<std::size_t>::max();

  /// capacity: aggregate outgoing bandwidth of the master (> 0 and not
  /// NaN; +inf for an uncapped master). max_concurrent: how many
  /// transfers the master serves at once (>= 1), admitted in schedule
  /// order. Degenerate knobs (capacity <= 0 or NaN, max_concurrent == 0)
  /// throw util::PreconditionError instead of silently water-filling
  /// garbage.
  explicit BoundedMultiportModel(double capacity,
                                 std::size_t max_concurrent = kUnlimited);

  /// Water-fills the first max_concurrent eligible transfers directly in
  /// `rates` (allocation-free: an engine event allocates nothing here):
  /// repeatedly grant every unsaturated transfer an equal share of the
  /// remaining capacity; those whose private cap (link_rate) is below
  /// their share saturate at the cap. Rates past max_concurrent stay 0.
  /// A NaN or negative link_rate throws util::PreconditionError rather
  /// than water-filling NaN shares (+inf is legal: an uncapped link).
  void assign_rates(const std::vector<TransferView>& eligible,
                    std::vector<double>& rates) const override;

  [[nodiscard]] double capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t max_concurrent() const noexcept {
    return max_concurrent_;
  }

 private:
  double capacity_;
  std::size_t max_concurrent_;
};

/// Factory for the built-in models. `capacity` and `max_concurrent` are
/// only consulted for kBoundedMultiport.
[[nodiscard]] std::unique_ptr<CommModel> make_comm_model(
    CommModelKind kind,
    double capacity = std::numeric_limits<double>::infinity(),
    std::size_t max_concurrent = BoundedMultiportModel::kUnlimited);

}  // namespace nldl::sim
