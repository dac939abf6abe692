#include "qos/plan.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "dlt/nonlinear_dlt.hpp"
#include "util/assert.hpp"

namespace nldl::qos {

namespace {

/// Table size of a memo's first insert. Doubling from it must reach the
/// cap of 2 × kMemoEntries slots exactly.
constexpr std::size_t kMemoMinSlots = 16;
static_assert(std::has_single_bit(InstallmentSolver::kMemoEntries) &&
              kMemoMinSlots <= 2 * InstallmentSolver::kMemoEntries);

/// Home slot hash of a (load, alpha) key: splitmix64's finalizer over
/// both bit patterns, so loads one ulp apart land far apart.
std::uint64_t memo_hash(std::uint64_t load, std::uint64_t alpha) noexcept {
  std::uint64_t h = load ^ (alpha * 0x9e3779b97f4a7c15ULL);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

std::unique_ptr<sim::CommModel> make_model(const ServiceModel& service) {
  return sim::make_comm_model(service.comm, service.capacity,
                              sim::BoundedMultiportModel::kUnlimited);
}

InstallmentSolver::InstallmentSolver(const platform::Platform& platform,
                                     const sim::CommModel& model,
                                     ServiceModel service)
    : platform_(platform),
      service_(service),
      engine_(platform),
      run_(engine_, model) {
  NLDL_REQUIRE(service.plan.rounds >= 1,
               "service plans require at least one round");
}

InstallmentSolver::Installment InstallmentSolver::solve(double load,
                                                        double alpha) {
  NLDL_REQUIRE(load > 0.0, "installments require a positive load");
  // Bit patterns name the same keys as values here: the solve below
  // rejects every alpha but finite ones >= 1, so neither a NaN nor a
  // signed zero reaches the memo.
  const auto load_bits = std::bit_cast<std::uint64_t>(load);
  const auto alpha_bits = std::bit_cast<std::uint64_t>(alpha);
  if (!memo_.empty()) {
    const MemoSlot& slot = memo_[probe(load_bits, alpha_bits)];
    if (slot.load_bits != 0) return slot.installment;
  }

  // Solve the matched optimal allocation and replay it under the actual
  // comm model (the replay reproduces the allocator's makespan under the
  // matched discrete models and corrects it under bounded multiport).
  // The chunks go in worker order, as allocation.to_schedule() lists them.
  const auto allocation =
      dlt::nonlinear_single_round_for(service_.comm, platform_, load, alpha);
  run_.reset_single_round(allocation.amounts, alpha);
  run_.drain();
  Installment installment;
  installment.duration = run_.makespan();
  for (const double t : run_.worker_compute_time()) {
    installment.busy += t;
  }
  remember(load_bits, alpha_bits, installment);
  return installment;
}

std::size_t InstallmentSolver::probe(std::uint64_t load_bits,
                                     std::uint64_t alpha_bits) const noexcept {
  const std::size_t mask = memo_.size() - 1;
  std::size_t i =
      static_cast<std::size_t>(memo_hash(load_bits, alpha_bits)) & mask;
  while (memo_[i].load_bits != 0 && (memo_[i].load_bits != load_bits ||
                                     memo_[i].alpha_bits != alpha_bits)) {
    i = (i + 1) & mask;
  }
  return i;
}

void InstallmentSolver::remember(std::uint64_t load_bits,
                                 std::uint64_t alpha_bits,
                                 const Installment& installment) {
  // At most half full, so every probe run ends at an empty slot.
  if (2 * (memo_size_ + 1) > memo_.size()) {
    if (memo_.size() == 2 * kMemoEntries) {
      std::fill(memo_.begin(), memo_.end(), MemoSlot{});
      memo_size_ = 0;
    } else {
      const std::vector<MemoSlot> old = std::exchange(
          memo_, std::vector<MemoSlot>(
                     std::max(kMemoMinSlots, 2 * memo_.size())));
      for (const MemoSlot& slot : old) {
        if (slot.load_bits != 0) {
          memo_[probe(slot.load_bits, slot.alpha_bits)] = slot;
        }
      }
    }
  }
  memo_[probe(load_bits, alpha_bits)] = {load_bits, alpha_bits, installment};
  ++memo_size_;
}

double InstallmentSolver::predicted_service(double load, double alpha) {
  NLDL_REQUIRE(load > 0.0, "predicted_service requires a positive load");
  const double rounds = static_cast<double>(service_.plan.rounds);
  return rounds * solve(load / rounds, alpha).duration;
}

ServicePlan::ServicePlan(InstallmentSolver& solver, const online::Job& job,
                         double served_load)
    : solver_(solver),
      alpha_(job.alpha),
      served_load_(served_load),
      rounds_(solver.service().plan.rounds),
      restart_fraction_(solver.service().plan.restart_load_fraction) {
  NLDL_REQUIRE(served_load > 0.0 && served_load <= job.load,
               "served load must be in (0, job.load]");
  NLDL_REQUIRE(restart_fraction_ >= 0.0,
               "restart load fraction must be >= 0");
  const auto clean = solver_.solve(
      served_load_ / static_cast<double>(rounds_), alpha_);
  clean_ = clean.duration;
  clean_busy_ = clean.busy;
}

void ServicePlan::ensure_restart_solved() {
  if (restart_solved_) return;
  restart_solved_ = true;
  if (restart_fraction_ == 0.0) {
    // Free checkpoints: a resumed installment IS a clean installment, so
    // a paused-and-resumed plan reproduces the uninterrupted timeline
    // exactly (the pinned zero-restart-cost equivalence).
    restart_ = clean_;
    restart_busy_ = clean_busy_;
    return;
  }
  const auto restart = solver_.solve(
      (1.0 + restart_fraction_) * served_load_ /
          static_cast<double>(rounds_),
      alpha_);
  restart_ = restart.duration;
  restart_busy_ = restart.busy;
}

double ServicePlan::remaining_load() const noexcept {
  return served_load_ *
         static_cast<double>(rounds_ - completed_rounds_) /
         static_cast<double>(rounds_);
}

double ServicePlan::next_duration() {
  NLDL_REQUIRE(!done(), "next_duration() on a finished plan");
  if (!restart_pending_) return clean_;
  ensure_restart_solved();
  return restart_;
}

double ServicePlan::next_load() const {
  NLDL_REQUIRE(!done(), "next_load() on a finished plan");
  const double clean_load =
      served_load_ / static_cast<double>(rounds_);
  return restart_pending_ ? (1.0 + restart_fraction_) * clean_load
                          : clean_load;
}

double ServicePlan::remaining_duration() {
  if (done()) return 0.0;
  double total =
      static_cast<double>(rounds_ - completed_rounds_) * clean_;
  if (restart_pending_) {
    ensure_restart_solved();
    total += restart_ - clean_;
  }
  return total;
}

void ServicePlan::advance() {
  NLDL_REQUIRE(!done(), "advance() on a finished plan");
  if (restart_pending_) {
    ensure_restart_solved();
    restart_time_ += restart_ - clean_;
    compute_time_ += restart_busy_;
    restart_pending_ = false;
  } else {
    compute_time_ += clean_busy_;
  }
  ++completed_rounds_;
}

void ServicePlan::pause() {
  if (!started() || done() || restart_pending_) return;
  restart_pending_ = true;
  ++preemptions_;
}

}  // namespace nldl::qos
