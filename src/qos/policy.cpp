#include "qos/policy.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace nldl::qos {

namespace {

/// Index of the active candidate, or ready.size() when none is active.
std::size_t active_index(const std::vector<Candidate>& ready) {
  for (std::size_t k = 0; k < ready.size(); ++k) {
    if (ready[k].active) return k;
  }
  return ready.size();
}

/// Smallest candidate under `key` with (arrival, id) tie-breaking.
template <typename Key>
std::size_t argmin(const std::vector<Candidate>& ready, Key key) {
  NLDL_REQUIRE(!ready.empty(), "pick() on an empty ready set");
  std::size_t best = 0;
  for (std::size_t k = 1; k < ready.size(); ++k) {
    const double a = key(ready[k]);
    const double b = key(ready[best]);
    if (a < b ||
        (a == b && (ready[k].job->arrival < ready[best].job->arrival ||  // nldl-lint: allow(double-eq): deterministic tie-break on equal keys
                    (ready[k].job->arrival == ready[best].job->arrival &&
                     ready[k].job->id < ready[best].job->id)))) {
      best = k;
    }
  }
  return best;
}

}  // namespace

void Policy::reset(std::size_t) {}

void Policy::on_service(const Candidate&, double) {}

std::size_t FcfsPolicy::pick(const std::vector<Candidate>& ready, double) {
  const std::size_t active = active_index(ready);
  if (active < ready.size()) return active;  // non-preemptive: run on
  return argmin(ready, [](const Candidate& c) { return c.job->arrival; });
}

std::size_t SpmfPolicy::pick(const std::vector<Candidate>& ready, double) {
  const std::size_t active = active_index(ready);
  if (active < ready.size()) return active;
  return argmin(ready, [](const Candidate& c) { return c.total_duration; });
}

std::size_t SrptPolicy::pick(const std::vector<Candidate>& ready, double) {
  return argmin(ready,
                [](const Candidate& c) { return c.remaining_duration; });
}

std::size_t EdfPolicy::pick(const std::vector<Candidate>& ready, double) {
  return argmin(ready, [](const Candidate& c) { return c.job->deadline; });
}

WfqPolicy::WfqPolicy(std::vector<double> weights)
    : weights_(std::move(weights)) {
  for (const double w : weights_) {
    NLDL_REQUIRE(w > 0.0, "WFQ tenant weights must be positive");
  }
}

double WfqPolicy::weight(std::size_t tenant) const {
  return tenant < weights_.size() ? weights_[tenant] : 1.0;
}

double WfqPolicy::attained(std::size_t tenant) const {
  NLDL_REQUIRE(tenant < attained_.size(), "unknown tenant");
  return attained_[tenant];
}

void WfqPolicy::reset(std::size_t tenants) {
  attained_.assign(std::max(tenants, weights_.size()), 0.0);
}

std::size_t WfqPolicy::pick(const std::vector<Candidate>& ready, double) {
  NLDL_REQUIRE(!ready.empty(), "pick() on an empty ready set");
  // Serve the tenant with the least attained weighted service, FCFS
  // within the tenant. Normalized attained service is the WFQ virtual
  // time at chunk granularity.
  return argmin(ready, [&](const Candidate& c) {
    const std::size_t t = c.job->tenant;
    const double attained =
        t < attained_.size() ? attained_[t] : 0.0;
    return attained / weight(t);
  });
}

void WfqPolicy::on_service(const Candidate& served, double duration) {
  const std::size_t t = served.job->tenant;
  if (t >= attained_.size()) attained_.resize(t + 1, 0.0);
  attained_[t] += duration;
}

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFcfs:
      return "fcfs";
    case PolicyKind::kSpmf:
      return "spmf";
    case PolicyKind::kSrpt:
      return "srpt";
    case PolicyKind::kEdf:
      return "edf";
    case PolicyKind::kWfq:
      return "wfq";
  }
  NLDL_UNREACHABLE("unknown policy kind");
}

std::unique_ptr<Policy> make_policy(PolicyKind kind,
                                    std::vector<double> tenant_weights) {
  switch (kind) {
    case PolicyKind::kFcfs:
      return std::make_unique<FcfsPolicy>();
    case PolicyKind::kSpmf:
      return std::make_unique<SpmfPolicy>();
    case PolicyKind::kSrpt:
      return std::make_unique<SrptPolicy>();
    case PolicyKind::kEdf:
      return std::make_unique<EdfPolicy>();
    case PolicyKind::kWfq:
      return std::make_unique<WfqPolicy>(std::move(tenant_weights));
  }
  NLDL_UNREACHABLE("unknown policy kind");
}

}  // namespace nldl::qos
