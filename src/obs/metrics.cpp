#include "obs/metrics.hpp"

#include "util/assert.hpp"
#include "util/json.hpp"

namespace nldl::obs {

MetricsRegistry::Entry& MetricsRegistry::slot(std::string_view name,
                                              Type type) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& entry = entries_[it->second];
    NLDL_REQUIRE(entry.type == type,
                 "metric '" + std::string(name) +
                     "' already registered with a different type");
    return entry;
  }
  Entry entry;
  entry.name = std::string(name);
  entry.type = type;
  entries_.push_back(std::move(entry));
  index_.emplace(entries_.back().name, entries_.size() - 1);
  return entries_.back();
}

const MetricsRegistry::Entry* MetricsRegistry::find(
    std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  return &entries_[it->second];
}

std::uint64_t& MetricsRegistry::counter(std::string_view name) {
  return slot(name, Type::kCounter).count;
}

double& MetricsRegistry::gauge(std::string_view name) {
  return slot(name, Type::kGauge).gauge;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const Entry* entry = find(name);
  NLDL_REQUIRE(entry != nullptr && entry->type == Type::kCounter,
               "no counter named '" + std::string(name) + "'");
  return entry->count;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const Entry* entry = find(name);
  NLDL_REQUIRE(entry != nullptr && entry->type == Type::kGauge,
               "no gauge named '" + std::string(name) + "'");
  return entry->gauge;
}

bool MetricsRegistry::contains(std::string_view name) const {
  return find(name) != nullptr;
}

void MetricsRegistry::write_json(util::JsonWriter& json) const {
  json.begin_object();
  for (const Entry& entry : entries_) {
    json.key(entry.name);
    switch (entry.type) {
      case Type::kCounter:
        json.value(entry.count);
        break;
      case Type::kGauge:
        json.value(entry.gauge);
        break;
    }
  }
  json.end_object();
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.name);
  return out;
}

}  // namespace nldl::obs
