#include "obs/metrics.hpp"

#include "store/json.hpp"

namespace araxl::obs {

Counter* MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second.get();
  auto c = std::make_unique<Counter>();
  Counter* raw = c.get();
  counters_.emplace(std::string(name), std::move(c));
  return raw;
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  for (const auto& [name, c] : counters_) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += store::json_escape(name);
    out += "\":";
    out += store::json_u64(c->value());
  }
  out += "}";
  return out;
}

}  // namespace araxl::obs
