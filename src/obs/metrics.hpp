// Lightweight metrics registry: named counters for observing the simulator
// itself.
//
// Design constraints, in order:
//   * near-zero cost when disabled — every instrumented site holds a raw
//     pointer that is nullptr when no registry is attached, so the off
//     path is one branch and no atomic traffic;
//   * thread-safe when enabled — sweep workers share one registry, so
//     counters are relaxed atomics and the registry map is mutex-guarded
//     (counter pointers stay stable across registrations: the map owns
//     each counter behind a unique_ptr);
//   * deterministic output — `to_json()` emits counters in name order, so
//     a rollup is a pure function of the counted events, not of
//     registration or thread order.
//
// Naming convention: dot-separated lowercase paths, coarse-to-fine —
// `engine.stall.raw_dependency`, `runner.phase.simulate_ns`,
// `store.flush_bytes`, `engine.batch.reject.liveness_gate`. Every
// `engine.*` counter except `engine.runs` mirrors a RunStats field (the
// `metric` column of kRunStatsFields in sim/stats.hpp).
#ifndef ARAXL_OBS_METRICS_HPP
#define ARAXL_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace araxl::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Named counter namespace. counter() finds or creates by name and returns
/// a stable pointer that outlives further registrations (valid for the
/// registry's lifetime).
class MetricsRegistry {
 public:
  Counter* counter(std::string_view name);

  /// One flat JSON object of counter values, in name order. Deterministic
  /// for a given set of counted events.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
};

}  // namespace araxl::obs

#endif  // ARAXL_OBS_METRICS_HPP
