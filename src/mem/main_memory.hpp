// Flat L2 memory model. AraXL's clusters see L2 through the GLSU; the
// functional side is a plain byte-addressable store with typed accessors,
// while all timing (latency, bandwidth, beats) is modelled in the GLSU and
// the timing engine.
#ifndef ARAXL_MEM_MAIN_MEMORY_HPP
#define ARAXL_MEM_MAIN_MEMORY_HPP

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/contracts.hpp"

namespace araxl {

/// Byte-addressable main memory (the paper assumes an L2 of at least
/// 16 MiB to fit the benchmarks; we default to 64 MiB).
///
/// Backed by an anonymous mmap where available: pages are zero-on-demand,
/// so constructing a Machine costs O(pages actually touched), not O(64 MiB)
/// — this is what keeps per-job setup cheap when the sweep driver spins up
/// hundreds of short-lived Machines across worker threads.
class MainMemory {
 public:
  static constexpr std::uint64_t kDefaultSize = 64ull << 20;

  explicit MainMemory(std::uint64_t size_bytes = kDefaultSize);
  ~MainMemory();

  // Referenced by the functional engine for the Machine's lifetime.
  MainMemory(const MainMemory&) = delete;
  MainMemory& operator=(const MainMemory&) = delete;

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  /// Whether [addr, addr + len) lies inside memory (the accessors' check).
  [[nodiscard]] bool in_bounds(std::uint64_t addr, std::uint64_t len) const noexcept {
    return addr + len <= size_ && addr + len >= addr;
  }

  void read(std::uint64_t addr, std::span<std::uint8_t> out) const;
  void write(std::uint64_t addr, std::span<const std::uint8_t> in);

  /// Typed scalar accessors (little-endian, matching RISC-V).
  template <typename T>
  [[nodiscard]] T load(std::uint64_t addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    bounds(addr, sizeof(T));
    T v;
    std::memcpy(&v, data_ + addr, sizeof(T));
    return v;
  }

  template <typename T>
  void store(std::uint64_t addr, T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bounds(addr, sizeof(T));
    std::memcpy(data_ + addr, &v, sizeof(T));
  }

  /// Bounds-checked raw window (single check for a whole bulk transfer).
  [[nodiscard]] const std::uint8_t* raw(std::uint64_t addr,
                                        std::uint64_t len) const {
    bounds(addr, len);
    return data_ + addr;
  }
  [[nodiscard]] std::uint8_t* raw(std::uint64_t addr, std::uint64_t len) {
    bounds(addr, len);
    return data_ + addr;
  }

  /// Bulk helpers for workload setup/verification.
  void store_doubles(std::uint64_t addr, std::span<const double> values);
  [[nodiscard]] std::vector<double> load_doubles(std::uint64_t addr,
                                                 std::size_t count) const;

  void fill(std::uint8_t value) { std::memset(data_, value, size_); }

 private:
  void bounds(std::uint64_t addr, std::uint64_t len) const {
    check(in_bounds(addr, len), "memory access out of bounds");
  }

  std::uint64_t size_ = 0;
  std::uint8_t* data_ = nullptr;
  bool mapped_ = false;  ///< data_ came from mmap, not new[]
};

}  // namespace araxl

#endif  // ARAXL_MEM_MAIN_MEMORY_HPP
