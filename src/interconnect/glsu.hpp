// Global Load-Store Unit (GLSU) model — paper §III-B.3 and Fig. 3.
//
// The GLSU sits between the L2 memory and the per-cluster VLSUs. Its three
// pipelined stages are:
//   Align   — shifts misaligned data onto the memory bus with power-of-two
//             shift levels (2 levels modelled),
//   Addrgen — splits requests into AXI bursts and converts bandwidth,
//   Shuffle — distributes aligned data to the owning clusters per the
//             element mapping (2 levels modelled; hierarchical machines
//             add one group-distribution level per hierarchy level).
// Extra pipeline registers (glsu_regs) add 2 cycles each to the
// request-response latency (the paper's "+4 registers => +8 cycles").
//
// Functionally the GLSU's job is the element mapping itself, which lives in
// VrfMapping; this model supplies the timing and the per-cluster
// distribution math that the tests validate against the mapping. All
// latencies come from the InterconnectSpec descriptor; this model never
// sees MachineKind.
#ifndef ARAXL_INTERCONNECT_GLSU_HPP
#define ARAXL_INTERCONNECT_GLSU_HPP

#include <cstdint>
#include <vector>

#include "interconnect/spec.hpp"
#include "machine/config.hpp"
#include "sim/cycle.hpp"

namespace araxl {

class GlsuModel {
 public:
  explicit GlsuModel(const InterconnectSpec& spec) : spec_(spec) {}
  explicit GlsuModel(const MachineConfig& cfg) : spec_(cfg.interconnect()) {}

  /// Data bus width in bytes (per direction; read/write are separate
  /// channels).
  [[nodiscard]] std::uint64_t bus_bytes() const { return spec_.bus_bytes; }

  /// Load request -> first data beat written into the VRF: the GLSU pipe
  /// (single-stage on a lumped machine) on top of the L2 latency.
  [[nodiscard]] unsigned load_latency() const {
    return spec_.glsu_load_latency + spec_.l2_latency;
  }

  /// Store path latency before the first beat leaves the cluster.
  [[nodiscard]] unsigned store_latency() const {
    return spec_.glsu_store_latency;
  }

  /// Useless bytes transferred in the first beat of a misaligned access
  /// (the Align stage ships the full first bus word).
  [[nodiscard]] std::uint64_t head_skew(std::uint64_t addr) const {
    return addr % bus_bytes();
  }

  /// Bytes granted to the bus owner in one cycle (per-cycle engine).
  [[nodiscard]] std::uint64_t grant_bytes(std::uint64_t remaining) const {
    const std::uint64_t bus = bus_bytes();
    return remaining < bus ? remaining : bus;
  }

  /// Cycles a full-bandwidth owner needs to move `bytes` (bulk grant for
  /// the event-driven engine's closed-form advancement).
  [[nodiscard]] Cycle cycles_for_bytes(std::uint64_t bytes) const {
    const std::uint64_t bus = bus_bytes();
    return bytes == 0 ? 0 : (bytes + bus - 1) / bus;
  }

  /// Shuffle-stage distribution: how many bytes of a unit-stride access of
  /// `vl` elements (width `ew`) land in each (globally numbered) cluster.
  /// Tests validate this against the element mapping.
  [[nodiscard]] std::vector<std::uint64_t> cluster_byte_share(std::uint64_t vl,
                                                              unsigned ew) const;

 private:
  InterconnectSpec spec_;
};

}  // namespace araxl

#endif  // ARAXL_INTERCONNECT_GLSU_HPP
