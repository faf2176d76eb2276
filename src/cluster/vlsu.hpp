// Per-cluster Vector Load-Store Unit — paper §III-B.3.
//
// On AraXL the local VLSU only shuffles already-aligned bytes to its four
// lanes (the GLSU did the aligning); on Ara2 the lumped A2A VLSU does both
// in one cycle, which is what limits its scalability. This module holds the
// local shuffle math and the predicate for accesses that degrade to
// element-granular beats.
#ifndef ARAXL_CLUSTER_VLSU_HPP
#define ARAXL_CLUSTER_VLSU_HPP

#include <cstdint>

#include "isa/instr.hpp"
#include "vrf/mapping.hpp"

namespace araxl {

/// True for strided/indexed accesses, which are "supported, albeit at
/// lower throughput" (paper §III-A): one element per cluster per cycle.
bool elementwise_mem_op(Op op);

/// Bytes of a `vl` x `ew` unit-stride access handled by one lane of one
/// cluster (balanced up to one row by construction of the mapping).
std::uint64_t vlsu_lane_byte_share(const VrfMapping& map, std::uint64_t vl,
                                   unsigned ew, unsigned cluster, unsigned lane);

}  // namespace araxl

#endif  // ARAXL_CLUSTER_VLSU_HPP
