// Area model (kGE) for AraXL and the Ara2 baseline — paper §IV-D.
//
// The model is structural (per-lane, per-cluster and per-interface terms,
// with the quadratic all-to-all terms that limit Ara2's scalability) and is
// calibrated against the paper's published 22-nm numbers: the Fig. 9
// breakdown of the 16-lane instances and the Table II scaling of 16/32/64
// lanes. Anchored configurations reproduce the paper to the kGE; other
// configurations — including hierarchical (groups > 1) machines, whose
// interface terms are derived from the InterconnectSpec descriptor's ring-
// stop counts and broadcast-tree depth — follow the structural formulas.
#ifndef ARAXL_PPA_AREA_MODEL_HPP
#define ARAXL_PPA_AREA_MODEL_HPP

#include <string>
#include <vector>

#include "interconnect/spec.hpp"
#include "machine/config.hpp"

namespace araxl {

/// One named block of the area breakdown.
struct AreaBlock {
  std::string name;
  double kge = 0.0;
};

/// Full breakdown of one configuration.
struct AreaBreakdown {
  std::vector<AreaBlock> blocks;

  [[nodiscard]] double total_kge() const;
  [[nodiscard]] double block_kge(std::string_view name) const;  // 0 if absent
};

/// mm^2 per kGE in the paper's 22-nm node (fitted from the four
/// GFLOPS/mm^2 rows of Table III; ~0.201 um^2 per gate equivalent).
inline constexpr double kMm2PerKge = 2.01e-4;

class AreaModel {
 public:
  /// Breakdown in Table II structure for AraXL (Clusters / CVA6 / GLSU /
  /// RINGI / REQI) or Fig. 9 structure for Ara2 (lanes / MASKU / SLDU /
  /// VLSU / SEQ+DISP / CVA6 / glue).
  [[nodiscard]] AreaBreakdown breakdown(const MachineConfig& cfg) const;

  /// Fig. 9 style per-unit breakdown for AraXL where the top-level GLSU,
  /// RINGI and REQI areas are folded into VLSU, SLDU and SEQ+DISP
  /// respectively (matching the figure's caption).
  [[nodiscard]] AreaBreakdown fig9_breakdown(const MachineConfig& cfg) const;

  [[nodiscard]] double total_kge(const MachineConfig& cfg) const;
  [[nodiscard]] double total_mm2(const MachineConfig& cfg) const;

  // ---- individual structural terms (kGE) ----------------------------------
  [[nodiscard]] double cluster_kge() const;         ///< one 4-lane AraXL cluster
  /// Top-level interface areas, derived from the descriptor: GLSU shuffle
  /// wiring is quadratic within a distribution level, RINGI scales with the
  /// total ring-stop count, REQI with the broadcast-tree fanout per level.
  [[nodiscard]] double glsu_kge(const InterconnectSpec& spec) const;
  [[nodiscard]] double ringi_kge(const InterconnectSpec& spec) const;
  [[nodiscard]] double reqi_kge(const InterconnectSpec& spec) const;
  [[nodiscard]] double cva6_kge(const InterconnectSpec& spec) const;
};

}  // namespace araxl

#endif  // ARAXL_PPA_AREA_MODEL_HPP
