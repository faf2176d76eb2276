#include "driver/spec.hpp"

#include <charconv>
#include <limits>

#include "common/contracts.hpp"

namespace araxl::driver {

namespace {

std::uint64_t parse_u64(std::string_view s, std::string_view what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  check(ec == std::errc() && ptr == s.data() + s.size(),
        "bad number in " + std::string(what) + ": '" + std::string(s) + "'");
  return v;
}

// Out-of-range values are rejected, never truncated (araxl:4294967304 is
// not araxl:8).
unsigned parse_unsigned(std::string_view s, std::string_view what) {
  const std::uint64_t v = parse_u64(s, what);
  check(v <= std::numeric_limits<unsigned>::max(),
        "number out of range in " + std::string(what) + ": '" + std::string(s) + "'");
  return static_cast<unsigned>(v);
}

}  // namespace

std::vector<std::string> split_list(std::string_view csv) {
  std::vector<std::string> out;
  while (!csv.empty()) {
    const std::size_t comma = csv.find(',');
    const std::string_view piece = csv.substr(0, comma);
    check(!piece.empty(), "empty element in comma-separated list");
    out.emplace_back(piece);
    if (comma == std::string_view::npos) break;
    csv.remove_prefix(comma + 1);
  }
  check(!out.empty(), "empty comma-separated list");
  return out;
}

std::vector<std::uint64_t> parse_u64_list(std::string_view csv) {
  std::vector<std::uint64_t> out;
  for (const std::string& piece : split_list(csv)) {
    out.push_back(parse_u64(piece, "list"));
  }
  return out;
}

ConfigPoint parse_config_spec(std::string_view spec) {
  const std::string label(spec);
  std::vector<std::string> parts;
  {
    std::string_view rest = spec;
    while (!rest.empty()) {
      const std::size_t colon = rest.find(':');
      parts.emplace_back(rest.substr(0, colon));
      if (colon == std::string_view::npos) break;
      rest.remove_prefix(colon + 1);
    }
  }
  check(parts.size() >= 2, "config spec needs kind:lanes — got '" + label + "'");

  MachineConfig cfg;
  const std::string& kind = parts[0];
  const std::string& shape = parts[1];
  const std::size_t x = shape.find('x');
  if (kind == "araxl") {
    if (x == std::string::npos) {
      cfg = MachineConfig::araxl(parse_unsigned(shape, label));
    } else {
      const std::size_t x2 = shape.find('x', x + 1);
      if (x2 == std::string::npos) {
        cfg = MachineConfig::araxl_shaped(
            parse_unsigned(shape.substr(0, x), label),
            parse_unsigned(shape.substr(x + 1), label));
      } else {
        // Three-level hierarchical shape: groups x clusters x lanes.
        cfg = MachineConfig::araxl_hier(
            parse_unsigned(shape.substr(0, x), label),
            parse_unsigned(shape.substr(x + 1, x2 - x - 1), label),
            parse_unsigned(shape.substr(x2 + 1), label));
      }
    }
  } else if (kind == "ara2") {
    check(x == std::string::npos, "ara2 takes a plain lane count: " + label);
    cfg = MachineConfig::ara2(parse_unsigned(shape, label));
  } else {
    fail("unknown machine kind '" + kind + "' in config spec '" + label + "'");
  }

  for (std::size_t i = 2; i < parts.size(); ++i) {
    const std::string& knob = parts[i];
    const std::size_t eq = knob.find('=');
    check(eq != std::string::npos,
          "config knob must be key=value in '" + label + "'");
    const std::string key = knob.substr(0, eq);
    const std::string val = knob.substr(eq + 1);
    if (key == "groups") {
      // Re-split the machine's clusters into N groups, preserving the
      // total lane count: araxl:128:groups=8 is 8 groups x 4 clusters.
      const unsigned groups = parse_unsigned(val, label);
      const unsigned total = cfg.topo.total_clusters();
      check(groups >= 1 && total % groups == 0,
            "groups must divide the cluster count in '" + label + "'");
      cfg.topo = Topology{total / groups, cfg.topo.lanes, groups};
    } else if (key == "glsu") {
      cfg.glsu_regs = parse_unsigned(val, label);
    } else if (key == "reqi") {
      cfg.reqi_regs = parse_unsigned(val, label);
    } else if (key == "ring") {
      cfg.ring_regs = parse_unsigned(val, label);
    } else if (key == "l2") {
      cfg.l2_latency = parse_unsigned(val, label);
    } else if (key == "vlen") {
      cfg.vlen_bits = parse_u64(val, label);  // 0 would mean "default VLEN"
      check(cfg.vlen_bits != 0, "vlen must be nonzero in '" + label + "'");
    } else if (key == "mode") {
      if (val == "event") {
        cfg.timing_mode = TimingMode::kEventDriven;
      } else if (val == "cycle") {
        cfg.timing_mode = TimingMode::kCycleStepped;
      } else {
        fail("mode must be 'event' or 'cycle' in '" + label + "'");
      }
    } else {
      fail("unknown config knob '" + key + "' in '" + label + "'");
    }
  }
  cfg.validate();
  return ConfigPoint{label, cfg};
}

ShardSpec parse_shard_spec(std::string_view spec) {
  const std::size_t slash = spec.find('/');
  check(slash != std::string_view::npos && slash > 0 && slash + 1 < spec.size(),
        "shard spec must be i/N (e.g. 2/4): '" + std::string(spec) + "'");
  ShardSpec shard;
  shard.index = parse_unsigned(spec.substr(0, slash), "shard");
  shard.count = parse_unsigned(spec.substr(slash + 1), "shard");
  check(shard.count >= 1 && shard.index >= 1 && shard.index <= shard.count,
        "shard index must be in 1..count: '" + std::string(spec) + "'");
  return shard;
}

}  // namespace araxl::driver
