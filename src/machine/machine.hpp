// Machine — the library's primary facade.
//
// Owns the architectural state (memory, VRF) and runs Programs through the
// functional + timing engines. Typical use:
//
//   auto cfg = MachineConfig::araxl(64);       // 16 clusters x 4 lanes
//   Machine m(cfg);
//   m.mem().store_doubles(0x1000, data);
//   ProgramBuilder pb(cfg.effective_vlen(), "axpy");
//   ... emit instructions ...
//   RunStats stats = m.run(pb.take());
//   std::cout << stats.fpu_util() << "\n";
#ifndef ARAXL_MACHINE_MACHINE_HPP
#define ARAXL_MACHINE_MACHINE_HPP

#include "machine/config.hpp"
#include "machine/functional.hpp"
#include "machine/timing.hpp"
#include "mem/main_memory.hpp"
#include "sim/stats.hpp"
#include "vrf/vrf.hpp"

namespace araxl {

class Machine {
 public:
  explicit Machine(MachineConfig cfg);

  // The functional engine holds references into this object's memory and
  // VRF, so a Machine must never be copied or moved (placing one in a
  // reallocating container would dangle those references). Guaranteed copy
  // elision still allows returning a fresh Machine by value.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  Machine(Machine&&) = delete;
  Machine& operator=(Machine&&) = delete;

  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] MainMemory& mem() noexcept { return mem_; }
  [[nodiscard]] const MainMemory& mem() const noexcept { return mem_; }
  [[nodiscard]] Vrf& vrf() noexcept { return vrf_; }
  [[nodiscard]] const Vrf& vrf() const noexcept { return vrf_; }

  /// Scalar FP accumulator (result of the last vfmv.f.s).
  [[nodiscard]] double scalar_acc() const noexcept { return fn_.scalar_acc(); }
  /// Scalar integer accumulator (result of the last vcpop.m / vfirst.m).
  [[nodiscard]] std::int64_t scalar_iacc() const noexcept {
    return fn_.scalar_iacc();
  }

  /// Simulates `prog` to completion. Architectural state (memory, VRF)
  /// persists across runs; timing state does not. An optional trace sink
  /// receives one record per retired vector instruction (see trace/). An
  /// optional RunControl is polled cooperatively at scheduler wakeups —
  /// a fired shutdown token or deadline raises SimCancelled (the driver's
  /// job-timeout and graceful-shutdown paths). An optional metrics
  /// registry (obs/metrics.hpp) receives the run's mirrored RunStats
  /// counters (cycles, stall taxonomy, batching telemetry) once it ends;
  /// simulated results are identical with or without one (metrics are
  /// pure observers).
  RunStats run(const Program& prog, InstrTrace* trace = nullptr,
               const RunControl* control = nullptr,
               obs::MetricsRegistry* metrics = nullptr);

 private:
  MachineConfig cfg_;
  MainMemory mem_;
  Vrf vrf_;
  FunctionalEngine fn_;
  EngineInstruments instruments_;
};

}  // namespace araxl

#endif  // ARAXL_MACHINE_MACHINE_HPP
