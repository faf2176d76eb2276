#include "machine/machine.hpp"

namespace araxl {

Machine::Machine(MachineConfig cfg)
    : cfg_(std::move(cfg)),
      mem_((cfg_.validate(), cfg_.mem_size_bytes)),
      vrf_(cfg_.topo, cfg_.effective_vlen(), cfg_.mask_layout()),
      fn_(cfg_, vrf_, mem_) {}

RunStats Machine::run(const Program& prog, InstrTrace* trace,
                      const RunControl* control,
                      obs::MetricsRegistry* metrics) {
  // Instrument binding is cached across runs: re-binding the same registry
  // is a pointer compare, so the per-run cost of carrying metrics is the
  // counters themselves, not a name lookup per counter.
  instruments_.bind(metrics);
  TimingEngine engine(cfg_, fn_, trace,
                      metrics == nullptr ? nullptr : &instruments_);
  return engine.run(prog, control);
}

}  // namespace araxl
