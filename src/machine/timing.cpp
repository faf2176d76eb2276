#include "machine/timing.hpp"

#include <algorithm>

#include "cluster/sequencer.hpp"
#include "cluster/vlsu.hpp"
#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "isa/disasm.hpp"
#include "obs/metrics.hpp"

namespace araxl {

bool mem_range(const VInstr& in, std::uint64_t vl, unsigned ew, std::uint64_t* lo,
               std::uint64_t* hi) {
  switch (in.op) {
    case Op::kVle:
    case Op::kVse:
    case Op::kVlse:
    case Op::kVsse: {
      if (vl == 0) {  // zero-element ops touch no memory at all
        *lo = in.addr;
        *hi = in.addr;
        return true;
      }
      if (in.op == Op::kVle || in.op == Op::kVse) {
        *lo = in.addr;
        *hi = in.addr + vl * ew;
        return true;
      }
      const std::int64_t span = in.stride * static_cast<std::int64_t>(vl - 1);
      const std::int64_t a = static_cast<std::int64_t>(in.addr);
      *lo = static_cast<std::uint64_t>(std::min(a, a + span));
      *hi = static_cast<std::uint64_t>(std::max(a, a + span)) + ew;
      return true;
    }
    default: return false;  // indexed: unknown footprint
  }
}

namespace {

/// Unit tick order within a cycle (tick_units walks units in enum order).
constexpr unsigned unit_order(Unit u) { return static_cast<unsigned>(u); }

}  // namespace

TimingEngine::TimingEngine(const MachineConfig& cfg, FunctionalEngine& fn,
                           InstrTrace* trace, const EngineInstruments* metrics)
    : cfg_(cfg), fn_(fn), trace_(trace), metrics_(metrics),
      ispec_(cfg.interconnect()),
      reqi_(ispec_), glsu_(ispec_), ring_(ispec_), lanes_(cfg), cva6_(cfg),
      watchdog_(cfg.watchdog_budget == 0 ? WakeupWatchdog::kDefaultBudget
                                         : cfg.watchdog_budget) {
  for (std::size_t u = 1; u < kNumUnits; ++u) {
    max_chain_lag_ = std::max<Cycle>(max_chain_lag_,
                                     lanes_.chain_lag(static_cast<Unit>(u)));
  }
}

void EngineInstruments::bind(obs::MetricsRegistry* reg) {
  if (reg == registry) return;
  registry = reg;
  if (reg == nullptr) return;
  runs = reg->counter("engine.runs");
  std::size_t slot = 0;
  for (const StatField& f : kRunStatsFields) {
    for (std::size_t i = 0; i < f.size; ++i, ++slot) {
      if (!f.metric.empty()) mirror[slot] = reg->counter(f.metric_name(i));
    }
  }
}

void TimingEngine::metrics_end_run() {
  if (metrics_ == nullptr) return;
  metrics_->runs->inc();
  // Counters are folded from the finished RunStats instead of being added
  // where they accrue: the per-slot stall path in attribute_piece is the
  // hottest loop in the engine, and a registry test there erodes the
  // metrics-overhead budget. Folding here also covers the batched K×
  // deltas, which never passed through attribute_piece at all.
  std::size_t slot = 0;
  for (const StatField& f : kRunStatsFields) {
    for (const std::uint64_t v : f.values(stats_)) {
      if (obs::Counter* c = metrics_->mirror[slot++]) c->add(v);
    }
  }
}

void TimingEngine::count_batch_reject(BatchReject r, Cycle t) {
  const auto idx = static_cast<std::size_t>(r);
  ++stats_.batch_rejects[idx];
  if (trace_ != nullptr) trace_->mark(t, SimMarkerKind::kBatchReject, idx);
}

const Inflight* TimingEngine::find(const RegRef& ref) const {
  return ref.id == 0 ? nullptr : pool_.get(ref.slot, ref.id);
}

bool TimingEngine::full_dep_visible(Cycle t, const Dep& d,
                                    const Inflight& p) const {
  if (p.finished_at == kNeverCycle) return false;
  return t > p.finished_at || (t == p.finished_at && d.producer_ticks_first);
}

std::uint64_t TimingEngine::avail_elems(Cycle t, const Inflight& instr) const {
  std::uint64_t avail = instr.vl;
  for (const Dep& d : instr.deps) {
    const Inflight* p = pool_.get(d.slot, d.producer);
    if (p == nullptr) continue;  // retired: fully available
    std::uint64_t pa;
    if (d.full) {
      pa = full_dep_visible(t, d, *p) ? instr.vl : 0;
    } else {
      const std::uint64_t raw = p->hist.value_at_lag(t, d.lag);
      const std::int64_t adj = static_cast<std::int64_t>(raw) - d.offset;
      pa = adj < 0 ? 0 : static_cast<std::uint64_t>(adj);
    }
    avail = std::min(avail, pa);
  }
  return avail;
}

void TimingEngine::account(Unit u, const Inflight& instr, std::uint64_t adv) {
  stats_.unit_busy_elems[static_cast<std::size_t>(u)] += adv;
  if (u == Unit::kFpu) {
    stats_.fpu_result_elems += adv;
    // Busy byte-slots are counted at production time (the stall attributor
    // charges only the shortfall of each attributed span); widening ops
    // occupy destination-width slots, matching rate256's quota adjustment.
    stats_.fpu_busy_slots += adv * fpu_slot_width(instr);
  }
  stats_.flops += adv * instr.spec->flops_per_elem;
  watchdog_.note_progress();
}

Cycle TimingEngine::reduction_done_at(const Inflight& instr, Cycle finish) const {
  // Mirror of the advance_red_phases chain: inter-lane log-tree, ring
  // log-tree across clusters, SIMD-word reduce, scalar writeback.
  Cycle done = finish +
               static_cast<Cycle>(log2_ceil(cfg_.topo.lanes)) * cfg_.red_step_latency;
  done += ring_.reduction_tree_cycles();
  if (instr.ew < 8) {
    done += static_cast<Cycle>(log2_ceil(8 / instr.ew)) * cfg_.red_step_latency;
  }
  done += cfg_.writeback_latency;
  return done;
}

void TimingEngine::finish_producing(Cycle t, Inflight& instr) {
  instr.finished_at = t;
  if (instr.spec->is_reduction) {
    // Enter the inter-lane phase; advance_red_phases() walks the rest.
    instr.red_phase = RedPhase::kInterLane;
    instr.red_phase_end =
        t + static_cast<Cycle>(log2_ceil(cfg_.topo.lanes)) * cfg_.red_step_latency;
    instr.projected_done = reduction_done_at(instr, t);
    return;
  }
  instr.completed_at = t + lanes_.chain_lag(instr.unit);
}

void TimingEngine::advance_red_phases(Cycle t, Inflight& instr) {
  while (instr.red_phase != RedPhase::kDone && t >= instr.red_phase_end) {
    const Cycle base = instr.red_phase_end;
    switch (instr.red_phase) {
      case RedPhase::kInterLane:
        // Next: inter-cluster log-tree over the ring (paper §III-B.4).
        instr.red_phase = RedPhase::kInterCluster;
        instr.red_phase_end = base + ring_.reduction_tree_cycles();
        break;
      case RedPhase::kInterCluster: {
        const Cycle dur = instr.ew < 8
                              ? static_cast<Cycle>(log2_ceil(8 / instr.ew)) *
                                    cfg_.red_step_latency
                              : 0;
        instr.red_phase = RedPhase::kSimd;
        instr.red_phase_end = base + dur;
        break;
      }
      case RedPhase::kSimd:
        instr.red_phase = RedPhase::kWriteback;
        instr.red_phase_end = base + cfg_.writeback_latency;
        break;
      case RedPhase::kWriteback:
        instr.red_phase = RedPhase::kDone;
        instr.completed_at = base;
        // Tree combine steps perform total_lanes-1 additional adds.
        stats_.flops += cfg_.total_lanes() - 1;
        break;
      case RedPhase::kIntraLane:
      case RedPhase::kDone: return;
    }
  }
}

std::uint64_t TimingEngine::head_rate256(const Inflight& instr) const {
  std::uint64_t r256 = lanes_.rate256(instr.in.op, instr.ew);
  if (instr.unit == Unit::kSldu &&
      (ring_.long_slide(slide_offset(instr.in)) ||
       (instr.spec->is_gather && ring_.present()))) {
    // Long slides and gathers/compressions funnel through the 64-bit ring
    // links: one element per cluster per cycle.
    r256 = std::uint64_t{ispec_.topo.total_clusters()} * (8 / instr.ew) * 256;
  }
  if (instr.unit == Unit::kLoad || instr.unit == Unit::kStore) {
    // Element-granular strided/indexed beats from the per-cluster addrgens.
    r256 = std::uint64_t{ispec_.topo.total_clusters()} * 256;
  }
  return r256;
}

void TimingEngine::advance_arith(Cycle t, Inflight& instr) {
  if (t < instr.start_at) return;
  instr.rate_acc += head_rate256(instr);
  const std::uint64_t quota = instr.rate_acc >> 8;
  instr.rate_acc &= 0xFF;  // unused whole-element slots are lost, not banked
  if (quota == 0) return;
  const std::uint64_t avail = avail_elems(t, instr);
  if (avail <= instr.produced) return;
  const std::uint64_t adv =
      std::min({quota, avail - instr.produced, instr.vl - instr.produced});
  if (adv == 0) return;
  if (instr.produced == 0) instr.first_result_at = t;
  instr.produced += adv;
  instr.hist.record(t, instr.produced);
  account(instr.unit, instr, adv);
  if (instr.finished_producing()) finish_producing(t, instr);
}

void TimingEngine::advance_load(Cycle t, Inflight& instr) {
  if (t < instr.start_at) return;
  if (elementwise_mem_op(instr.in.op)) {
    advance_arith(t, instr);  // element-granular beats
    return;
  }
  const std::uint64_t raw_total = instr.head_skew + instr.bytes_total;
  const std::uint64_t grant = glsu_.grant_bytes(raw_total - instr.bytes_done);
  if (grant == 0) return;
  instr.bytes_done += grant;
  const std::uint64_t useful =
      instr.bytes_done > instr.head_skew ? instr.bytes_done - instr.head_skew : 0;
  const std::uint64_t new_produced =
      std::min<std::uint64_t>(instr.vl, useful / instr.ew);
  if (new_produced > instr.produced) {
    if (instr.produced == 0) instr.first_result_at = t;
    account(instr.unit, instr, new_produced - instr.produced);
    instr.produced = new_produced;
    instr.hist.record(t, instr.produced);
    if (instr.finished_producing()) instr.finished_at = t;
  }
  if (instr.bytes_done >= raw_total && instr.finished_producing()) {
    instr.completed_at = t + lanes_.chain_lag(Unit::kLoad);
  }
}

void TimingEngine::advance_store(Cycle t, Inflight& instr) {
  if (t < instr.start_at) return;
  if (elementwise_mem_op(instr.in.op)) {
    advance_arith(t, instr);
    return;
  }
  const std::uint64_t avail = avail_elems(t, instr);
  const std::uint64_t raw_total = instr.head_skew + instr.bytes_total;
  const std::uint64_t sendable =
      std::min(raw_total, instr.head_skew + avail * instr.ew);
  if (sendable <= instr.bytes_done) return;
  const std::uint64_t grant = glsu_.grant_bytes(sendable - instr.bytes_done);
  instr.bytes_done += grant;
  const std::uint64_t useful =
      instr.bytes_done > instr.head_skew ? instr.bytes_done - instr.head_skew : 0;
  const std::uint64_t new_produced =
      std::min<std::uint64_t>(instr.vl, useful / instr.ew);
  if (new_produced > instr.produced) {
    if (instr.produced == 0) instr.first_result_at = t;
    account(instr.unit, instr, new_produced - instr.produced);
    instr.produced = new_produced;
    instr.hist.record(t, instr.produced);
    if (instr.finished_producing()) instr.finished_at = t;
  }
  if (instr.bytes_done >= raw_total) {
    instr.completed_at = t + lanes_.chain_lag(Unit::kStore);
  }
}

void TimingEngine::advance_head(Cycle t, Inflight& instr) {
  if (instr.advanced_until >= t) return;  // fast-forwarded past this cycle
  instr.advanced_until = t;
  switch (instr.unit) {
    case Unit::kLoad: advance_load(t, instr); break;
    case Unit::kStore: advance_store(t, instr); break;
    default: advance_arith(t, instr); break;
  }
}

void TimingEngine::tick_unit(Cycle t, Unit u) {
  auto& q = unitq_[static_cast<std::size_t>(u)];
  bool head_found = false;
  for (const std::uint32_t slot : q) {
    Inflight& instr = pool_.at(slot);
    if (instr.spec->is_reduction && instr.finished_producing() &&
        instr.red_phase != RedPhase::kDone) {
      advance_red_phases(t, instr);
    }
    // Head = first instruction still producing *as of cycle t*. A
    // fast-forwarded instruction may already hold produced == vl with a
    // finished_at in the future; its successor must not advance before
    // that cycle. Strictly before: in the finishing cycle itself the
    // instruction still occupies the head slot (the oracle's scan reads
    // finished_producing() before the advance that completes it).
    const bool done_by_t =
        instr.finished_at != kNeverCycle && instr.finished_at < t;
    if (!head_found && !done_by_t) {
      head_found = true;
      advance_head(t, instr);
    }
  }
}

void TimingEngine::tick_units(Cycle t) {
  for (std::size_t u = 1; u < kNumUnits; ++u) {
    tick_unit(t, static_cast<Unit>(u));
  }
}

void TimingEngine::release_claims(const Inflight& instr) {
  for (unsigned r = instr.write_base; r < instr.write_base + instr.write_count;
       ++r) {
    if (regs_[r].writer.id == instr.id) regs_[r].writer = RegRef{};
  }
  for (unsigned g = 0; g < instr.read_groups; ++g) {
    for (unsigned r = instr.read_base[g]; r < instr.read_base[g] + instr.read_count[g];
         ++r) {
      auto& readers = regs_[r].readers;
      readers.erase(std::remove_if(readers.begin(), readers.end(),
                                   [&](const RegRef& e) { return e.id == instr.id; }),
                    readers.end());
    }
  }
}

void TimingEngine::retire(Cycle t) {
  for (auto& q : unitq_) {
    while (!q.empty()) {
      Inflight& instr = pool_.at(q.front());
      debug_check(instr.id != 0, "queued instruction missing from pool");
      if (instr.completed_at > t) break;
      if (instr.unit == Unit::kFpu) {
        // Production at the retire cycle itself has not been attributed yet
        // (attribute_range runs after step_cycle); with a zero FPU chain lag
        // the instruction can produce and retire in the same cycle, taking
        // its history with it. Park those byte-slots so the next attribution
        // keeps the partition total. (Unreachable with default latencies.)
        const std::uint64_t at_t = instr.hist.value_at(t);
        const std::uint64_t before = t == 0 ? 0 : instr.hist.value_at(t - 1);
        retired_busy_pending_ += fpu_slot_width(instr) * (at_t - before);
      }
      if (trace_ != nullptr) {
        TraceRecord rec;
        rec.id = instr.id;
        rec.prog_index = instr.prog_index;
        rec.text = disasm(instr.in);
        rec.unit = instr.unit;
        rec.vl = instr.vl;
        rec.issued = instr.issued_at;
        rec.dispatched = instr.dispatched_at;
        rec.first_result =
            instr.first_result_at == kNeverCycle ? 0 : instr.first_result_at;
        rec.completed = instr.completed_at;
        std::uint64_t best = 0;
        for (std::size_t r = 0; r < kNumStallReasons; ++r) {
          if (instr.stall_acc[r] > best) {
            best = instr.stall_acc[r];
            rec.stall_reason = static_cast<std::uint8_t>(r);
          }
        }
        rec.stall_slots = best;
        trace_->add(rec);
      }
      release_claims(instr);
      pool_.release(q.front());
      q.pop_front();
      watchdog_.note_progress();
    }
  }
}

bool TimingEngine::mem_conflict(const Pending& p) const {
  const OpSpec& spec = op_spec(p.in.op);
  if (!spec.reads_mem && !spec.writes_mem) return false;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  const bool bounded = mem_range(p.in, p.vl, p.ew, &lo, &hi);
  // A load must not race an in-flight store over the same bytes (and vice
  // versa). Same-kind ops are ordered by their in-order unit queue.
  const Unit other = spec.reads_mem ? Unit::kStore : Unit::kLoad;
  for (const std::uint32_t slot : unitq_[static_cast<std::size_t>(other)]) {
    const Inflight& o = pool_.at(slot);
    std::uint64_t olo = 0;
    std::uint64_t ohi = 0;
    if (!bounded || !mem_range(o.in, o.vl, o.ew, &olo, &ohi)) return true;
    if (lo < ohi && olo < hi) return true;
  }
  return false;
}

void TimingEngine::tick_dispatch(Cycle t) {
  if (seq_.empty() || seq_.front().arrive_at > t) return;
  const Pending& p = seq_.front();
  const OpSpec& spec = op_spec(p.in.op);
  const Unit unit = spec.unit;
  auto& q = unitq_[static_cast<std::size_t>(unit)];
  if (q.size() >= cfg_.unit_queue_depth) return;
  if (mem_conflict(p)) return;

  const auto [wb, wc] = write_group(p.in, p.group_regs);
  const ReadGroups rgs = read_groups(p.in, p.group_regs);

  // WAW/WAR hazards: cross-unit conflicts stall dispatch; same-unit
  // conflicts are safe because units execute strictly in order.
  for (unsigned r = wb; r < wb + wc; ++r) {
    if (const Inflight* w = find(regs_[r].writer); w != nullptr && w->unit != unit) {
      return;
    }
    for (const RegRef& rid : regs_[r].readers) {
      if (const Inflight* rd = find(rid); rd != nullptr && rd->unit != unit) return;
    }
  }

  std::uint32_t slot = 0;
  Inflight& instr = pool_.alloc(next_id_++, &slot);
  instr.in = p.in;
  instr.prog_index = p.prog_index;
  instr.spec = &spec;
  instr.vl = p.vl;
  instr.ew = p.ew;
  instr.unit = unit;
  instr.issued_at = p.issued_at;
  instr.dispatched_at = t;
  instr.advanced_until = t;  // first advance opportunity is t + 1

  // RAW chaining dependencies on in-flight producers of the source groups.
  const std::int64_t offset = spec.is_slide ? slide_offset(p.in) : 0;
  for (unsigned g = 0; g < rgs.n; ++g) {
    const bool is_vd_source = spec.reads_vd && rgs.base[g] == p.in.vd;
    for (unsigned r = rgs.base[g]; r < rgs.base[g] + rgs.count[g]; ++r) {
      const Inflight* w = find(regs_[r].writer);
      if (w == nullptr) continue;
      Dep d;
      d.producer = w->id;
      d.slot = regs_[r].writer.slot;
      d.lag = lanes_.chain_lag(w->unit);
      d.offset = (spec.is_slide && !is_vd_source) ? offset : 0;
      // Reduction seeds need the producer finished; gathers read arbitrary
      // source elements, so they cannot chain either.
      d.full = (spec.is_reduction && rgs.base[g] == p.in.vs1 && rgs.count[g] == 1) ||
               spec.is_gather;
      d.producer_ticks_first = unit_order(w->unit) < unit_order(unit);
      const bool dup =
          std::any_of(instr.deps.begin(), instr.deps.end(),
                      [&](const Dep& e) { return e.producer == d.producer; });
      if (!dup) instr.deps.push_back(d);
    }
  }

  // Claim registers.
  instr.write_base = wb;
  instr.write_count = wc;
  for (unsigned r = wb; r < wb + wc; ++r) regs_[r].writer = RegRef{slot, instr.id};
  instr.read_groups = rgs.n;
  for (unsigned g = 0; g < rgs.n; ++g) {
    instr.read_base[g] = rgs.base[g];
    instr.read_count[g] = rgs.count[g];
    for (unsigned r = rgs.base[g]; r < rgs.base[g] + rgs.count[g]; ++r) {
      regs_[r].readers.push_back(RegRef{slot, instr.id});
    }
  }

  // Start latency and memory setup.
  switch (unit) {
    case Unit::kLoad:
      instr.start_at = t + glsu_.load_latency();
      instr.bytes_total = p.vl * p.ew;
      if (!elementwise_mem_op(p.in.op)) instr.head_skew = glsu_.head_skew(p.in.addr);
      stats_.mem_read_bytes += instr.bytes_total;
      break;
    case Unit::kStore:
      instr.start_at = t + glsu_.store_latency();
      instr.bytes_total = p.vl * p.ew;
      if (!elementwise_mem_op(p.in.op)) instr.head_skew = glsu_.head_skew(p.in.addr);
      stats_.mem_write_bytes += instr.bytes_total;
      break;
    case Unit::kSldu:
      instr.start_at =
          t + lanes_.start_latency() + ring_.slide_start_penalty(slide_offset(p.in));
      break;
    default:
      instr.start_at = t + lanes_.start_latency();
      break;
  }

  q.push_back(slot);
  seq_.pop_front();
  dispatched_this_cycle_ = true;
  watchdog_.note_progress();
}

bool TimingEngine::reg_pending_write(unsigned reg) const {
  if (find(regs_[reg].writer) != nullptr) return true;
  for (const Pending& p : seq_) {
    const auto [wb, wc] = write_group(p.in, p.group_regs);
    if (reg >= wb && reg < wb + wc) return true;
  }
  return false;
}

void TimingEngine::tick_cva6(Cycle t) {
  if (t < cva6_free_ || pc_ >= prog_->size()) return;
  const ProgOp op = prog_->op(pc_);

  if (const auto* s = std::get_if<ScalarOp>(&op)) {
    cva6_free_ = t + cva6_.scalar_cost(*s);
    ++stats_.scalar_ops;
    ++pc_;
    watchdog_.note_progress();
    return;
  }

  const VInstr& in = std::get<VInstr>(op);
  if (in.op == Op::kVsetvli) {
    fn_.exec(in);
    cva6_free_ = t + reqi_.ack_latency() + 1;
    ++stats_.vinstrs;
    ++pc_;
    watchdog_.note_progress();
    return;
  }
  const OpSpec& spec = op_spec(in.op);
  if (spec.returns_scalar) {
    // vfmv.f.s / vcpop.m / vfirst.m: CVA6 blocks until the producing vector
    // instruction has fully retired, then the scalar crosses the REQI
    // response path.
    if (reg_pending_write(in.vs2)) {
      ++stats_.scalar_wait_cycles;
      cva6_stall_ = Cva6Stall::kScalarWait;
      return;
    }
    fn_.exec(in);
    cva6_free_ = t + reqi_.ack_latency();
    ++stats_.vinstrs;
    ++pc_;
    watchdog_.note_progress();
    return;
  }

  if (seq_.size() >= cfg_.seq_queue_depth) {
    ++stats_.issue_stall_cycles;
    cva6_stall_ = Cva6Stall::kSeqFull;
    return;
  }

  Pending p;
  p.in = in;
  p.prog_index = pc_;
  p.vl = in.op == Op::kVfmvSF ? std::min<std::uint64_t>(1, fn_.vl()) : fn_.vl();
  p.ew = sew_bytes(fn_.vtype().sew);
  p.group_regs = fn_.vtype().lmul.group_regs();
  p.issued_at = t;
  p.arrive_at = t + reqi_.fwd_latency();
  fn_.exec(in);  // architectural effects in program order
  ++stats_.vinstrs;
  ++pc_;
  watchdog_.note_progress();
  cva6_free_ = t + reqi_.ack_latency();
  if (p.vl == 0) return;  // nothing to execute
  seq_.push_back(p);
}

// ---------------------------------------------------------------------------
// Cycle-attribution stall taxonomy.
//
// Every (cycle × lane-FPU byte-slot) of a run is attributed to exactly one
// StallReason, or counted in fpu_busy_slots at production time (account()),
// so the two always partition the slot universe:
//
//   sum(stall_cycles[]) + fpu_busy_slots == cycles * total_lanes * 8
//
// Both kernels call the same attribute_range: the oracle once per executed
// cycle, the event engine once per wakeup cycle plus once per fast-forward
// window, and the loop batcher multiplies the recorded per-iteration deltas
// by exactly K. Bit-identity between the three holds because every input the
// classifier reads is either constant across a fast-forward window (queue
// membership, seq_, pc_, cva6_stall_ — no dispatch/retire/issue can happen
// inside one by construction) or monotone-stable (finished_at /
// first_result_at are written once, so "set and <= u" evaluates the same on
// the oracle's online state and the event engine's fast-forwarded state),
// and per-cycle FPU production is replayed exactly from the instruction's
// LaggedCounter history (the same one chained consumers read; each
// attribute_range call prunes it to what later steps can still query).

unsigned TimingEngine::fpu_slot_width(const Inflight& instr) {
  unsigned ew = instr.ew;
  if (instr.spec->widens) ew = std::min(8u, ew * 2);
  return ew;
}

Cycle TimingEngine::mem_first_beat_min() const {
  Cycle m = kNeverCycle;
  for (const Unit u : {Unit::kLoad, Unit::kStore}) {
    for (const std::uint32_t slot : unitq_[static_cast<std::size_t>(u)]) {
      const Inflight& instr = pool_.at(slot);
      if (instr.first_result_at < m) m = instr.first_result_at;
    }
  }
  return m;
}

StallReason TimingEngine::classify_dep_limited(const Inflight& acting) const {
  // Fixed-priority blame (mem > reduction/slide > any RAW) — an argmin over
  // per-producer binding-ness would be tie-break-sensitive across the two
  // kernels; a fixed priority is deterministic and matches how the paper
  // discusses utilization losses (memory first, ring latency second).
  bool red_slide = false;
  bool raw = false;
  for (const Dep& d : acting.deps) {
    const Inflight* p = pool_.get(d.slot, d.producer);
    if (p == nullptr) continue;  // retired producers no longer limit anything
    if (p->unit == Unit::kLoad) return StallReason::kMemLatency;
    if (p->unit == Unit::kSldu || p->spec->is_reduction) red_slide = true;
    else raw = true;
  }
  if (red_slide) return StallReason::kReductionSlideLatency;
  if (raw) return StallReason::kRawDependency;
  // No live producer: the unit's own throughput (divider rate, fractional
  // rate remainders) is the limiter.
  return StallReason::kStructuralUnit;
}

StallReason TimingEngine::classify_no_fpu(Cycle u) const {
  (void)u;
  const auto& fq = unitq_[static_cast<std::size_t>(Unit::kFpu)];
  // (a) A finished reduction holding the FPU queue front is in its
  // inter-lane/ring/writeback phases — the ring latency gates progress.
  if (!fq.empty() && pool_.at(fq.front()).spec->is_reduction) {
    return StallReason::kReductionSlideLatency;
  }
  // (b) FPU work exists but has not reached a unit queue: frontend pressure.
  for (const Pending& p : seq_) {
    if (op_spec(p.in.op).unit == Unit::kFpu) return StallReason::kIssuePressure;
  }
  // (c) CVA6 blocked on a scalar-returning op: blame the producer's kind.
  if (cva6_stall_ == Cva6Stall::kScalarWait && pc_ < prog_->size()) {
    const ProgOp op = prog_->op(pc_);
    if (const auto* in = std::get_if<VInstr>(&op)) {
      const unsigned reg = in->vs2;
      for (auto it = seq_.rbegin(); it != seq_.rend(); ++it) {
        const auto [wb, wc] = write_group(it->in, it->group_regs);
        if (reg >= wb && reg < wb + wc) {
          return op_spec(it->in.op).is_reduction
                     ? StallReason::kReductionSlideLatency
                     : StallReason::kIssuePressure;
        }
      }
      if (const Inflight* w = find(regs_[reg].writer); w != nullptr) {
        return w->spec->is_reduction ? StallReason::kReductionSlideLatency
                                     : StallReason::kIssuePressure;
      }
    }
    return StallReason::kIssuePressure;
  }
  // (d) handled by the caller (mem first-beat split); (e)–(g):
  if (!unitq_[static_cast<std::size_t>(Unit::kSldu)].empty() ||
      !unitq_[static_cast<std::size_t>(Unit::kMasku)].empty()) {
    return StallReason::kReductionSlideLatency;
  }
  if (!unitq_[static_cast<std::size_t>(Unit::kAlu)].empty()) {
    return StallReason::kStructuralUnit;
  }
  if (pc_ < prog_->size() || !seq_.empty()) {
    return StallReason::kIssuePressure;
  }
  return StallReason::kDrainTail;
}

void TimingEngine::attribute_piece(Cycle x, Cycle y, Inflight* acting) {
  const std::uint64_t lane_slots = stats_.total_lanes * 8;
  auto charge = [&](StallReason r, Cycle cx, Cycle cy,
                    std::uint64_t produced_slots, Inflight* blame) {
    if (cy < cx) return;
    const std::uint64_t gross = (cy - cx + 1) * lane_slots;
    debug_check(produced_slots <= gross, "production exceeds slot universe");
    std::uint64_t slots = gross - produced_slots;
    // Fold in production parked by a same-cycle retire (zero chain lag only;
    // the retired instruction produced alone in that cycle, so the first
    // charged sub-span always absorbs it fully).
    const std::uint64_t absorb = std::min(slots, retired_busy_pending_);
    slots -= absorb;
    retired_busy_pending_ -= absorb;
    if (slots == 0) return;
    const auto idx = static_cast<std::size_t>(r);
    stats_.stall_cycles[idx] += slots;
    if (blame != nullptr) blame->stall_acc[idx] += slots;
  };

  if (acting == nullptr) {
    // No FPU instruction can produce in [x, y]; the reason is constant over
    // the piece except for the mem latency/bandwidth split at the first
    // in-flight beat.
    const auto& lq = unitq_[static_cast<std::size_t>(Unit::kLoad)];
    const auto& sq = unitq_[static_cast<std::size_t>(Unit::kStore)];
    const auto& fq = unitq_[static_cast<std::size_t>(Unit::kFpu)];
    const bool red_front =
        !fq.empty() && pool_.at(fq.front()).spec->is_reduction;
    const bool seq_fpu = [&] {
      for (const Pending& p : seq_) {
        if (op_spec(p.in.op).unit == Unit::kFpu) return true;
      }
      return false;
    }();
    if (!red_front && !seq_fpu && cva6_stall_ != Cva6Stall::kScalarWait &&
        (!lq.empty() || !sq.empty())) {
      // (d) memory-bound: waiting on the first in-flight beat is latency,
      // everything past it is bandwidth.
      Inflight* blame = !lq.empty() ? &pool_.at(lq.front()) : &pool_.at(sq.front());
      const Cycle m = mem_first_beat_min();
      if (m == kNeverCycle || m > y) {
        charge(StallReason::kMemLatency, x, y, 0, blame);
      } else if (m <= x) {
        charge(StallReason::kMemBandwidth, x, y, 0, blame);
      } else {
        charge(StallReason::kMemLatency, x, m - 1, 0, blame);
        charge(StallReason::kMemBandwidth, m, y, 0, blame);
      }
      return;
    }
    Inflight* blame = nullptr;
    if (red_front) {
      blame = &pool_.at(fq.front());
    } else if (!red_front && !seq_fpu &&
               cva6_stall_ != Cva6Stall::kScalarWait) {
      const auto& slq = unitq_[static_cast<std::size_t>(Unit::kSldu)];
      const auto& mq = unitq_[static_cast<std::size_t>(Unit::kMasku)];
      const auto& aq = unitq_[static_cast<std::size_t>(Unit::kAlu)];
      if (!slq.empty()) blame = &pool_.at(slq.front());
      else if (!mq.empty()) blame = &pool_.at(mq.front());
      else if (!aq.empty()) blame = &pool_.at(aq.front());
    }
    charge(classify_no_fpu(x), x, y, 0, blame);
    return;
  }

  Inflight& in = *acting;
  const unsigned sw = fpu_slot_width(in);
  // Production in [p, q] from the production history (byte-slots).
  auto prod = [&](Cycle p, Cycle q) {
    const std::uint64_t hi = in.hist.value_at(q);
    const std::uint64_t lo = p == 0 ? 0 : in.hist.value_at(p - 1);
    return static_cast<std::uint64_t>(sw) * (hi - lo);
  };
  // (1) fixed unit start-up latency before the first possible result.
  if (in.start_at > x) {
    const Cycle e = std::min(y, in.start_at - 1);
    charge(StallReason::kStructuralUnit, x, e, 0, &in);
    if (e == y) return;
  }
  const Cycle s = std::max(x, in.start_at);
  // (2) producing span: shortfall goes to the fixed-priority dep blame.
  const StallReason r = classify_dep_limited(in);
  if (r == StallReason::kMemLatency) {
    // Split at the earliest first beat over the live load producers: before
    // it the dep cap is provably zero (latency); after it the producer's
    // byte rate is the limiter (bandwidth).
    Cycle dep_fr = kNeverCycle;
    for (const Dep& d : in.deps) {
      const Inflight* p = pool_.get(d.slot, d.producer);
      if (p != nullptr && p->unit == Unit::kLoad &&
          p->first_result_at < dep_fr) {
        dep_fr = p->first_result_at;
      }
    }
    if (dep_fr == kNeverCycle || dep_fr > y) {
      charge(StallReason::kMemLatency, s, y, prod(s, y), &in);
    } else if (dep_fr <= s) {
      charge(StallReason::kMemBandwidth, s, y, prod(s, y), &in);
    } else {
      charge(StallReason::kMemLatency, s, dep_fr - 1, prod(s, dep_fr - 1), &in);
      charge(StallReason::kMemBandwidth, dep_fr, y, prod(dep_fr, y), &in);
    }
    return;
  }
  charge(r, s, y, prod(s, y), &in);
}

void TimingEngine::attribute_range(Cycle a, Cycle b) {
  if (b < a) return;
  auto& fq = unitq_[static_cast<std::size_t>(Unit::kFpu)];
  Cycle u = a;
  while (u <= b) {
    // Acting head at u: first FPU-queue instruction not done producing
    // before u (tick_unit's head rule, evaluated on monotone-stable state).
    Inflight* acting = nullptr;
    Cycle end = b;
    for (const std::uint32_t slot : fq) {
      Inflight& instr = pool_.at(slot);
      if (instr.finished_at != kNeverCycle && instr.finished_at < u) continue;
      acting = &instr;
      if (instr.finished_at != kNeverCycle && instr.finished_at < end) {
        end = instr.finished_at;  // successor takes over at finished_at + 1
      }
      break;
    }
    attribute_piece(u, end, acting);
    u = end + 1;
  }
  // Later steps read histories no earlier than b + 1 - max_chain_lag_ (a
  // chained read at b + 1; max_chain_lag_ >= 1 also covers the reads at b
  // by the next range and by a retire-cycle production check).
  const Cycle through = b + 1 > max_chain_lag_ ? b + 1 - max_chain_lag_ : 0;
  for (const auto& q : unitq_) {
    for (const std::uint32_t slot : q) pool_.at(slot).hist.prune(through);
  }
  debug_check(retired_busy_pending_ == 0,
              "retired FPU production not absorbed by attribution");
}

bool TimingEngine::drained() const {
  return pc_ >= prog_->size() && seq_.empty() && pool_.active() == 0;
}

void TimingEngine::step_cycle(Cycle t) {
  tick_units(t);
  retire(t);
  dispatched_this_cycle_ = false;
  cva6_stall_ = Cva6Stall::kNone;
  tick_dispatch(t);
  tick_cva6(t);
}

void TimingEngine::fail_deadlock(Cycle t) const {
  // Typed as DeadlockError so the driver classifies a tripped liveness
  // watchdog as a timeout-kind job failure, not a simulation bug. The
  // diagnostic is simulation-state only (cycles, ids) — deterministic, so
  // it is safe to embed in reports.
  std::string diag = "timing engine deadlock at pc " + std::to_string(pc_) +
                     ", cycle " + std::to_string(t);
  for (const auto& q : unitq_) {
    for (const std::uint32_t slot : q) {
      const Inflight& instr = pool_.at(slot);
      diag += "; #" + std::to_string(instr.id) + " " + disasm(instr.in) +
              " produced " + std::to_string(instr.produced) + "/" +
              std::to_string(instr.vl);
    }
  }
  throw DeadlockError(diag);
}

void TimingEngine::reset_run(const Program& prog) {
  prog_ = &prog;
  pc_ = 0;
  cva6_free_ = 0;
  stats_ = RunStats{};
  stats_.total_lanes = cfg_.total_lanes();
  next_id_ = 1;
  pool_.clear();
  seq_.clear();
  for (auto& q : unitq_) q.clear();
  for (auto& r : regs_) {
    r.writer = RegRef{};
    r.readers.clear();
  }
  dispatched_this_cycle_ = false;
  cva6_stall_ = Cva6Stall::kNone;
  retired_busy_pending_ = 0;
  watchdog_.reset();
  last_progress_events_ = 0;
  last_progress_cycle_ = 0;
  loop_regions_.clear();
  loop_barriers_.clear();
  loop_last_engageable_.clear();
  loop_region_idx_ = 0;
  last_ckpt_pc_ = static_cast<std::size_t>(-1);
  ckpt_.valid = false;
}

RunStats TimingEngine::run(const Program& prog, const RunControl* control) {
  control_ = (control != nullptr && control->enabled()) ? control : nullptr;
  return cfg_.timing_mode == TimingMode::kCycleStepped ? run_cycle_stepped(prog)
                                                       : run_event_driven(prog);
}

RunStats TimingEngine::run_cycle_stepped(const Program& prog) {
  reset_run(prog);
  Cycle t = 0;
  while (!drained()) {
    step_cycle(t);
    attribute_range(t, t);
    if ((t & 0xFFF) == 0) {
      if (control_ != nullptr) control_->check_now();
      if (watchdog_.progress_total() != last_progress_events_) {
        last_progress_events_ = watchdog_.progress_total();
        last_progress_cycle_ = t;
      } else if (t - last_progress_cycle_ > 500000) {
        fail_deadlock(t);
      }
    }
    ++t;
  }
  stats_.cycles = t;
  stats_.wakeups_total = t;  // the oracle evaluates every cycle
  {
    std::uint64_t slots = stats_.fpu_busy_slots;
    for (std::size_t r = 0; r < kNumStallReasons; ++r) slots += stats_.stall_cycles[r];
    debug_check(slots == stats_.cycles * stats_.total_lanes * 8,
                "stall taxonomy does not partition the slot universe");
  }
  metrics_end_run();
  return stats_;
}

}  // namespace araxl
