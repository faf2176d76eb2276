// Event-driven simulation kernel of the TimingEngine.
//
// The loop processes one wakeup cycle with the exact per-cycle semantics
// shared with the cycle-stepped oracle (step_cycle), then
//
//   1. proposes every statically-known future event into an EventHorizon:
//      CVA6 becoming free, the sequencer front's REQI arrival, queue-front
//      completion times, reduction end-of-phase forecasts, and unit-head
//      start latencies;
//   2. fast-forwards every unit head across the gap with closed-form
//      multi-cycle advancement (piecewise-linear pursuit of the chaining
//      caps), recording compressed segments in each head's production
//      history (LaggedCounter);
//      completions discovered on queue fronts shrink the window;
//   3. accrues CVA6 stall counters in bulk (the stall cause can only
//      change at a wakeup) and jumps t to the horizon.
//
// Exactness argument, in brief: between wakeups no instruction can be
// issued, dispatched, or retired (all three are gated on events the
// horizon knows), so the only evolving state is the per-head produced /
// bytes_done counters, whose per-cycle recurrence
//
//   produced(u) = min(cap(u), produced(u-1) + quota(u))
//
// with a non-decreasing cap has the closed form min(own-line, cap) inside
// any span where both sides are linear. Heads are advanced in ascending
// instruction id, so every producer's history is fully extended before a
// consumer linearises its cap from it. Fractional-rate corners (the
// unpipelined divider chained onto live producers) fall back to per-cycle
// replay of the shared advance functions, which is slower but identical
// by construction.
#include <algorithm>

#include "cluster/vlsu.hpp"
#include "common/contracts.hpp"
#include "isa/disasm.hpp"
#include "machine/timing.hpp"

namespace araxl {
namespace {

/// ceil(a / b) for positive b.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// First k >= 1 with vx + sx*k < vb + sb*k given vx >= vb and sx < sb
/// (the cycle offset at which line x dips below line b).
constexpr std::uint64_t cross_after(std::uint64_t vb, std::uint64_t sb,
                                    std::uint64_t vx, std::uint64_t sx) {
  return (vx - vb) / (sb - sx) + 1;
}

}  // namespace

RunStats TimingEngine::run_event_driven(const Program& prog) {
  reset_run(prog);
  prepare_loop_batching();
  Cycle t = 0;
  while (!drained()) {
    step_cycle(t);
    // Attribute the wakeup cycle itself from its exact post-step state
    // (the oracle does the same after every step_cycle).
    attribute_range(t, t);
    watchdog_.note_wakeup();
    if (trace_ != nullptr && trace_->markers_enabled()) {
      trace_->mark(t, SimMarkerKind::kWakeup, pool_.active());
    }
    if (control_ != nullptr) control_->poll(watchdog_.wakeups_total());
    if (drained()) {
      ++t;
      break;
    }
    if (watchdog_.stuck()) fail_deadlock(t);
    if (!loop_regions_.empty() && loop_checkpoint(&t) && drained()) {
      // A batch can consume the program's final full periods; mirror the
      // post-step drain exit above (state is post-step at the new t).
      ++t;
      break;
    }

    EventHorizon horizon;
    horizon.reset(t);
    propose_discrete_events(t, &horizon);
    Cycle wend_excl = horizon.next();
    if (wend_excl == t + 1) {
      // Empty window: the very next cycle is already an event, so there is
      // nothing to fast-forward (heads advance inside step_cycle).
      t = wend_excl;
      continue;
    }
    fast_forward_heads(t, &wend_excl);
    if (wend_excl == kNeverCycle) fail_deadlock(t);

    if (wend_excl > t + 1) {
      // The oracle would have re-evaluated CVA6 on every skipped cycle and
      // hit the same stall (its cause can only clear at a wakeup).
      const Cycle skipped = wend_excl - t - 1;
      if (cva6_stall_ == Cva6Stall::kScalarWait) {
        stats_.scalar_wait_cycles += skipped;
      } else if (cva6_stall_ == Cva6Stall::kSeqFull) {
        stats_.issue_stall_cycles += skipped;
      }
      // The stall taxonomy's classification inputs are window-constant (or
      // monotone-stable), and per-cycle production is replayed from the
      // heads' production histories — bit-identical to the oracle's
      // per-cycle attribution of the same span.
      attribute_range(t + 1, wend_excl - 1);
    }
    t = wend_excl;
  }
  stats_.cycles = t;
  stats_.wakeups_total = watchdog_.wakeups_total();
  {
    std::uint64_t slots = stats_.fpu_busy_slots;
    for (std::size_t r = 0; r < kNumStallReasons; ++r) slots += stats_.stall_cycles[r];
    debug_check(slots == stats_.cycles * stats_.total_lanes * 8,
                "stall taxonomy does not partition the slot universe");
  }
  metrics_end_run();
  return stats_;
}

void TimingEngine::propose_discrete_events(Cycle t, EventHorizon* horizon) {
  // CVA6's next action, unless it is blocked on machine state (then the
  // unblocking retire/dispatch below is the event).
  if (pc_ < prog_->size() && cva6_stall_ == Cva6Stall::kNone) {
    horizon->propose(std::max(cva6_free_, t + 1));
  }
  // Sequencer front: REQI arrival, or the next dispatch attempt right
  // after a successful one (back-to-back dispatch).
  if (!seq_.empty()) {
    const Cycle arrive = seq_.front().arrive_at;
    if (arrive > t) {
      horizon->propose(arrive);
    } else if (dispatched_this_cycle_) {
      horizon->propose(t + 1);
    }
  }
  for (std::size_t u = 1; u < kNumUnits; ++u) {
    const auto& q = unitq_[u];
    if (q.empty()) continue;
    const Inflight& front = pool_.at(q.front());
    if (front.completed_at != kNeverCycle) {
      horizon->propose(front.completed_at);
    } else if (front.spec->is_reduction && front.finished_producing()) {
      // Phases walk lazily; the forecast pins the retire cycle.
      horizon->propose(front.projected_done);
    }
    for (const std::uint32_t slot : q) {
      const Inflight& instr = pool_.at(slot);
      if (instr.finished_producing()) continue;
      if (instr.start_at > t) horizon->propose(instr.start_at);
      break;  // only the first unfinished instruction (the head) executes
    }
  }
}

void TimingEngine::fast_forward_heads(Cycle t, Cycle* wend_excl) {
  ff_processed_.clear();
  const auto processed = [&](std::uint32_t slot) {
    return std::find(ff_processed_.begin(), ff_processed_.end(), slot) !=
           ff_processed_.end();
  };

  // Advance heads in ascending instruction id so every producer's history
  // is fully extended before any consumer linearises a cap from it.
  // Cascades (a head finishing mid-window promotes its queue successor)
  // only ever introduce larger ids, so the scan order stays ascending.
  for (;;) {
    Inflight* best = nullptr;
    std::uint32_t best_slot = 0;
    std::size_t best_unit = 0;
    Cycle best_from = 0;
    for (std::size_t u = 1; u < kNumUnits; ++u) {
      const Inflight* prev = nullptr;
      for (const std::uint32_t slot : unitq_[u]) {
        Inflight& instr = pool_.at(slot);
        if (instr.finished_producing()) {
          prev = &instr;
          continue;
        }
        if (!processed(slot) && (best == nullptr || instr.id < best->id)) {
          // A head only starts executing the cycle after its predecessor
          // finished producing (tick_unit picks the first unfinished).
          Cycle eligible = t + 1;
          if (prev != nullptr && prev->finished_at != kNeverCycle &&
              prev->finished_at + 1 > eligible) {
            eligible = prev->finished_at + 1;
          }
          best = &instr;
          best_slot = slot;
          best_unit = u;
          best_from = std::max(eligible, instr.advanced_until + 1);
        }
        break;  // only the first unfinished instruction per queue
      }
    }
    if (best == nullptr) break;
    ff_processed_.push_back(best_slot);

    const Cycle to = *wend_excl == kNeverCycle ? kNeverCycle : *wend_excl - 1;
    if (to != kNeverCycle && best_from > to) continue;
    advance_span(*best, best_from, to);

    if (best->finished_producing() &&
        unitq_[best_unit].front() == best_slot) {
      // A front completion retires (and unblocks dispatch / hazards /
      // CVA6), so the window must not skip past it. Non-front completions
      // stay gated behind their queue front, which is already an event.
      const Cycle ev = best->spec->is_reduction ? best->projected_done
                                                : best->completed_at;
      if (ev < *wend_excl) *wend_excl = ev;
    }
  }
}

void TimingEngine::advance_span(Inflight& instr, Cycle from, Cycle to) {
  if (from < instr.start_at) from = instr.start_at;
  if (to != kNeverCycle && from > to) {
    if (to > instr.advanced_until) instr.advanced_until = to;
    return;
  }
  switch (instr.unit) {
    case Unit::kLoad:
      if (elementwise_mem_op(instr.in.op)) advance_span_arith(instr, from, to);
      else advance_span_load(instr, from, to);
      break;
    case Unit::kStore:
      if (elementwise_mem_op(instr.in.op)) advance_span_arith(instr, from, to);
      else advance_span_store(instr, from, to);
      break;
    default: advance_span_arith(instr, from, to); break;
  }
}

void TimingEngine::replay_span(Inflight& instr, Cycle from, Cycle to) {
  // Progress is bytes for a streaming store and elements otherwise; the
  // sum tracks either (the other term stays constant).
  Cycle idle_since = from;
  for (Cycle u = from; to == kNeverCycle || u <= to; ++u) {
    const std::uint64_t before = instr.produced + instr.bytes_done;
    if (instr.unit == Unit::kStore) {
      advance_store(u, instr);
    } else {
      advance_arith(u, instr);
    }
    instr.advanced_until = u;
    if (instr.finished_producing()) return;
    if (instr.produced + instr.bytes_done != before) idle_since = u;
    // In an unbounded window every producer history has already been
    // extended to its end; after a long idle stretch (far beyond any
    // accumulator period or chaining lag) no further progress can come
    // from inside the window — park until an outside event.
    if (to == kNeverCycle && u - idle_since > 4096) return;
  }
}

TimingEngine::CapLine TimingEngine::dep_cap(const Dep& d, const Inflight& c,
                                            Cycle u) const {
  const Inflight* p = pool_.get(d.slot, d.producer);
  if (p == nullptr) return CapLine{c.vl, 0, kNeverCycle, false};
  if (d.full) {
    if (p->finished_at == kNeverCycle) {
      // The producer was fast-forwarded first (smaller id); if it did not
      // finish, it cannot finish anywhere inside this window either.
      return CapLine{0, 0, kNeverCycle, false};
    }
    const Cycle vis = p->finished_at + (d.producer_ticks_first ? 0 : 1);
    if (u >= vis) return CapLine{c.vl, 0, kNeverCycle, false};
    return CapLine{0, 0, vis - 1, false};
  }
  if (u < d.lag) {
    // Before any lagged history exists the raw count reads zero.
    const std::int64_t adj = -d.offset;
    return CapLine{adj > 0 ? static_cast<std::uint64_t>(adj) : 0, 0,
                   d.lag - 1, false};
  }
  const LaggedCounter::Piece piece = p->hist.piece_at(u - d.lag);
  if (piece.num > 0 && piece.den != 1) return CapLine{0, 0, 0, true};
  std::uint64_t val = piece.value;
  std::uint64_t slope = 0;
  Cycle until = kNeverCycle;
  if (piece.num > 0) {
    slope = piece.num;
    until = piece.grow_until + d.lag;
  } else if (piece.change_at != kNeverCycle) {
    until = piece.change_at + d.lag - 1;
  }
  if (d.offset != 0) {
    const std::int64_t adj = static_cast<std::int64_t>(val) - d.offset;
    if (adj >= 0) {
      val = static_cast<std::uint64_t>(adj);
    } else {
      // Clamped at zero until the producer count exceeds the offset.
      const std::uint64_t deficit = static_cast<std::uint64_t>(-adj);
      if (slope == 0) return CapLine{0, 0, until, false};
      const Cycle cross = u + ceil_div(deficit + 1, slope);
      return CapLine{0, 0, std::min(until, cross - 1), false};
    }
  }
  return CapLine{val, slope, until, false};
}

TimingEngine::CapLine TimingEngine::combined_cap(const Inflight& c, Cycle u,
                                                 Cycle /*to*/) const {
  // Pass 1: binding line — minimum value at u, ties broken towards the
  // smaller slope (that line stays the minimum going forward) — plus the
  // earliest expiry of any contributing linearisation. Folding keeps the
  // dep count unbounded (LMUL groups can fan out to many live producers).
  CapLine out{c.vl, 0, kNeverCycle, false};  // vl ceiling
  for (const Dep& d : c.deps) {
    const CapLine l = dep_cap(d, c, u);
    if (l.fractional) return l;
    if (l.until < out.until) out.until = l.until;
    if (l.value < out.value ||
        (l.value == out.value && l.slope < out.slope)) {
      out.value = l.value;
      out.slope = l.slope;
    }
  }
  if (out.slope == 0) return out;  // nothing can dip below a flat minimum
  // Pass 2: slower-growing lines may dip below the binding one later in
  // the span. (A tie in value with a smaller slope would have won pass 1,
  // so every remaining slower line sits strictly above the binding at u.)
  {
    const Cycle cross = u + cross_after(out.value, out.slope, c.vl, 0);
    if (cross - 1 < out.until) out.until = cross - 1;
  }
  for (const Dep& d : c.deps) {
    const CapLine l = dep_cap(d, c, u);
    if (l.slope >= out.slope) continue;
    const Cycle cross = u + cross_after(out.value, out.slope, l.value, l.slope);
    if (cross - 1 < out.until) out.until = cross - 1;
  }
  return out;
}

void TimingEngine::advance_span_arith(Inflight& instr, Cycle from, Cycle to) {
  const std::uint64_t r256 = head_rate256(instr);

  if ((r256 & 0xFF) != 0) {
    bool live_deps = false;
    for (const Dep& d : instr.deps) {
      if (pool_.get(d.slot, d.producer) != nullptr) live_deps = true;
    }
    if (!live_deps) {
      // Unthrottled fractional rate (divider/sqrt with no in-flight
      // producers): pure accumulator line.
      const Cycle cur = from - 1;
      const std::uint64_t p0 = instr.produced;
      const std::uint64_t acc0 = instr.rate_acc;
      const std::uint64_t need = 256 * (instr.vl - p0);
      const Cycle t_fin =
          cur + (need > acc0 ? ceil_div(need - acc0, r256) : 1);
      const Cycle end = to == kNeverCycle ? t_fin : std::min(t_fin, to);
      if (end < from) return;
      const std::uint64_t total =
          std::min(instr.vl, p0 + ((acc0 + (end - cur) * r256) >> 8));
      if (total > p0) {
        if (p0 == 0) {
          instr.first_result_at =
              cur + (256 > acc0 ? ceil_div(256 - acc0, r256) : 1);
        }
        const std::uint64_t v1 = p0 + ((acc0 + r256) >> 8);
        const Cycle hold = end == t_fin ? end - 1 : end;
        if (hold >= from) {
          instr.hist.record_ramp(from, v1, r256, 256, (acc0 + r256) & 0xFF,
                                 hold);
        }
        if (end == t_fin) instr.hist.record(t_fin, instr.vl);
        account(instr.unit, instr, total - p0);
        instr.produced = total;
      }
      instr.rate_acc = (acc0 + (end - cur) * r256) & 0xFF;
      instr.advanced_until = std::max(instr.advanced_until, end);
      if (instr.finished_producing()) finish_producing(end, instr);
      return;
    }
    // Fractional rate chained onto live producers (rare: divider consuming
    // in-flight results).
    replay_span(instr, from, to);
    return;
  }

  // Integer-rate fast path: piecewise-linear pursuit of the chaining caps.
  const std::uint64_t r_el = r256 >> 8;
  Cycle cur = from - 1;
  while ((to == kNeverCycle || cur < to) && !instr.finished_producing()) {
    const Cycle u1 = cur + 1;
    const CapLine cap = combined_cap(instr, u1, to);
    if (cap.fractional) {
      // Producer history with a fractional segment: replay the remainder.
      replay_span(instr, u1, to);
      return;
    }

    // Binding line over [u1, seg_end]: min(own pursuit line, cap).
    const std::uint64_t vo = instr.produced + r_el;
    std::uint64_t vb;
    std::uint64_t sb;
    Cycle seg_end = cap.until;
    if (to != kNeverCycle && (seg_end == kNeverCycle || to < seg_end)) {
      seg_end = to;
    }
    if (vo < cap.value || (vo == cap.value && r_el <= cap.slope)) {
      vb = vo;
      sb = r_el;
      if (cap.slope < sb) {
        const Cycle cross = u1 + cross_after(vb, sb, cap.value, cap.slope);
        if (cross - 1 < seg_end) seg_end = cross - 1;
      }
    } else {
      vb = cap.value;
      sb = cap.slope;
      if (r_el < sb) {
        const Cycle cross = u1 + cross_after(vb, sb, vo, r_el);
        if (cross - 1 < seg_end) seg_end = cross - 1;
      }
    }

    if (sb == 0 && vb <= instr.produced) {
      // Stalled at the cap for the whole sub-span.
      if (seg_end == kNeverCycle) return;  // parked until an outside event
      cur = seg_end;
      continue;
    }

    bool finished = false;
    Cycle fin_at = 0;
    if (sb > 0) {
      const Cycle t_fin =
          vb >= instr.vl ? u1 : u1 + ceil_div(instr.vl - vb, sb);
      if (seg_end == kNeverCycle || t_fin <= seg_end) {
        seg_end = t_fin;
        finished = true;
        fin_at = t_fin;
      }
    } else if (vb >= instr.vl) {
      finished = true;
      fin_at = u1;
      seg_end = u1;
    }
    debug_check(seg_end != kNeverCycle, "unbounded growing segment");

    const std::uint64_t total =
        finished ? instr.vl : vb + sb * (seg_end - u1);
    if (total > instr.produced) {
      if (instr.produced == 0) {
        instr.first_result_at =
            vb >= 1 ? u1 : u1 + ceil_div(1 - vb, sb);
      }
      if (sb == 0) {
        instr.hist.record(u1, total);
      } else {
        const Cycle hold = finished ? fin_at - 1 : seg_end;
        if (hold >= u1 && vb + sb * (hold - u1) > instr.produced) {
          instr.hist.record_ramp(u1, vb, sb, 1, 0, hold);
        }
        if (finished) instr.hist.record(fin_at, instr.vl);
      }
      account(instr.unit, instr, total - instr.produced);
      instr.produced = total;
    }
    cur = seg_end;
    if (finished) {
      instr.advanced_until = std::max(instr.advanced_until, fin_at);
      finish_producing(fin_at, instr);
      return;
    }
  }
  if (to != kNeverCycle && to > instr.advanced_until) instr.advanced_until = to;
}

void TimingEngine::advance_span_load(Inflight& instr, Cycle from, Cycle to) {
  const std::uint64_t raw = instr.head_skew + instr.bytes_total;
  const std::uint64_t bus = glsu_.bus_bytes();
  const Cycle cur = from - 1;
  const std::uint64_t bd0 = instr.bytes_done;
  debug_check(bd0 < raw, "load span on a drained transfer");

  const Cycle t_full = cur + glsu_.cycles_for_bytes(raw - bd0);
  const Cycle end = to == kNeverCycle ? t_full : std::min(t_full, to);
  if (end < from) return;

  const std::uint64_t bytes_end =
      end >= t_full ? raw : bd0 + (end - cur) * bus;
  const std::uint64_t useful =
      bytes_end > instr.head_skew ? bytes_end - instr.head_skew : 0;
  const std::uint64_t new_produced =
      std::min<std::uint64_t>(instr.vl, useful / instr.ew);

  if (new_produced > instr.produced) {
    const std::uint64_t spc = bus / instr.ew;  // elements per full beat
    // First cycle with at least one whole useful element.
    Cycle fr = instr.produced == 0
                   ? cur + ceil_div(instr.head_skew + instr.ew - bd0, bus)
                   : from;
    if (instr.produced == 0) instr.first_result_at = fr;
    const Cycle hold = std::min(end, t_full - 1);
    if (hold >= fr) {
      const std::uint64_t v_fr =
          std::min<std::uint64_t>(instr.vl,
                                  (bd0 + (fr - cur) * bus - instr.head_skew) /
                                      instr.ew);
      instr.hist.record_ramp(fr, v_fr, spc, 1, 0, hold);
    }
    if (end >= t_full) instr.hist.record(t_full, new_produced);
    account(instr.unit, instr, new_produced - instr.produced);
    instr.produced = new_produced;
    if (instr.finished_producing()) instr.finished_at = t_full;
  }
  instr.bytes_done = bytes_end;
  if (instr.bytes_done >= raw && instr.finished_producing()) {
    instr.completed_at = t_full + lanes_.chain_lag(Unit::kLoad);
  }
  instr.advanced_until = std::max(instr.advanced_until, end);
}

void TimingEngine::advance_span_store(Inflight& instr, Cycle from, Cycle to) {
  const std::uint64_t raw = instr.head_skew + instr.bytes_total;
  const std::uint64_t bus = glsu_.bus_bytes();
  const std::uint64_t ew = instr.ew;
  Cycle cur = from - 1;

  while ((to == kNeverCycle || cur < to) && instr.bytes_done < raw) {
    const Cycle u1 = cur + 1;
    const CapLine cap = combined_cap(instr, u1, to);
    if (cap.fractional) {
      replay_span(instr, u1, to);
      return;
    }

    // Lines in bytes at u1: own full-bandwidth pursuit, the sendable limit
    // from operand availability, and the raw-total ceiling. bytes_done
    // follows min(own, sendable, raw) inside a span where all are linear.
    struct Line {
      std::uint64_t v;
      std::uint64_t s;
    };
    const std::uint64_t snd_cap = instr.head_skew + cap.value * ew;
    const Line lines[3] = {
        {instr.bytes_done + bus, bus},
        {snd_cap < raw ? snd_cap : raw, snd_cap < raw ? cap.slope * ew : 0},
        {raw, 0},
    };
    std::size_t b = 0;
    for (std::size_t i = 1; i < 3; ++i) {
      if (lines[i].v < lines[b].v ||
          (lines[i].v == lines[b].v && lines[i].s < lines[b].s)) {
        b = i;
      }
    }
    const std::uint64_t vb = lines[b].v;
    const std::uint64_t sb = lines[b].s;
    Cycle seg_end = cap.until;
    if (to != kNeverCycle && (seg_end == kNeverCycle || to < seg_end)) {
      seg_end = to;
    }
    for (std::size_t i = 0; i < 3; ++i) {
      if (i == b || lines[i].s >= sb) continue;
      const Cycle cross = u1 + cross_after(vb, sb, lines[i].v, lines[i].s);
      if (cross - 1 < seg_end) seg_end = cross - 1;
    }

    if (sb == 0 && vb <= instr.bytes_done) {
      // Stalled on operand availability for the whole sub-span.
      if (seg_end == kNeverCycle) return;  // parked until an outside event
      cur = seg_end;
      continue;
    }

    bool done = false;
    Cycle done_at = 0;
    if (vb >= raw) {
      done = true;
      done_at = u1;
      seg_end = u1;
    } else if (sb > 0) {
      const Cycle t_raw = u1 + ceil_div(raw - vb, sb);
      if (seg_end == kNeverCycle || t_raw <= seg_end) {
        seg_end = t_raw;
        done = true;
        done_at = t_raw;
      }
    }
    debug_check(seg_end != kNeverCycle, "unbounded growing store segment");

    const std::uint64_t bytes_end = done ? raw : vb + sb * (seg_end - u1);
    const std::uint64_t useful =
        bytes_end > instr.head_skew ? bytes_end - instr.head_skew : 0;
    const std::uint64_t new_produced =
        std::min<std::uint64_t>(instr.vl, useful / ew);
    if (new_produced > instr.produced) {
      const std::uint64_t spc = sb / ew;  // bus and cap byte slopes divide ew
      if (instr.produced == 0) {
        instr.first_result_at =
            vb >= instr.head_skew + ew
                ? u1
                : u1 + ceil_div(instr.head_skew + ew - vb, sb);
      }
      if (spc == 0) {
        // Single jump to a higher constant line (sb == 0 with vb above the
        // current bytes_done, or a slope smaller than one element/cycle is
        // impossible here since byte slopes are multiples of ew).
        instr.hist.record(u1, new_produced);
      } else {
        // Ramp anchored at the first cycle whose bytes cover the skew.
        const Cycle anchor =
            vb >= instr.head_skew ? u1
                                  : u1 + ceil_div(instr.head_skew - vb, sb);
        const Cycle hold = done ? done_at - 1 : seg_end;
        if (hold >= anchor) {
          const std::uint64_t v_anchor =
              (vb + sb * (anchor - u1) - instr.head_skew) / ew;
          instr.hist.record_ramp(anchor, v_anchor, spc, 1, 0, hold);
        }
        if (done) instr.hist.record(done_at, new_produced);
      }
      account(instr.unit, instr, new_produced - instr.produced);
      instr.produced = new_produced;
    }
    instr.bytes_done = bytes_end;
    cur = seg_end;
    if (done) {
      if (instr.finished_producing()) instr.finished_at = done_at;
      instr.completed_at = done_at + lanes_.chain_lag(Unit::kStore);
      instr.advanced_until = std::max(instr.advanced_until, done_at);
      return;
    }
  }
  if (to != kNeverCycle && to > instr.advanced_until) instr.advanced_until = to;
}

// ---- steady-state loop batching ---------------------------------------------
//
// Exactness argument. A checkpoint is the deterministic instant "first
// wakeup whose post-step pc sits on a loop-period boundary". The snapshot
// serializes *everything* the engine's evolution reads, rebased to the
// checkpoint (cycle t, pc, next instruction id): CVA6 state, the captured
// vl/vtype, the sequencer queue, every in-flight instruction (shape,
// progress, chaining history, reduction phase, dependencies by relative
// id) and the register claim table. If two consecutive checkpoints
// serialize identically, the machine's evolution from the second mirrors
// its evolution from the first — shifted by (D cycles, P ops, dI ids) —
// provided the only non-serialized inputs also repeat:
//
//  * upcoming op signatures: guaranteed inside a declared loop (the
//    builder compared every iteration with iteration 0 field by field, so
//    a wrong declaration is rejected at build time, never batched);
//  * memory addresses. Addresses reach the timing model through exactly
//    two reads: head_skew(addr) at dispatch of a non-elementwise
//    (unit-stride) access, and the dispatch-time range-overlap test
//    against the other-kind unit queue. Each bounded memory op may
//    therefore follow its *own* per-position progression — the batcher
//    does not need one common delta — as long as, op by op, (a) the bus
//    phase addr % bus_bytes equals its period-earlier counterpart's
//    (head_skew repeats) and (b) every possible pairwise overlap outcome
//    equals the counterpart pair's. The candidate partners of op i are a
//    static superset of what can be queued when i dispatches: in-order
//    dispatch and retire make the other-kind queue a contiguous suffix of
//    the other-kind ops before i, at most unit_queue_depth deep; if every
//    pair in the superset repeats its outcome, whatever subset is live
//    repeats it too. prepare_loop_batching marks every op that violates
//    a check as a *barrier* (a pair whose counterpart falls before the
//    region start is conservatively a barrier as well). A batch of K
//    periods replays the dispatches of ops [oldest pending, oldest pending
//    + K*period) — the sequencer queue shifts rigidly, so exactly those
//    leave it inside the batched window — and may do so only when none of
//    them is a barrier. Barriers on ops that dispatched inside an
//    already-recorded window are irrelevant — its behavior is history,
//    captured by the snapshot — which is why recording continues across
//    them (the first period of any load+store region carries conservative
//    barriers from out-of-region partners). Indexed accesses are exempt
//    from both checks: the timing model never reads their addresses
//    (unknown footprint => conservative conflict either way), and zero-vl
//    ops never enter the sequencer at all.
//
// Super-periods. A row pitch that is not a bus multiple (fconv2d's input
// rows, an unpadded stencil) moves an op's bus phase every period, so
// check (a) fails at every boundary of the signature period p. Such a
// phase is still periodic: a declared loop advances each op's address by
// a constant d per iteration, so the op is back at its phase after
// bus / gcd(d mod bus, bus) iterations. A loop whose phases repeat every
// m iterations (the lcm over its unit-stride ops, phase_super_period) and
// that holds at least three such windows is batched with period m * p
// instead. That is still a signature period (p divides it), so everything
// above — and every check below, which pairs each op with its counterpart
// one *region* period earlier — applies unchanged, only indexed m
// iterations back.
//
// Warmup fast-forward: a handful of serialized fields provably cannot
// influence evolution — issue/dispatch stamps are read only when writing
// trace records, and Pending::arrive_at / cva6_free_ are read only
// through `> t`-style predicates, so any value <= t is equivalent to any
// other. snapshot_state canonicalizes those (stamps move to a side
// `shadow` buffer when tracing is off; the predicate cycles are clamped
// to t) so two boundaries that differ only by such inert residue of the
// fill transient still compare equal, and short runs on wide machines
// engage ~12 iterations earlier. An engage whose raw shadow differed is
// counted as warmup_projected. The relabelling below shifts the raw
// fields rigidly, which preserves the equivalence (a cycle <= t stays
// <= t + shift), so measurements are identical either way — with tracing
// on, the stamps are compared exactly and the engine merely engages
// later.
//
// Under those conditions each batched window retires the recorded per-
// window stat delta, emits the recorded trace records (rebased, with the
// disassembly refetched from the real ops so addresses stay exact), and
// ends in the recorded state shifted once more — so applying K windows in
// closed form and relabelling the live window K periods forward lands on
// exactly the state the per-wakeup engine would have reached. Anything
// else — a vl tail (different vsetvli grant), a mid-loop vtype change —
// lies outside the declared loop, and a drifting stall pattern breaks the
// snapshot match or the barrier-free requirement; the engine then simply
// keeps simulating per wakeup (a mid-loop barrier clamps K short of it
// and re-arms on the far side instead of disabling the region). The
// LoopEquivalence fuzzers drive loop-heavy and adversarial variants of
// all of these through both engines.

namespace {

/// Rebased cycle encoding for snapshots (two words: sentinel flag + delta,
/// so kNeverCycle can never alias a legitimate rebased value).
void push_cycle_rel(std::vector<std::uint64_t>* out, Cycle x, Cycle base) {
  out->push_back(x == kNeverCycle ? 1 : 0);
  out->push_back(x == kNeverCycle
                     ? 0
                     : static_cast<std::uint64_t>(static_cast<std::int64_t>(x) -
                                                  static_cast<std::int64_t>(base)));
}

std::uint64_t rel_u64(std::uint64_t x, std::uint64_t base) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(x) -
                                    static_cast<std::int64_t>(base));
}

/// True for memory ops whose [lo, hi) footprint the dispatcher computes
/// from the instruction's address (the ops the batcher's address checks
/// must cover).
bool bounded_mem_op(Op op) {
  return op == Op::kVle || op == Op::kVse || op == Op::kVlse || op == Op::kVsse;
}

/// Which memory unit queue an op occupies (kNone for non-memory ops);
/// the dispatch-time conflict test scans the opposite queue.
Unit mem_unit(Op op) {
  switch (op) {
    case Op::kVle:
    case Op::kVlse:
    case Op::kVluxei: return Unit::kLoad;
    case Op::kVse:
    case Op::kVsse:
    case Op::kVsuxei: return Unit::kStore;
    default: return Unit::kNone;
  }
}

}  // namespace

void TimingEngine::prepare_loop_batching() {
  const std::vector<ProgramLoop>& loops = prog_->loops();
  const std::uint64_t vlen = cfg_.effective_vlen();
  const std::uint64_t bus = glsu_.bus_bytes();

  // Dispatch-time shape of an op, reproduced the way tick_cva6 sees it:
  // the grant and vtype of the last vsetvli before the op. Every iteration
  // of a loop leaves the shape iteration 0 left (its vsetvlis grant
  // alike), so walking the straight-line ops and one iteration per loop
  // yields every loop's entry shape.
  struct Shape {
    std::uint64_t vl = 0;
    Vtype vt{};
  };
  const auto walk = [&](const ProgOp& op, Shape* s) {
    const auto* v = std::get_if<VInstr>(&op);
    if (v != nullptr && v->op == Op::kVsetvli) {
      s->vt = v->vtype;
      s->vl = vsetvl_result(vlen, v->avl, v->vtype);
    }
  };
  std::vector<Shape> entries;
  Shape cur;
  std::size_t i = 0;
  for (std::size_t li = 0; li < loops.size(); ++li) {
    const ProgramLoop& l = loops[li];
    for (; i < l.start; ++i) walk(prog_->op(i), &cur);
    i = l.end();
    const Shape entry = cur;
    for (const ProgramLoop::BodyOp& b : l.body) walk(b.op, &cur);
    if (l.count < 3) continue;
    LoopRegion r{l.start, l.end(), l.body.size(), li};
    // Super-periods (see the exactness argument above).
    const std::size_t m = phase_super_period(l, bus);
    if (m > 1 && r.end - r.start >= 3 * m * r.period) r.period *= m;
    loop_regions_.push_back(r);
    entries.push_back(entry);
  }
  loop_barriers_.assign(loop_regions_.size(), {});
  loop_last_engageable_.assign(loop_regions_.size(), 0);

  for (std::size_t ri = 0; ri < loop_regions_.size(); ++ri) {
    const LoopRegion& r = loop_regions_[ri];
    const ProgramLoop& l = loops[r.loop];
    const std::size_t body = l.body.size();
    const std::size_t p = r.period;
    // Shape per body op: iteration 0 enters with the loop's entry shape,
    // every later iteration with iteration 0's exit shape. Zero-vl ops
    // never enter the sequencer, so they are invisible to dispatch and
    // excluded from every barrier check below.
    std::vector<Shape> shapes(2 * body);
    Shape s = entries[ri];
    for (std::size_t k = 0; k < 2 * body; ++k) {
      walk(l.body[k % body].op, &s);
      shapes[k] = s;
    }
    std::vector<std::size_t> mem_pos;  // body positions of the memory ops
    for (std::size_t pos = 0; pos < body; ++pos) {
      const auto* v = std::get_if<VInstr>(&l.body[pos].op);
      if (v != nullptr && mem_unit(v->op) != Unit::kNone) mem_pos.push_back(pos);
    }
    const std::size_t nmem = mem_pos.size();
    const std::size_t m = p / body;  // iterations per period
    // Footprint of every memory op, indexed it * nmem + slot: one period
    // back is m * nmem entries earlier.
    struct Footprint {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
    };
    std::vector<Footprint> fp(l.count * nmem);
    const auto overlaps = [&](std::size_t a, std::size_t b) {
      return fp[a].lo < fp[b].hi && fp[b].lo < fp[a].hi;
    };

    // Per period: bit 0 = any barrier, bit 1 = a genuine one (skew phase or
    // overlap-outcome change with in-region counterparts, as opposed to the
    // conservative partner-before-region-start case).
    const std::size_t num_periods = (r.end - r.start + p - 1) / p;
    std::vector<std::uint8_t> flags(num_periods, 0);
    // The candidate partner set for op i is the nearest unit_queue_depth
    // *in-region* opposite-unit ops before it. Partners wholly before the
    // region are irrelevant: engaging requires the liveness gate (every
    // queued op a full period into the region) and a rebased-index
    // snapshot match, which together put every queue entry at both window
    // boundaries at or past r.start — and a pre-region op never re-enters
    // a queue. Tracking the partner sets (as footprint indices) with a
    // forward sweep over the loop's memory ops keeps the analysis
    // O(ops x depth).
    std::vector<std::size_t> recent[kNumUnits];
    for (std::uint64_t it = 0; it < l.count; ++it) {
      for (std::size_t slot = 0; slot < nmem; ++slot) {
        const std::size_t pos = mem_pos[slot];
        const std::size_t op = r.start + it * body + pos;
        const std::size_t fi = it * nmem + slot;
        const Shape& sh = shapes[it == 0 ? pos : body + pos];
        VInstr v = std::get<VInstr>(l.body[pos].op);
        v.addr += it * static_cast<std::uint64_t>(l.body[pos].addr_step);
        mem_range(v, sh.vl, sew_bytes(sh.vt.sew), &fp[fi].lo, &fp[fi].hi);
        if (sh.vl == 0) continue;
        const Unit u = mem_unit(v.op);
        if (bounded_mem_op(v.op) && it >= m) {
          std::uint8_t f = 0;
          // (a) head_skew repeats only if the bus phase does (unit-stride
          // ops; strided accesses are elementwise and never read
          // head_skew).
          const std::uint64_t back = static_cast<std::uint64_t>(l.body[pos].addr_step) * m;
          if (!elementwise_mem_op(v.op) && v.addr % bus != (v.addr - back) % bus) f = 3;
          // (b) every candidate partner pair's overlap outcome must repeat.
          const Unit other = u == Unit::kLoad ? Unit::kStore : Unit::kLoad;
          for (const std::size_t fj : recent[static_cast<std::size_t>(other)]) {
            if (fj < m * nmem) {
              f |= 1;  // counterpart precedes the region: conservative barrier
              continue;
            }
            if (!bounded_mem_op(std::get<VInstr>(l.body[mem_pos[fj % nmem]].op).op)) {
              continue;  // indexed: conservative conflict both times
            }
            if (overlaps(fi, fj) != overlaps(fi - m * nmem, fj - m * nmem)) f = 3;
          }
          flags[(op - r.start) / p] |= f;
          if (f != 0) loop_barriers_[ri].push_back(op);
        }
        auto& own = recent[static_cast<std::size_t>(u)];
        own.push_back(fi);
        if (own.size() > cfg_.unit_queue_depth) own.erase(own.begin());
      }
    }

    for (std::size_t q = num_periods; q-- > 2;) {
      const std::size_t b = r.start + q * p;
      if (b + p <= r.end && flags[q] == 0) {
        loop_last_engageable_[ri] = b;
        break;
      }
    }

    // Static rejection telemetry: a genuine barrier past the first period
    // breaks some op's address progression there. No batch can dispatch
    // across it (replay_periods clamps K short of it; each clamped engage
    // counts in batch_clamps), so count the progression failure once per
    // region, up front.
    for (std::size_t q = 1; q < num_periods; ++q) {
      if ((flags[q] & 2) != 0) {
        count_batch_reject(BatchReject::kAddrProgression, 0);
        break;
      }
    }
  }

  // Classify what follows each loop when it is a vsetvli whose signature
  // differs from its previous-period counterpart: a smaller grant at the
  // same vtype is a strip-mine tail; anything else is a grant/shape change
  // (the canonical mid-loop vsetvli failure).
  for (const LoopRegion& r : loop_regions_) {
    if (r.end == prog_->size()) continue;
    const OpKey ke = op_key(prog_->op(r.end), vlen);
    const OpKey kp = op_key(prog_->op(r.end - r.period), vlen);
    const auto vsetvli = static_cast<std::uint32_t>(Op::kVsetvli);
    if (ke.tag == 1 && kp.tag == 1 && ke.op == vsetvli && kp.op == vsetvli &&
        !(ke == kp)) {
      count_batch_reject(ke.vtype == kp.vtype && ke.value < kp.value
                             ? BatchReject::kVlTail
                             : BatchReject::kGrantChange,
                         0);
    }
  }
}

void TimingEngine::snapshot_state(Cycle t, std::vector<std::uint64_t>* out,
                                  std::vector<std::uint64_t>* shadow) const {
  const std::uint64_t id_base = next_id_;
  const std::size_t pc_base = pc_;

  // Warmup fast-forward (see the exactness argument above): issue/dispatch
  // stamps feed nothing but trace records, so with tracing off they are
  // diverted to `shadow` instead of the compared state; cycles read only
  // through `> t` predicates are clamped to t (any past value behaves
  // identically), with the raw value kept in `shadow` so an engage that
  // relied on the projection can be told apart from an exact one.
  const bool stamps_inert = trace_ == nullptr;
  const auto push_stamp = [&](Cycle x) {
    push_cycle_rel(stamps_inert ? shadow : out, x, t);
  };
  const auto push_past_equiv = [&](Cycle x) {
    push_cycle_rel(out, std::max(x, t), t);
    push_cycle_rel(shadow, x, t);
  };

  out->push_back(static_cast<std::uint64_t>(dispatched_this_cycle_));
  out->push_back(static_cast<std::uint64_t>(cva6_stall_));
  push_past_equiv(cva6_free_);
  out->push_back(fn_.vl());
  out->push_back(sew_bits(fn_.vtype().sew));
  out->push_back(static_cast<std::uint64_t>(fn_.vtype().lmul.log2 + 8));

  const auto push_shape = [&](const VInstr& in) {
    out->push_back(static_cast<std::uint64_t>(in.op));
    out->push_back(static_cast<std::uint64_t>(in.vd) |
                   (static_cast<std::uint64_t>(in.vs1) << 8) |
                   (static_cast<std::uint64_t>(in.vs2) << 16) |
                   (static_cast<std::uint64_t>(in.masked ? 1 : 0) << 24));
    out->push_back(static_cast<std::uint64_t>(in.xs));
    out->push_back(static_cast<std::uint64_t>(in.stride));
  };

  out->push_back(seq_.size());
  for (const Pending& p : seq_) {
    push_shape(p.in);
    out->push_back(rel_u64(p.prog_index, pc_base));
    out->push_back(p.vl);
    out->push_back(p.ew);
    out->push_back(p.group_regs);
    push_stamp(p.issued_at);
    push_past_equiv(p.arrive_at);
  }

  for (std::size_t u = 1; u < kNumUnits; ++u) {
    const auto& q = unitq_[u];
    out->push_back(q.size());
    for (const std::uint32_t slot : q) {
      const Inflight& instr = pool_.at(slot);
      push_shape(instr.in);
      out->push_back(rel_u64(instr.prog_index, pc_base));
      out->push_back(instr.vl);
      out->push_back(instr.ew);
      out->push_back(static_cast<std::uint64_t>(instr.unit));
      push_stamp(instr.issued_at);
      push_stamp(instr.dispatched_at);
      push_cycle_rel(out, instr.start_at, t);
      push_cycle_rel(out, instr.advanced_until, t);
      push_cycle_rel(out, instr.first_result_at, t);
      push_cycle_rel(out, instr.completed_at, t);
      push_cycle_rel(out, instr.finished_at, t);
      push_cycle_rel(out, instr.projected_done, t);
      out->push_back(instr.produced);
      out->push_back(instr.rate_acc);
      out->push_back(instr.bytes_total);
      out->push_back(instr.bytes_done);
      out->push_back(instr.head_skew);
      out->push_back(static_cast<std::uint64_t>(instr.red_phase));
      push_cycle_rel(out, instr.red_phase_end, t);
      out->push_back(instr.write_base);
      out->push_back(instr.write_count);
      out->push_back(instr.read_groups);
      for (unsigned g = 0; g < instr.read_groups; ++g) {
        out->push_back(instr.read_base[g]);
        out->push_back(instr.read_count[g]);
      }
      out->push_back(instr.deps.size());
      for (const Dep& d : instr.deps) {
        const bool live = pool_.get(d.slot, d.producer) != nullptr;
        out->push_back(live ? 1 : 0);
        out->push_back(live ? rel_u64(d.producer, id_base) : 0);
        out->push_back(d.lag);
        out->push_back(static_cast<std::uint64_t>(d.offset));
        out->push_back(d.full ? 1 : 0);
        out->push_back(d.producer_ticks_first ? 1 : 0);
      }
      instr.hist.serialize_rel(t, out);
    }
  }

  for (const RegState& rs : regs_) {
    const Inflight* w = find(rs.writer);
    out->push_back(w == nullptr ? 0 : 1);
    out->push_back(w == nullptr ? 0 : rel_u64(rs.writer.id, id_base));
    std::uint64_t live_readers = 0;
    for (const RegRef& rr : rs.readers) {
      if (find(rr) != nullptr) ++live_readers;
    }
    out->push_back(live_readers);
    for (const RegRef& rr : rs.readers) {
      if (find(rr) != nullptr) out->push_back(rel_u64(rr.id, id_base));
    }
  }
}

std::size_t TimingEngine::next_barrier(std::size_t i) const {
  const auto& bars = loop_barriers_[loop_region_idx_];
  const auto it = std::lower_bound(bars.begin(), bars.end(), i);
  return it == bars.end() ? loop_regions_[loop_region_idx_].end : *it;
}

std::uint64_t TimingEngine::replay_periods(const LoopRegion& r) const {
  // A batch of K periods issues ops [pc, pc + K*period), which must stay
  // inside the region, and dispatches ops [oldest pending, oldest pending
  // + K*period): the sequencer queue shifts rigidly, so exactly those ops
  // leave it inside the batched window. Dispatch is where addresses are
  // consumed (head skew, load/store conflict checks) and the replay gives
  // each of them its period-earlier counterpart's dispatch pattern, so none
  // of them may carry a barrier. Unit-queue ops are safe: their
  // dispatch-time reads are already consumed and their remaining
  // evolution is snapshot state.
  std::size_t min_pending = pc_;
  for (const Pending& p : seq_) {
    min_pending = std::min(min_pending, p.prog_index);
  }
  return std::min((r.end - pc_) / r.period,
                  (next_barrier(min_pending) - min_pending) / r.period);
}

std::uint64_t TimingEngine::batchable_periods(const LoopRegion& r) const {
  const std::uint64_t k = replay_periods(r);
  if (k == 0) return 0;
  // Every live op must be at least one period deep into the region: its
  // previous-period counterpart anchors the rigid-shift argument for the
  // dispatch-time address comparisons it participates in.
  std::size_t min_idx = pc_;
  for (const Pending& p : seq_) min_idx = std::min(min_idx, p.prog_index);
  for (const auto& q : unitq_) {
    for (const std::uint32_t slot : q) {
      min_idx = std::min(min_idx, pool_.at(slot).prog_index);
    }
  }
  if (min_idx < r.start + r.period) return 0;
  return k;
}

bool TimingEngine::loop_checkpoint(Cycle* t_io) {
  while (loop_region_idx_ < loop_regions_.size() &&
         pc_ >= loop_regions_[loop_region_idx_].end) {
    ++loop_region_idx_;
    ckpt_.valid = false;
  }
  if (loop_region_idx_ >= loop_regions_.size()) return false;
  const LoopRegion& r = loop_regions_[loop_region_idx_];
  // Past the last boundary from which a whole barrier-free period still
  // lies ahead, no engage can ever happen (pc only grows) — skip the
  // snapshot work entirely. Dense-barrier regions (an aperiodic address
  // walk, or a drifting bus phase whose super-period does not fit the
  // region three times) would otherwise serialize the machine at every
  // boundary for nothing.
  if (pc_ > loop_last_engageable_[loop_region_idx_]) return false;
  if (pc_ < r.start + r.period) return false;
  if ((pc_ - r.start) % r.period != 0) return false;
  if (pc_ == last_ckpt_pc_) return false;  // stalled at the boundary
  last_ckpt_pc_ = pc_;

  snap_scratch_.clear();
  shadow_scratch_.clear();
  snapshot_state(*t_io, &snap_scratch_, &shadow_scratch_);

  if (ckpt_.valid && ckpt_.pc + r.period == pc_) {
    if (snap_scratch_ == ckpt_.state) {
      const Cycle d = *t_io - ckpt_.t;
      const std::uint64_t id_delta = next_id_ - ckpt_.next_id;
      const std::uint64_t k = batchable_periods(r);
      if (k > 0) {
        // Clamped when a barrier (not the region end) bounded K: the batch
        // stops short of a nested-loop row boundary and re-arms beyond it.
        // Projected when the snapshots matched only up to inert warmup
        // residue (the canonical short-run wide-machine engage).
        const std::uint64_t full_ahead = (r.end - pc_) / r.period;
        const bool clamped = k < full_ahead;
        const bool projected = shadow_scratch_ != ckpt_.shadow;
        apply_batch(r, k, d, id_delta, t_io);
        if (clamped) ++stats_.batch_clamps;
        if (projected) ++stats_.warmup_projected;
        if (trace_ != nullptr) {
          trace_->mark(*t_io, clamped     ? SimMarkerKind::kBatchClamp
                              : projected ? SimMarkerKind::kBatchWarmup
                                          : SimMarkerKind::kBatchEngage,
                       k);
        }
        // The landing pc is itself a boundary; the state there is known to
        // equal this snapshot (shifted), so re-arm recording from scratch
        // for whatever partial tail remains.
        ckpt_.valid = false;
        last_ckpt_pc_ = pc_;
        return true;
      }
      if (replay_periods(r) > 0) {
        // Snapshots matched and a whole period may be replayed, yet no
        // iteration can retire: exactly the in-flight liveness gate
        // (an op still less than one period into the region) — the
        // canonical wide-machine failure, where long in-flight windows
        // span the loop start forever.
        count_batch_reject(BatchReject::kLivenessGate, *t_io);
      }
      // Otherwise a barrier sits within one period of the oldest pending
      // op (early conservative partner reach, or a row boundary): nothing
      // to count — recording simply continues and a later boundary engages.
    } else {
      // Consecutive boundary snapshots differ: not in steady state (yet) —
      // expected a few times during warmup, pathological if it never stops.
      count_batch_reject(BatchReject::kSnapshotMismatch, *t_io);
    }
  }

  ckpt_.valid = true;
  ckpt_.t = *t_io;
  ckpt_.pc = pc_;
  ckpt_.next_id = next_id_;
  ckpt_.stats = stats_;
  ckpt_.trace_len = trace_ == nullptr ? 0 : trace_->size();
  ckpt_.state.swap(snap_scratch_);
  ckpt_.shadow.swap(shadow_scratch_);
  return false;
}

void TimingEngine::apply_batch(const LoopRegion& r, std::uint64_t k, Cycle d,
                               std::uint64_t id_delta, Cycle* t_io) {
  const Cycle shift = k * d;
  const std::size_t dp = k * r.period;
  const std::uint64_t di = k * id_delta;
  const std::size_t b2 = pc_;
  const Cycle t2 = *t_io;
  const std::uint64_t id2 = next_id_;

  // 1. Trace replay: rebase the records retired inside the recorded window
  // and stamp one copy per batched window, refetching the disassembly from
  // the real program op so addresses and scalars stay exact.
  if (trace_ != nullptr) {
    trace_deltas_.clear();
    const auto& recs = trace_->records();
    for (std::size_t i = ckpt_.trace_len; i < recs.size(); ++i) {
      const TraceRecord& rec = recs[i];
      TraceDelta td;
      td.id = static_cast<std::int64_t>(rec.id) -
              static_cast<std::int64_t>(ckpt_.next_id);
      td.prog = static_cast<std::int64_t>(rec.prog_index) -
                static_cast<std::int64_t>(ckpt_.pc);
      td.vl = rec.vl;
      td.unit = rec.unit;
      td.issued = static_cast<std::int64_t>(rec.issued) -
                  static_cast<std::int64_t>(ckpt_.t);
      td.dispatched = static_cast<std::int64_t>(rec.dispatched) -
                      static_cast<std::int64_t>(ckpt_.t);
      td.has_first_result = rec.first_result != 0;
      td.first_result = td.has_first_result
                            ? static_cast<std::int64_t>(rec.first_result) -
                                  static_cast<std::int64_t>(ckpt_.t)
                            : 0;
      td.completed = static_cast<std::int64_t>(rec.completed) -
                     static_cast<std::int64_t>(ckpt_.t);
      td.stall_reason = rec.stall_reason;
      td.stall_slots = rec.stall_slots;
      trace_deltas_.push_back(td);
    }
    for (std::uint64_t m = 0; m < k; ++m) {
      const Cycle bt = t2 + m * d;
      const std::uint64_t bid = id2 + m * id_delta;
      const std::size_t bpc = b2 + m * r.period;
      for (const TraceDelta& td : trace_deltas_) {
        TraceRecord rec;
        rec.id = static_cast<std::uint64_t>(static_cast<std::int64_t>(bid) + td.id);
        rec.prog_index =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(bpc) + td.prog);
        rec.text = disasm(std::get<VInstr>(prog_->op(rec.prog_index)));
        rec.unit = td.unit;
        rec.vl = td.vl;
        rec.issued = static_cast<Cycle>(static_cast<std::int64_t>(bt) + td.issued);
        rec.dispatched =
            static_cast<Cycle>(static_cast<std::int64_t>(bt) + td.dispatched);
        rec.first_result =
            td.has_first_result
                ? static_cast<Cycle>(static_cast<std::int64_t>(bt) + td.first_result)
                : 0;
        rec.completed =
            static_cast<Cycle>(static_cast<std::int64_t>(bt) + td.completed);
        rec.stall_reason = td.stall_reason;
        rec.stall_slots = td.stall_slots;
        trace_->add(std::move(rec));
      }
    }
  }

  // 2. Architectural execution of every batched op, in program order (the
  // timing pattern is replayed; the data is not — vsetvli grants included,
  // which the declaration proves identical period over period).
  {
    const ProgramLoop& l = prog_->loops()[r.loop];
    const std::size_t body = l.body.size();
    std::uint64_t it = (b2 - r.start) / body;
    std::size_t pos = (b2 - r.start) % body;
    for (std::size_t n = 0; n < dp; ++n) {
      if (std::holds_alternative<VInstr>(l.body[pos].op)) {
        fn_.exec(std::get<VInstr>(l.op(it, pos)));
      }
      if (++pos == body) {
        pos = 0;
        ++it;
      }
    }
  }

  // 3. Relabel the live window K periods into the future. Pass 1 retargets
  // every by-id reference while the pool still resolves the old ids; pass 2
  // shifts the instructions themselves.
  for (auto& q : unitq_) {
    for (const std::uint32_t slot : q) {
      Inflight& instr = pool_.at(slot);
      for (Dep& dep : instr.deps) {
        if (pool_.get(dep.slot, dep.producer) != nullptr) dep.producer += di;
      }
    }
  }
  for (RegState& rs : regs_) {
    if (find(rs.writer) != nullptr) rs.writer.id += di;
    for (RegRef& rr : rs.readers) {
      if (find(rr) != nullptr) rr.id += di;
    }
  }
  const auto shift_cycle = [&](Cycle& c) {
    if (c != kNeverCycle) c += shift;
  };
  for (auto& q : unitq_) {
    for (const std::uint32_t slot : q) {
      Inflight& instr = pool_.at(slot);
      instr.id += di;
      instr.prog_index += dp;
      instr.in = std::get<VInstr>(prog_->op(instr.prog_index));
      instr.issued_at += shift;
      instr.dispatched_at += shift;
      instr.start_at += shift;
      instr.advanced_until += shift;
      shift_cycle(instr.first_result_at);
      shift_cycle(instr.completed_at);
      shift_cycle(instr.finished_at);
      shift_cycle(instr.projected_done);
      shift_cycle(instr.red_phase_end);
      instr.hist.shift_time(shift);
    }
  }
  for (Pending& p : seq_) {
    p.prog_index += dp;
    p.in = std::get<VInstr>(prog_->op(p.prog_index));
    p.issued_at += shift;
    p.arrive_at += shift;
  }
  cva6_free_ += shift;
  pc_ = b2 + dp;
  next_id_ = id2 + di;

  // 4. K copies of the recorded per-window stat deltas. Stall attribution
  // rides along: it is computed in-band with the machine's evolution, so
  // the recorded window's per-reason deltas repeat exactly — "batched
  // iterations multiply deltas by exactly K" is the contract the
  // equivalence fuzzers pin down.
  const RunStats& s0 = ckpt_.stats;
  for (const StatField& f : kRunStatsFields) {
    if (!f.has(kPerWindow)) continue;
    const std::span<const std::uint64_t> before = f.values(s0);
    const std::span<std::uint64_t> now = f.values(stats_);
    for (std::size_t i = 0; i < now.size(); ++i) now[i] += k * (now[i] - before[i]);
  }
  stats_.batched_iterations += k;

  // 5. One batch = K iterations of progress, not one note (the watchdog's
  // wakeup budget must not see a long fast-forward as a silent machine).
  watchdog_.note_progress(k);

  *t_io = t2 + shift;
}

}  // namespace araxl
