// Produced-count history of one in-flight instruction.
#ifndef ARAXL_SIM_PIPE_HPP
#define ARAXL_SIM_PIPE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "sim/cycle.hpp"

namespace araxl {

/// History of a monotonically increasing counter, so a consumer can ask
/// "what was the producer's count `lag` cycles ago?" — the mechanism behind
/// result-latency-aware operand chaining — and the stall attributor can ask
/// how many results existed at any cycle of an attribution window.
///
/// The cycle-stepped engine records one (cycle, value) change point per
/// advancing cycle.  The event-driven engine instead records *piecewise-
/// linear segments*: one entry describes a whole run of cycles over which
/// the counter grew at a constant (possibly fractional num/den) rate, and
/// `value_at_lag` interpolates inside the segment with the same integer
/// floor arithmetic the per-cycle path would have produced.  Both entry
/// kinds coexist in one list.
///
/// Nothing is forgotten implicitly: entries stay until `prune(through)`,
/// the owner's promise that no later query asks about a cycle before
/// `through`. The timing engine prunes every in-flight history after each
/// attribution step, which keeps the live list a handful of entries long.
class LaggedCounter {
 public:
  /// Normalized view of the segment covering one query cycle, for
  /// closed-form consumers (the event engine's bulk advancement).
  struct Piece {
    std::uint64_t value = 0;   ///< counter value at the query cycle
    std::uint64_t num = 0;     ///< per-cycle growth numerator (0 = constant)
    std::uint64_t den = 1;     ///< growth denominator
    std::uint64_t acc = 0;     ///< accumulator phase at the query cycle
    Cycle grow_until = 0;      ///< last cycle this growth persists (if num > 0)
    Cycle change_at = kNeverCycle;  ///< first cycle a newer entry takes over
  };

  /// Empties the history, keeping the storage (recycled Inflight slots
  /// allocate nothing).
  void clear() noexcept {
    entries_.clear();
    head_ = 0;
  }

  /// Records the counter value at cycle `now` (non-decreasing in both).
  void record(Cycle now, std::uint64_t value) {
    debug_check(empty() || value >= latest(), "counter must be monotonic");
    debug_check(empty() || now >= entries_.back().hold, "time must be monotonic");
    if (!empty() && entries_.back().start == now && entries_.back().hold == now) {
      entries_.back() = Entry{now, value, 0, 1, 0, now};
      return;
    }
    entries_.push_back(Entry{now, value, 0, 1, 0, now});
  }

  /// Records a linear segment: for cycles w in [start, hold] the counter
  /// reads v0 + (acc + (w - start) * num) / den, constant afterwards until
  /// the next entry.  `v0` is the value after cycle `start`; acc < den.
  void record_ramp(Cycle start, std::uint64_t v0, std::uint64_t num,
                   std::uint64_t den, std::uint64_t acc, Cycle hold) {
    debug_check(den > 0 && acc < den, "ramp accumulator out of range");
    debug_check(hold >= start, "ramp must cover at least one cycle");
    debug_check(empty() || v0 >= latest(), "counter must be monotonic");
    debug_check(empty() || start > entries_.back().hold, "time must be monotonic");
    if (!empty()) {
      // Extend a contiguous integer-slope run in place (keeps the history
      // compact across fast-forward windows).
      Entry& n = entries_.back();
      if (n.den == 1 && den == 1 && n.num == num && start == n.hold + 1 &&
          v0 == eval(n, n.hold) + num) {
        n.hold = hold;
        return;
      }
    }
    entries_.push_back(Entry{start, v0, num, den, acc, hold});
  }

  /// Value the counter had at (absolute) cycle `when`; 0 before history.
  [[nodiscard]] std::uint64_t value_at(Cycle when) const {
    for (std::size_t k = entries_.size(); k-- > head_;) {
      const Entry& e = entries_[k];
      if (e.start <= when) return eval(e, when);
    }
    return 0;
  }

  /// Value the counter had at cycle `now - lag`; 0 before any history.
  [[nodiscard]] std::uint64_t value_at_lag(Cycle now, Cycle lag) const {
    if (lag > now) return 0;
    return value_at(now - lag);
  }

  /// Segment view at `when` for closed-form consumers.
  [[nodiscard]] Piece piece_at(Cycle when) const {
    for (std::size_t k = entries_.size(); k-- > head_;) {
      const Entry& e = entries_[k];
      if (e.start > when) continue;
      Piece p;
      p.change_at = k + 1 < entries_.size() ? entries_[k + 1].start : kNeverCycle;
      p.value = eval(e, when);
      if (when < e.hold) {
        p.num = e.num;
        p.den = e.den;
        p.acc = (e.acc + (when - e.start) * e.num) % e.den;
        p.grow_until = e.hold;
      }
      return p;
    }
    Piece p;  // before any history: constant zero until the first entry
    p.change_at = empty() ? kNeverCycle : entries_[head_].start;
    return p;
  }

  [[nodiscard]] std::uint64_t latest() const noexcept {
    return empty() ? 0 : eval(entries_.back(), entries_.back().hold);
  }

  /// Drops every entry that no query at a cycle >= `through` can reach:
  /// all but the newest entry starting at or before `through` (the one that
  /// covers it). value_at and piece_at answer exactly as before for every
  /// cycle >= `through`.
  void prune(Cycle through) {
    while (entries_.size() - head_ > 1 && entries_[head_ + 1].start <= through) {
      ++head_;
    }
    // The cycle-stepped engine records and prunes every cycle: advance a
    // head index and compact only once the dead prefix outweighs the live
    // entries (amortized O(1) per dropped entry).
    if (head_ >= kCompactAt && 2 * head_ >= entries_.size()) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Moves the whole recorded history `delta` cycles into the future — the
  /// loop batcher relabels a steady-state instruction's history when it
  /// fast-forwards K whole iterations (values are per-instruction produced
  /// counts and stay untouched; only the time axis shifts).
  void shift_time(Cycle delta) noexcept {
    for (std::size_t k = head_; k < entries_.size(); ++k) {
      entries_[k].start += delta;
      entries_[k].hold += delta;
    }
  }

  /// Appends a canonical time-relative serialization of the live history to
  /// `out` (cycles rebased to `base`): two histories serialize equally iff
  /// every consumer-visible query agrees under the same rebasing. Used by
  /// the loop batcher's steady-state snapshot comparison.
  void serialize_rel(Cycle base, std::vector<std::uint64_t>* out) const {
    out->push_back(entries_.size() - head_);
    for (std::size_t k = head_; k < entries_.size(); ++k) {
      const Entry& e = entries_[k];
      out->push_back(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(e.start) - static_cast<std::int64_t>(base)));
      out->push_back(e.value);
      out->push_back(e.num);
      out->push_back(e.den);
      out->push_back(e.acc);
      out->push_back(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(e.hold) - static_cast<std::int64_t>(base)));
    }
  }

 private:
  struct Entry {
    Cycle start = 0;           ///< first cycle of the segment
    std::uint64_t value = 0;   ///< counter value after cycle `start`
    std::uint64_t num = 0;     ///< per-cycle increment numerator
    std::uint64_t den = 1;     ///< denominator (1 = integer slope)
    std::uint64_t acc = 0;     ///< accumulator phase at `start` (< den)
    Cycle hold = 0;            ///< last growing cycle; constant afterwards
  };

  /// Dead-prefix length at which prune() may compact the list.
  static constexpr std::size_t kCompactAt = 16;

  [[nodiscard]] static std::uint64_t eval(const Entry& e, Cycle w) noexcept {
    const Cycle cw = w < e.hold ? w : e.hold;
    return e.value + (e.acc + (cw - e.start) * e.num) / e.den;
  }

  [[nodiscard]] bool empty() const noexcept { return entries_.size() == head_; }

  std::vector<Entry> entries_;
  std::size_t head_ = 0;  ///< first live entry; [0, head_) are pruned
};

}  // namespace araxl

#endif  // ARAXL_SIM_PIPE_HPP
