#ifndef DFIM_SCHED_TIMELINE_H_
#define DFIM_SCHED_TIMELINE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"

namespace dfim {

/// \brief One operator placed on a container for an estimated time window.
struct Assignment {
  int op_id = 0;
  int container = 0;
  Seconds start = 0;
  Seconds end = 0;
  /// Mirrors Operator::optional (build-index ops).
  bool optional = false;

  Seconds duration() const { return end - start; }
};

/// \brief An idle slot f(id, q, c, S): a maximal operator-free interval
/// inside one leased quantum of one container (paper §3).
struct IdleSlot {
  int container = 0;
  /// Zero-based quantum index within the schedule.
  int64_t quantum_index = 0;
  Seconds start = 0;
  Seconds end = 0;

  Seconds size() const { return end - start; }
};

/// \brief One container's timeline: the sorted assignment sequence stored as
/// flat structure-of-arrays columns (starts / ends / op ids / flags), plus
/// incrementally maintained lease summaries.
///
/// This is the single source of truth for gap semantics: the skyline
/// schedulers probe and commit placements on it, the interleaver enumerates
/// its idle slots, and the execution simulator settles busy/lease accounting
/// from it — so scheduling, interleaving and simulation can never disagree
/// about where a gap starts or how a lease tail is charged.
///
/// Layout & invariants:
///  - Entries are sorted by start; Insert places a new entry *before* any
///    existing equal start (lower-bound position), matching the scheduler's
///    historical InsertSorted semantics.
///  - `last_end()` is the running max over entry ends (the lease high-water
///    mark), maintained O(1) per insert; `Quanta()` derives from it in O(1).
///  - `interior gap` semantics use a running max cursor over ends, so the
///    walks are well defined even for overlapping entries; for the
///    non-overlapping timelines the schedulers produce, the cursor equals
///    the previous entry's end.
///  - All scans are branch-light loops over the flat start/end columns
///    (auto-vectorizer friendly), bit-identical to the retained scalar
///    reference walks (selection-only float ops: max/compare/subtract of
///    identical operands), which tests/test_timeline.cc asserts per seeded
///    timeline.
class Timeline {
 public:
  Timeline() = default;

  bool empty() const { return starts_.empty(); }
  size_t size() const { return starts_.size(); }
  void clear();
  void reserve(size_t n);

  Seconds start(size_t i) const { return starts_[i]; }
  Seconds end(size_t i) const { return ends_[i]; }
  int op_id(size_t i) const { return op_ids_[i]; }
  bool optional(size_t i) const { return optional_[i] != 0; }
  /// Materializes entry `i` as an Assignment on `container` (the timeline
  /// itself is container-agnostic; the owner supplies the index).
  Assignment At(size_t i, int container) const;

  /// Latest assignment end (0 for an empty timeline) — the lease
  /// high-water mark, maintained incrementally.
  Seconds last_end() const { return last_end_; }

  /// Inserts keeping the timeline sorted by start (before equal starts).
  /// Updates the lease/gap summaries; the interior-gap refresh is one flat
  /// rescan, the same O(n) the positional insert already pays.
  void Insert(const Assignment& a);

  /// \brief Earliest feasible start >= `est` of a `duration`-long interval
  /// on the timeline (gap insertion). Returns the start time.
  Seconds FindSlot(Seconds est, Seconds duration) const;

  /// \brief FindSlot restricted to already-paid time: the interval must also
  /// end by `bound` (e.g. the container's charged lease end). Returns
  /// nullopt when no such slot exists. Because FirstFit yields the earliest
  /// feasible candidate and candidates are non-decreasing across later
  /// gaps, one bound check on the first fit decides feasibility exactly.
  /// This is how speculation keeps clones marginal-cost-zero (DESIGN.md §9).
  std::optional<Seconds> FindSlotBounded(Seconds est, Seconds duration,
                                         Seconds bound) const;

  /// Leased quanta: 0 when empty, else at least 1. O(1) from last_end().
  int64_t Quanta(Seconds quantum) const;

  /// Largest idle gap, including the paid lease tail (0 when empty). O(1)
  /// from the maintained interior-gap summary.
  Seconds MaxGap(Seconds quantum) const;

  /// MaxGap with `a` virtually inserted at its sorted position —
  /// bit-identical to Insert + MaxGap, without touching the timeline.
  Seconds MaxGapWithInsert(const Assignment& a, Seconds quantum) const;

  /// \brief Appends this container's idle slots — maximal operator-free
  /// intervals inside leased quanta, split at quantum boundaries — to
  /// `out`, ordered by start (paper §3 fragmentation).
  ///
  /// This is the shared gap walk: Schedule::FindIdleSlots (and through it
  /// the LP interleaver's knapsack packing) delegates here.
  void AppendIdleSlots(int container, Seconds quantum,
                       std::vector<IdleSlot>* out) const;

  /// Total busy seconds (sum of entry durations, in timeline order).
  Seconds BusySeconds() const;

  /// True when no two entries overlap and all durations are non-negative.
  bool NoOverlap() const;

  /// Raw columns (microbenches / tests).
  const std::vector<Seconds>& starts() const { return starts_; }
  const std::vector<Seconds>& ends() const { return ends_; }

 private:
  /// First index whose start is >= `s` (the Insert position).
  size_t LowerBound(Seconds s) const;

  /// Columnar storage, sorted by start.
  std::vector<Seconds> starts_;
  std::vector<Seconds> ends_;
  std::vector<int32_t> op_ids_;
  std::vector<uint8_t> optional_;
  /// \name Incrementally maintained summaries.
  /// @{
  /// max over entry ends (0 when empty).
  Seconds last_end_ = 0;
  /// max over entries of start[i] - cursor(i), cursor = running max of ends
  /// (0 when empty) — the quantum-independent part of MaxGap.
  Seconds interior_gap_ = 0;
  /// @}
};

namespace timeline_internal {

// The kernels live inline in this header so the scheduler's probe loop and
// the bench harness both inline them — an out-of-line call per probe costs
// more than the scan itself on the short timelines one dataflow produces.

/// \brief The core gap-scan kernel over flat columns: returns the max over
/// i in [0, n) of starts[i] - cursor(i) (0 when none is larger), where
/// cursor(i) is the running max of ends before i (starting at 0).
/// Branch-light.
inline Seconds GapScan(const Seconds* starts, const Seconds* ends, size_t n) {
  Seconds c = 0;
  Seconds b = 0;
  size_t i = 0;
  // Unrolled 4-wide: the cursor recurrence c = max(c, e) is a serial chain,
  // but pairwise end-maxes are off-chain, so precomputing the block prefix
  // (p01, p012) cuts the carried dependency to one max per 4 elements.
  // Selection-only float ops — bit-identical to the plain loop.
  Seconds b0 = b, b1 = b, b2 = b, b3 = b;
  for (; i + 4 <= n; i += 4) {
    Seconds e0 = ends[i], e1 = ends[i + 1], e2 = ends[i + 2], e3 = ends[i + 3];
    Seconds p01 = std::max(e0, e1);
    Seconds p012 = std::max(p01, e2);
    b0 = std::max(b0, starts[i] - c);
    b1 = std::max(b1, starts[i + 1] - std::max(c, e0));
    b2 = std::max(b2, starts[i + 2] - std::max(c, p01));
    b3 = std::max(b3, starts[i + 3] - std::max(c, p012));
    c = std::max(c, std::max(p012, e3));
  }
  b = std::max(std::max(b0, b1), std::max(b2, b3));
  for (; i < n; ++i) {
    b = std::max(b, starts[i] - c);
    c = std::max(c, ends[i]);
  }
  return b;
}

/// \brief Gap insertion over flat columns: finds the first index i in
/// [0, n) with starts[i] - max(est, cursor(i)) >= duration - 1e-9, where
/// cursor(i) is the running max of ends before i (starting at 0), and
/// returns cursor(i) — or the max of all ends when no entry fits. The
/// earliest feasible start is then max(est, result).
inline Seconds FirstFit(const Seconds* starts, const Seconds* ends, size_t n,
                        Seconds est, Seconds duration) {
  Seconds c = 0;
  const Seconds thr = duration - 1e-9;
  size_t i = 0;
  // Unrolled 4-wide like GapScan: per-lane cursors come off the block
  // prefix, the four fit tests are branch-free, and a hit falls through to
  // the exact per-lane cursor — identical returns to the plain loop below.
  for (; i + 4 <= n; i += 4) {
    Seconds e0 = ends[i], e1 = ends[i + 1], e2 = ends[i + 2], e3 = ends[i + 3];
    Seconds p01 = std::max(e0, e1);
    Seconds p012 = std::max(p01, e2);
    Seconds c0 = c;
    Seconds c1 = std::max(c, e0);
    Seconds c2 = std::max(c, p01);
    Seconds c3 = std::max(c, p012);
    bool f0 = starts[i] - std::max(est, c0) >= thr;
    bool f1 = starts[i + 1] - std::max(est, c1) >= thr;
    bool f2 = starts[i + 2] - std::max(est, c2) >= thr;
    bool f3 = starts[i + 3] - std::max(est, c3) >= thr;
    if (f0 | f1 | f2 | f3) {
      if (f0) return c0;
      if (f1) return c1;
      if (f2) return c2;
      return c3;
    }
    c = std::max(c, std::max(p012, e3));
  }
  for (; i < n; ++i) {
    if (starts[i] - std::max(est, c) >= thr) return c;
    c = std::max(c, ends[i]);
  }
  return c;
}

}  // namespace timeline_internal

inline size_t Timeline::LowerBound(Seconds s) const {
  return static_cast<size_t>(
      std::lower_bound(starts_.begin(), starts_.end(), s) - starts_.begin());
}

inline Seconds Timeline::FindSlot(Seconds est, Seconds duration) const {
  return std::max(est, timeline_internal::FirstFit(starts_.data(), ends_.data(),
                                                   starts_.size(), est,
                                                   duration));
}

inline std::optional<Seconds> Timeline::FindSlotBounded(Seconds est,
                                                        Seconds duration,
                                                        Seconds bound) const {
  Seconds start = FindSlot(est, duration);
  if (start + duration <= bound + 1e-9) return start;
  return std::nullopt;
}

inline int64_t Timeline::Quanta(Seconds quantum) const {
  if (empty()) return 0;
  return std::max<int64_t>(1, QuantaCeil(last_end_, quantum));
}

inline Seconds Timeline::MaxGap(Seconds quantum) const {
  if (empty()) return 0;
  Seconds lease_end =
      static_cast<double>(std::max<int64_t>(1, QuantaCeil(last_end_, quantum))) *
      quantum;
  return std::max(interior_gap_, lease_end - last_end_);
}

inline Seconds Timeline::MaxGapWithInsert(const Assignment& a,
                                          Seconds quantum) const {
  Seconds best = 0;
  Seconds cursor = 0;
  // Fold the virtual entry into a single fused pass — a separate binary
  // search costs as much as the scan itself on the short timelines one
  // dataflow produces, and its branches don't predict.
  // `ss[i] >= a.start` first fires exactly at the lower-bound position, so
  // this folds the virtual entry where Insert would put it.
  const Seconds* ss = starts_.data();
  const Seconds* es = ends_.data();
  const size_t n = starts_.size();
  bool placed = false;
  for (size_t i = 0; i < n; ++i) {
    if (!placed && ss[i] >= a.start) {
      best = std::max(best, a.start - cursor);
      cursor = std::max(cursor, a.end);
      placed = true;
    }
    best = std::max(best, ss[i] - cursor);
    cursor = std::max(cursor, es[i]);
  }
  if (!placed) {
    best = std::max(best, a.start - cursor);
    cursor = std::max(cursor, a.end);
  }
  Seconds lease_end =
      static_cast<double>(std::max<int64_t>(1, QuantaCeil(cursor, quantum))) *
      quantum;
  return std::max(best, lease_end - cursor);
}

}  // namespace dfim

#endif  // DFIM_SCHED_TIMELINE_H_
