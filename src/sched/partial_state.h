#ifndef DFIM_SCHED_PARTIAL_STATE_H_
#define DFIM_SCHED_PARTIAL_STATE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "dataflow/dag.h"
#include "sched/schedule.h"

namespace dfim {

/// \brief Options plugged into the schedulers (paper: "a pricing model is
/// plugged to the scheduler").
struct SchedulerOptions {
  /// Maximum containers a schedule may use (Table 3: 100).
  int max_containers = 100;
  /// Pricing quantum TQ in seconds.
  Seconds quantum = 60.0;
  /// Network bandwidth between containers / storage (1 Gbps = 125 MB/s).
  double net_mb_per_sec = 125.0;
  /// Maximum number of non-dominated partial schedules kept per iteration.
  /// The skyline is capped for tractability (the underlying scheduler of
  /// the paper's reference [12] prunes the same way); capping keeps the
  /// evenly-spaced representatives along the time axis.
  int skyline_cap = 8;
};

/// `opts` planned within a fleet of `bound` containers: a positive bound
/// narrows max_containers to it when smaller; 0 keeps the configured cap.
inline SchedulerOptions WithinFleet(SchedulerOptions opts, int bound) {
  if (bound > 0) opts.max_containers = std::min(opts.max_containers, bound);
  return opts;
}

/// \brief One container of a partial schedule in a skyline search.
struct ContainerRecord {
  /// Sorted, non-overlapping assignments (SoA Timeline with incrementally
  /// maintained lease/gap summaries).
  Timeline timeline;
  /// Sorted list of producer ops whose output has already been staged here
  /// (an output is transferred once per container and then served from
  /// local disk — paper §3/§6.1 caching).
  std::vector<int> delivered;
};

/// \brief A partial schedule in a skyline search: its containers as
/// records of the search's ContainerArena, plus the per-op placement and
/// the per-container idle-gap summary a probe reads without touching the
/// containers it does not place on.
struct PartialState {
  /// ContainerArena record id per used container.
  std::vector<int> containers;
  /// Largest idle gap per container, including the paid lease tail.
  std::vector<Seconds> gap;
  /// Finish time per op id (-1 when unassigned).
  std::vector<Seconds> op_finish;
  /// Container per op id (-1 when unassigned).
  std::vector<int> op_container;
  Seconds makespan = 0;  // mandatory ops only
  int64_t money = 0;     // leased quanta summed over containers
  int num_ops = 0;
  /// Largest contiguous idle gap (tie-break: most sequential idle time).
  Seconds max_gap = 0;

  /// Resets to the empty schedule over `num_dag_ops` operators.
  void Reset(size_t num_dag_ops);
};

/// \brief The container records of one skyline search, shared by its
/// partial states.
///
/// A state names each of its containers by record id, so states that
/// agree on a container share its record. A commit copies only the
/// container it touches into a free record (`Clone`). Records are not
/// freed one by one: after each round `Collect` returns every record that
/// no live state names to the free list. A reused record keeps its
/// vectors' capacity, so in steady state a commit makes no heap
/// allocation.
class ContainerArena {
 public:
  /// `Clone`'s source for a container the base does not use yet.
  static constexpr int kFresh = -1;

  const ContainerRecord& operator[](int id) const {
    return records_[static_cast<size_t>(id)];
  }
  ContainerRecord& at(int id) { return records_[static_cast<size_t>(id)]; }

  /// Takes a free record, makes it a copy of record `src` (an empty
  /// record when `src` is kFresh) and returns its id.
  int Clone(int src);

  /// Frees every record that none of `states[0, n)` names.
  void Collect(const PartialState* states, size_t n);

 private:
  std::vector<ContainerRecord> records_;
  std::vector<int> free_;
  /// Collect's mark per record (kept to reuse its capacity).
  std::vector<uint8_t> live_;
};

/// \brief A probed candidate placement: every dominance-relevant metric of
/// the would-be child state, computed against the base without copying it.
///
/// Trivially copyable on purpose — probe pools are reused across expansion
/// rounds with zero per-candidate allocation. Newly staged producers are
/// recorded inline up to kInlineDelivered; beyond that the commit step
/// recomputes them (rare: an op with > kInlineDelivered unstaged
/// cross-container parents).
struct PlacementProbe {
  static constexpr int kKeepBase = -1;
  static constexpr int kInlineDelivered = 8;

  /// Index of the base state in the current skyline.
  int base = 0;
  /// Target container, or kKeepBase for the pass-through candidate offered
  /// when optional ops may be skipped.
  int container = kKeepBase;
  int op_id = -1;
  bool optional = false;
  bool valid = false;
  Seconds start = 0;
  Seconds end = 0;
  /// \name Metrics of the child state (used by the skyline prune).
  /// @{
  Seconds makespan = 0;
  int64_t money = 0;
  int num_ops = 0;
  Seconds max_gap = 0;
  /// @}
  /// The touched container's new gap summary (cached for the commit).
  Seconds gap_c = 0;
  /// Producers newly staged on `container`; n_newly > kInlineDelivered
  /// means the inline list overflowed and the commit recomputes the set.
  int n_newly = 0;
  int newly[kInlineDelivered] = {0};
};

/// \brief Probes placing `op` (effective duration `dur`) from
/// `base` (= skyline[base_idx], its containers in `arena`) onto container
/// `c`.
///
/// Computes start/end, money, makespan and max-gap deltas from the touched
/// container's record plus the per-container gaps only — no state is
/// copied. Returns false (leaving *out marked invalid) when the placement
/// is infeasible or, for optional ops, when it would extend any lease
/// (paper §5.3.2: such schedules are dominated and dropped).
bool ProbePlacement(const PartialState& base, const ContainerArena& arena,
                    int base_idx, const Dag& dag, const Operator& op,
                    Seconds dur, int c, Seconds quantum, double net,
                    PlacementProbe* out);

/// \brief Writes the child described by a surviving probe into `out`, a
/// pooled slot whose vectors keep their capacity.
///
/// Copies the base's per-op and per-container scalars, then the touched
/// container alone into a record cloned from the base's; every other
/// container stays shared with the base.
void CommitPlacement(const PartialState& base, const Dag& dag,
                     const PlacementProbe& probe, ContainerArena* arena,
                     PartialState* out);

/// \brief Caps `kept` at `cap` evenly spaced survivors, always including
/// the first (fastest) and last (cheapest) endpoints.
template <typename T>
void SampleEvenlySpaced(std::vector<T>* kept, int cap) {
  if (cap <= 0 || static_cast<int>(kept->size()) <= cap) return;
  if (cap == 1) {
    // The step below would divide by zero (0 * inf -> NaN -> llround UB);
    // a cap of one keeps the fastest endpoint.
    kept->erase(kept->begin() + 1, kept->end());
    return;
  }
  // The sampled indices increase and never fall behind the write position,
  // so the samples compact in place.
  double step = static_cast<double>(kept->size() - 1) /
                static_cast<double>(cap - 1);
  size_t prev = std::numeric_limits<size_t>::max();
  size_t w = 0;
  for (int i = 0; i < cap; ++i) {
    auto idx = static_cast<size_t>(std::llround(i * step));
    if (idx == prev) continue;
    if (idx != w) (*kept)[w] = std::move((*kept)[idx]);
    ++w;
    prev = idx;
  }
  kept->erase(kept->begin() + static_cast<std::ptrdiff_t>(w), kept->end());
}

/// \brief Non-dominated filtering on (makespan, money) with deterministic
/// tie-breaks: more ops first (optional-op preference), then larger
/// sequential idle gap (§5.3.1), capped at `cap` evenly spaced survivors.
///
/// Works on anything exposing makespan/money/num_ops/max_gap members
/// (PlacementProbe here, the copy-everything test oracle's states), so both
/// engines prune with byte-identical semantics. The stable sort orders the
/// positions in `*order` (reused across calls), not the elements; the
/// survivors are then gathered in place to the front of `*pool`.
/// Equal-(makespan, money) duplicates are filtered *before* dominance and
/// cap sampling, so they can never crowd out distinct trade-off points.
template <typename T>
void SkylinePrune(std::vector<T>* pool, int cap, std::vector<uint32_t>* order) {
  std::vector<T>& v = *pool;
  order->resize(v.size());
  for (size_t i = 0; i < v.size(); ++i) (*order)[i] = static_cast<uint32_t>(i);
  std::stable_sort(order->begin(), order->end(), [&v](uint32_t ia,
                                                      uint32_t ib) {
    const T& a = v[ia];
    const T& b = v[ib];
    if (std::fabs(a.makespan - b.makespan) > 1e-9) {
      return a.makespan < b.makespan;
    }
    if (a.money != b.money) return a.money < b.money;
    if (a.num_ops != b.num_ops) return a.num_ops > b.num_ops;
    return a.max_gap > b.max_gap;
  });
  std::vector<uint32_t>& o = *order;
  size_t w = 0;
  int64_t best_money = std::numeric_limits<int64_t>::max();
  for (size_t r = 0; r < o.size(); ++r) {
    const T& cand = v[o[r]];
    // Duplicate of the previous survivor on both axes: the sort already put
    // the preferred candidate (more ops, larger gap) first.
    if (w > 0 && TimeEq(v[o[w - 1]].makespan, cand.makespan) &&
        v[o[w - 1]].money == cand.money) {
      continue;
    }
    // Sorted by makespan ascending, so anything not strictly cheaper than
    // every faster survivor is dominated.
    if (cand.money >= best_money) continue;
    best_money = cand.money;
    o[w++] = o[r];
  }
  o.resize(w);
  SampleEvenlySpaced(order, cap);
  // Gather v[o[j]] into v[j]. Step j swaps the wanted element in from its
  // current position and records that position in o[j]: an element first
  // at p < j was moved to o[p] at step p, perhaps again from there.
  for (size_t j = 0; j < o.size(); ++j) {
    size_t src = o[j];
    while (src < j) src = o[src];
    o[j] = static_cast<uint32_t>(src);
    if (src != j) std::swap(v[j], v[src]);
  }
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(o.size()), v.end());
}

/// \brief `SkylinePrune` with call-local sort positions.
template <typename T>
void SkylinePrune(std::vector<T>* pool, int cap) {
  std::vector<uint32_t> order;
  SkylinePrune(pool, cap, &order);
}

}  // namespace dfim

#endif  // DFIM_SCHED_PARTIAL_STATE_H_
