#ifndef DFIM_SCHED_PARTIAL_STATE_H_
#define DFIM_SCHED_PARTIAL_STATE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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

/// \brief A partial schedule in a skyline search, with per-container money
/// and idle-gap summaries cached so evaluating a candidate placement never
/// rescans containers it does not touch.
struct PartialState {
  /// Per-container sorted, non-overlapping assignments (SoA Timelines with
  /// incrementally maintained lease/gap summaries).
  std::vector<Timeline> timelines;
  /// Per-container sorted list of producer ops whose output has already
  /// been staged there (an output is transferred once per container and
  /// then served from local disk — paper §3/§6.1 caching).
  std::vector<std::vector<int>> delivered;
  /// Finish time per op id (-1 when unassigned).
  std::vector<Seconds> op_finish;
  /// Container per op id (-1 when unassigned).
  std::vector<int> op_container;
  /// \name Cached per-container summaries, refreshed at commit.
  /// @{
  /// Latest assignment end per container (0 for an empty timeline).
  std::vector<Seconds> last_end;
  /// Leased quanta per container (0 for an empty timeline).
  std::vector<int64_t> quanta;
  /// Largest idle gap per container, including the paid lease tail.
  std::vector<Seconds> gap;
  /// @}
  Seconds makespan = 0;  // mandatory ops only
  int64_t money = 0;     // leased quanta summed over containers
  int num_ops = 0;
  /// Largest contiguous idle gap (tie-break: most sequential idle time).
  Seconds max_gap = 0;

  /// Resets to the empty schedule over `num_dag_ops` operators.
  void Reset(size_t num_dag_ops);
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
/// `base` (= skyline[base_idx]) onto container `c`.
///
/// Computes start/end, money, makespan and max-gap deltas from the touched
/// container's timeline plus the cached summaries only — no state is
/// copied. Returns false (leaving *out marked invalid) when the placement
/// is infeasible or, for optional ops, when it would extend any lease
/// (paper §5.3.2: such schedules are dominated and dropped).
bool ProbePlacement(const PartialState& base, int base_idx, const Dag& dag,
                    const Operator& op, Seconds dur, int c, Seconds quantum,
                    double net, PlacementProbe* out);

/// Materializes the child described by a surviving probe: one copy of the
/// base plus an O(touched timeline) cache refresh.
void CommitPlacement(const PartialState& base, const Dag& dag,
                     const PlacementProbe& probe, Seconds quantum,
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
  std::vector<T> sampled;
  sampled.reserve(static_cast<size_t>(cap));
  double step = static_cast<double>(kept->size() - 1) /
                static_cast<double>(cap - 1);
  size_t prev = std::numeric_limits<size_t>::max();
  for (int i = 0; i < cap; ++i) {
    auto idx = static_cast<size_t>(std::llround(i * step));
    if (idx == prev) continue;
    sampled.push_back(std::move((*kept)[idx]));
    prev = idx;
  }
  *kept = std::move(sampled);
}

/// \brief Non-dominated filtering on (makespan, money) with deterministic
/// tie-breaks: more ops first (optional-op preference), then larger
/// sequential idle gap (§5.3.1), capped at `cap` evenly spaced survivors.
///
/// Works on anything exposing makespan/money/num_ops/max_gap members
/// (PlacementProbe here, PartialState for the copy-everything test oracle),
/// so both engines prune with byte-identical semantics.
/// Equal-(makespan, money) duplicates are filtered *before* dominance and
/// cap sampling, so they can never crowd out distinct trade-off points.
template <typename T>
void SkylinePrune(std::vector<T>* pool, int cap) {
  std::stable_sort(pool->begin(), pool->end(), [](const T& a, const T& b) {
    if (std::fabs(a.makespan - b.makespan) > 1e-9) {
      return a.makespan < b.makespan;
    }
    if (a.money != b.money) return a.money < b.money;
    if (a.num_ops != b.num_ops) return a.num_ops > b.num_ops;
    return a.max_gap > b.max_gap;
  });
  std::vector<T> kept;
  kept.reserve(pool->size());
  int64_t best_money = std::numeric_limits<int64_t>::max();
  for (auto& p : *pool) {
    // Duplicate of the previous survivor on both axes: the sort already put
    // the preferred candidate (more ops, larger gap) first.
    if (!kept.empty() && TimeEq(kept.back().makespan, p.makespan) &&
        kept.back().money == p.money) {
      continue;
    }
    // Sorted by makespan ascending, so anything not strictly cheaper than
    // every faster survivor is dominated.
    if (p.money >= best_money) continue;
    kept.push_back(std::move(p));
    best_money = kept.back().money;
  }
  SampleEvenlySpaced(&kept, cap);
  *pool = std::move(kept);
}

}  // namespace dfim

#endif  // DFIM_SCHED_PARTIAL_STATE_H_
