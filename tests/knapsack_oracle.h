// The 0/1 branch and bound that `SolveKnapsackBranchAndBound` replaced,
// kept as a test oracle: it branches on every item, so it explores every
// symmetric subset of equal-size items and, on partitioned-index slots,
// stops at its node cap. `test_knapsack` compares the production solver
// and `PackSlotsLp` with it: equal results wherever the oracle is optimal,
// and a gain no lower wherever it is capped. The bodies are the ones the
// packer ran before size classes existed, so keep them as they are.

#ifndef DFIM_TESTS_KNAPSACK_ORACLE_H_
#define DFIM_TESTS_KNAPSACK_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/knapsack.h"

namespace dfim::oracle {

constexpr double kKnapsackEps = 1e-9;

/// Items sorted by gain density (gain/size) descending; zero-size items
/// first (they are free value).
inline std::vector<KnapsackItem> ByDensity(
    const std::vector<KnapsackItem>& items) {
  std::vector<KnapsackItem> sorted = items;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const KnapsackItem& a, const KnapsackItem& b) {
                     bool az = a.size <= kKnapsackEps;
                     bool bz = b.size <= kKnapsackEps;
                     if (az != bz) return az;
                     if (az && bz) return a.gain > b.gain;
                     return a.gain / a.size > b.gain / b.size;
                   });
  return sorted;
}

/// Fractional (LP-relaxation) bound over `sorted[from..)` with remaining
/// capacity `cap`, assuming density order.
inline double FractionalBoundFrom(const std::vector<KnapsackItem>& sorted,
                                  size_t from, double cap) {
  double bound = 0;
  for (size_t i = from; i < sorted.size(); ++i) {
    const auto& it = sorted[i];
    if (it.gain <= 0) continue;
    if (it.size <= cap + kKnapsackEps) {
      bound += it.gain;
      cap -= it.size;
    } else if (it.size > kKnapsackEps) {
      bound += it.gain * (cap / it.size);
      break;
    }
  }
  return bound;
}

struct BbState {
  const std::vector<KnapsackItem>* sorted;
  double capacity;
  int64_t node_cap;
  int64_t nodes = 0;
  bool hit_cap = false;
  double best_gain = 0;
  std::vector<char> best_take;
  std::vector<char> take;
};

inline void BbSearch(BbState* st, size_t i, double used, double gain) {
  if (st->nodes >= st->node_cap) {
    st->hit_cap = true;
    return;
  }
  ++st->nodes;
  if (gain > st->best_gain + kKnapsackEps) {
    st->best_gain = gain;
    st->best_take = st->take;
  }
  if (i >= st->sorted->size()) return;
  double remaining = st->capacity - used;
  if (gain + FractionalBoundFrom(*st->sorted, i, remaining) <=
      st->best_gain + kKnapsackEps) {
    return;  // pruned by the LP relaxation bound
  }
  const auto& item = (*st->sorted)[i];
  // Branch: take first (density order makes this the promising branch).
  if (item.size <= remaining + kKnapsackEps && item.gain > 0) {
    st->take[i] = 1;
    BbSearch(st, i + 1, used + item.size, gain + item.gain);
    st->take[i] = 0;
  }
  BbSearch(st, i + 1, used, gain);
}

inline KnapsackResult FinishResult(const std::vector<KnapsackItem>& sorted,
                                   const std::vector<char>& take,
                                   int64_t nodes, bool optimal) {
  KnapsackResult r;
  r.nodes = nodes;
  r.optimal = optimal;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i < take.size() && take[i]) {
      r.chosen.push_back(sorted[i].id);
      r.total_gain += sorted[i].gain;
      r.total_size += sorted[i].size;
    }
  }
  return r;
}

inline KnapsackResult SolveKnapsackBranchAndBound(
    const std::vector<KnapsackItem>& items, double capacity,
    int64_t node_cap = 1 << 20) {
  auto sorted = ByDensity(items);
  BbState st;
  st.sorted = &sorted;
  st.capacity = capacity;
  st.node_cap = node_cap;
  st.take.assign(sorted.size(), 0);
  st.best_take.assign(sorted.size(), 0);
  BbSearch(&st, 0, 0.0, 0.0);
  KnapsackResult r = FinishResult(sorted, st.best_take, st.nodes, !st.hit_cap);
  if (st.hit_cap) {
    // Fall back to greedy if it beats the partial search.
    KnapsackResult g = SolveKnapsackGreedy(items, capacity);
    if (g.total_gain > r.total_gain) {
      g.nodes = r.nodes;
      g.optimal = false;
      return g;
    }
  }
  return r;
}

/// The per-slot packing loop over `SolveKnapsackBranchAndBound` above: one
/// density sort per slot and removal of the chosen ids by search. Sets
/// `*capped` when any slot's solve hit `node_cap`.
inline MultiSlotPacking PackSlotsLp(const std::vector<KnapsackItem>& items,
                                    const std::vector<double>& slot_sizes,
                                    int64_t node_cap, bool* capped) {
  *capped = false;
  std::vector<size_t> order(slot_sizes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&slot_sizes](size_t a, size_t b) {
                     return slot_sizes[a] > slot_sizes[b];
                   });

  MultiSlotPacking out;
  out.chosen.assign(slot_sizes.size(), {});
  std::vector<KnapsackItem> remaining = items;
  for (size_t s : order) {
    if (remaining.empty()) break;
    KnapsackResult r = oracle::SolveKnapsackBranchAndBound(
        remaining, slot_sizes[s], node_cap);
    if (!r.optimal) *capped = true;
    out.chosen[s] = r.chosen;
    out.total_gain += r.total_gain;
    std::vector<KnapsackItem> next;
    next.reserve(remaining.size());
    for (const auto& it : remaining) {
      if (std::find(r.chosen.begin(), r.chosen.end(), it.id) ==
          r.chosen.end()) {
        next.push_back(it);
      }
    }
    remaining = std::move(next);
  }
  for (const auto& it : remaining) out.unassigned.push_back(it.id);
  return out;
}

}  // namespace dfim::oracle

#endif  // DFIM_TESTS_KNAPSACK_ORACLE_H_
