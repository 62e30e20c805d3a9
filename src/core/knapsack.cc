#include "core/knapsack.h"

#include <algorithm>

namespace dfim {
namespace {

constexpr double kEps = 1e-9;

/// Items sorted by gain density (gain/size) descending; zero-size items
/// first (they are free value).
std::vector<KnapsackItem> ByDensity(const std::vector<KnapsackItem>& items) {
  std::vector<KnapsackItem> sorted = items;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const KnapsackItem& a, const KnapsackItem& b) {
                     bool az = a.size <= kEps;
                     bool bz = b.size <= kEps;
                     if (az != bz) return az;
                     if (az && bz) return a.gain > b.gain;
                     return a.gain / a.size > b.gain / b.size;
                   });
  return sorted;
}

/// Fractional (LP-relaxation) bound over `sorted[from..)` with remaining
/// capacity `cap`, assuming density order.
double FractionalBoundFrom(const std::vector<KnapsackItem>& sorted, size_t from,
                           double cap) {
  double bound = 0;
  for (size_t i = from; i < sorted.size(); ++i) {
    const auto& it = sorted[i];
    if (it.gain <= 0) continue;
    if (it.size <= cap + kEps) {
      bound += it.gain;
      cap -= it.size;
    } else if (it.size > kEps) {
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

void BbSearch(BbState* st, size_t i, double used, double gain) {
  if (st->nodes >= st->node_cap) {
    st->hit_cap = true;
    return;
  }
  ++st->nodes;
  if (gain > st->best_gain + kEps) {
    st->best_gain = gain;
    st->best_take = st->take;
  }
  if (i >= st->sorted->size()) return;
  double remaining = st->capacity - used;
  if (gain + FractionalBoundFrom(*st->sorted, i, remaining) <=
      st->best_gain + kEps) {
    return;  // pruned by the LP relaxation bound
  }
  const auto& item = (*st->sorted)[i];
  // Branch: take first (density order makes this the promising branch).
  if (item.size <= remaining + kEps && item.gain > 0) {
    st->take[i] = 1;
    BbSearch(st, i + 1, used + item.size, gain + item.gain);
    st->take[i] = 0;
  }
  BbSearch(st, i + 1, used, gain);
}

KnapsackResult FinishResult(const std::vector<KnapsackItem>& sorted,
                            const std::vector<char>& take, int64_t nodes,
                            bool optimal) {
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

}  // namespace

double KnapsackFractionalBound(const std::vector<KnapsackItem>& items,
                               double capacity) {
  auto sorted = ByDensity(items);
  return FractionalBoundFrom(sorted, 0, capacity);
}

KnapsackResult SolveKnapsackBranchAndBound(
    const std::vector<KnapsackItem>& items, double capacity,
    int64_t node_cap) {
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

KnapsackResult SolveKnapsackGreedy(const std::vector<KnapsackItem>& items,
                                   double capacity) {
  auto sorted = ByDensity(items);
  KnapsackResult r;
  double cap = capacity;
  for (const auto& it : sorted) {
    if (it.gain <= 0) continue;
    if (it.size <= cap + kEps) {
      r.chosen.push_back(it.id);
      r.total_gain += it.gain;
      r.total_size += it.size;
      cap -= it.size;
    }
  }
  return r;
}

MultiSlotPacking PackSlotsLp(const std::vector<KnapsackItem>& items,
                             const std::vector<double>& slot_sizes) {
  // Slots processed in decreasing size order (Algorithm 2, line 9), but the
  // result keeps the caller's slot indexing.
  std::vector<size_t> order(slot_sizes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&slot_sizes](size_t a, size_t b) {
    return slot_sizes[a] > slot_sizes[b];
  });

  MultiSlotPacking out;
  out.chosen.assign(slot_sizes.size(), {});
  std::vector<KnapsackItem> remaining = items;
  for (size_t s : order) {
    if (remaining.empty()) break;
    KnapsackResult r =
        SolveKnapsackBranchAndBound(remaining, slot_sizes[s]);
    out.chosen[s] = r.chosen;
    out.total_gain += r.total_gain;
    // Remove chosen from remaining.
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

MultiSlotPacking PackSlotsGraham(const std::vector<KnapsackItem>& items,
                                 const std::vector<double>& slot_sizes) {
  // §6.4: order operators by descending execution time and place each into
  // the idle segment with the most remaining time.
  std::vector<KnapsackItem> sorted = items;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const KnapsackItem& a, const KnapsackItem& b) {
                     return a.size > b.size;
                   });
  std::vector<double> remaining = slot_sizes;
  MultiSlotPacking out;
  out.chosen.assign(slot_sizes.size(), {});
  for (const auto& it : sorted) {
    size_t best = remaining.size();
    for (size_t s = 0; s < remaining.size(); ++s) {
      if (best == remaining.size() || remaining[s] > remaining[best]) best = s;
    }
    if (best == remaining.size() || remaining[best] + kEps < it.size) {
      out.unassigned.push_back(it.id);
      continue;
    }
    out.chosen[best].push_back(it.id);
    out.total_gain += it.gain;
    remaining[best] -= it.size;
  }
  return out;
}

double PackSlotsUpperBound(const std::vector<KnapsackItem>& items,
                           const std::vector<double>& slot_sizes) {
  double total = 0;
  for (double s : slot_sizes) total += s;
  return SolveKnapsackBranchAndBound(items, total).total_gain;
}

}  // namespace dfim
