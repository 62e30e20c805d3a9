#include "core/knapsack.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace dfim {
namespace {

constexpr double kEps = 1e-9;

/// Positions of `items` in gain-density (gain/size) descending order;
/// zero-size items first (they are free value), by gain. The comparator is
/// a strict weak ordering, so the stable order of a subsequence is the
/// subsequence of the stable order.
std::vector<size_t> DensityOrder(const std::vector<KnapsackItem>& items) {
  struct Key {
    bool zero;
    double value;  // gain for zero-size items, else gain/size
  };
  std::vector<Key> key(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const KnapsackItem& it = items[i];
    bool zero = it.size <= kEps;
    key[i] = {zero, zero ? it.gain : it.gain / it.size};
  }
  std::vector<size_t> order(items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&key](size_t a, size_t b) {
    if (key[a].zero != key[b].zero) return key[a].zero;
    return key[a].value > key[b].value;
  });
  return order;
}

std::vector<KnapsackItem> ByDensity(const std::vector<KnapsackItem>& items) {
  std::vector<KnapsackItem> sorted;
  sorted.reserve(items.size());
  for (size_t i : DensityOrder(items)) sorted.push_back(items[i]);
  return sorted;
}

/// Numbers the size classes of `items`: items whose sizes are bit-identical
/// share a class. One pass over an open-addressing table of size bits.
std::vector<int> SizeClasses(const std::vector<KnapsackItem>& items) {
  size_t slots = 2;
  while (slots < 2 * items.size()) slots <<= 1;
  std::vector<std::pair<uint64_t, int>> table(slots, {0, -1});
  std::vector<int> cls(items.size());
  int next = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const auto bits = std::bit_cast<uint64_t>(items[i].size);
    size_t h = static_cast<size_t>((bits * 0x9E3779B97F4A7C15ULL) >> 32) &
               (slots - 1);
    while (table[h].second >= 0 && table[h].first != bits) {
      h = (h + 1) & (slots - 1);
    }
    if (table[h].second < 0) table[h] = {bits, next++};
    cls[i] = table[h].second;
  }
  return cls;
}

/// For each position of `sorted`, the end of its run of copies: the first
/// later position whose size or gain differs. Copies share a class and a
/// gain, so the search closes or opens them together.
std::vector<size_t> RunEnds(const std::vector<KnapsackItem>& sorted) {
  std::vector<size_t> end(sorted.size());
  for (size_t i = sorted.size(); i-- > 0;) {
    bool copy = i + 1 < sorted.size() &&
                std::bit_cast<uint64_t>(sorted[i].size) ==
                    std::bit_cast<uint64_t>(sorted[i + 1].size) &&
                std::bit_cast<uint64_t>(sorted[i].gain) ==
                    std::bit_cast<uint64_t>(sorted[i + 1].gain);
    end[i] = copy ? end[i + 1] : i + 1;
  }
  return end;
}

/// Per-call search tables over density-sorted items. `closed_at[c]` is the
/// largest gain the current path has skipped in size class c (0 at the
/// root, since non-positive gains are never taken); an item is open only
/// when its gain is above its class's value.
struct SearchTables {
  const std::vector<KnapsackItem>* sorted;
  const std::vector<int>* cls;
  std::vector<size_t> run_end;
  std::vector<double> closed_at;

  /// `classes[i]` is the size class (>= 0) of `items[i]`.
  SearchTables(const std::vector<KnapsackItem>& items,
               const std::vector<int>& classes)
      : sorted(&items), cls(&classes), run_end(RunEnds(items)) {
    int num_classes = 0;
    for (int c : classes) num_classes = std::max(num_classes, c + 1);
    closed_at.assign(static_cast<size_t>(num_classes), 0.0);
  }

  double& ClosedAt(size_t i) {
    return closed_at[static_cast<size_t>((*cls)[i])];
  }
  bool Open(size_t i) const {
    return (*sorted)[i].gain > closed_at[static_cast<size_t>((*cls)[i])];
  }
  /// The first open position at or after `i` (size() when none).
  size_t NextOpen(size_t i) const {
    while (i < sorted->size() && !Open(i)) i = run_end[i];
    return i;
  }
};

/// Fractional (LP-relaxation) bound over the open items of `sorted[from..)`
/// with remaining capacity `cap`, assuming density order.
double FractionalBoundFrom(const SearchTables& t, size_t from, double cap) {
  const std::vector<KnapsackItem>& sorted = *t.sorted;
  double bound = 0;
  for (size_t i = t.NextOpen(from); i < sorted.size();
       i = t.NextOpen(i + 1)) {
    const auto& it = sorted[i];
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

/// Depth-first search, take branch first, over density-sorted items.
///
/// Size-class dominance: items of one class have the same size, so once
/// the path skips an item of gain g, taking a later item of that class
/// with gain <= g is weakly dominated by taking the skipped one instead,
/// and the take branch has already visited that swap. So skipping an item
/// raises its class's `closed_at` to its gain, and closed items are neither
/// taken nor counted in the bound. Repeated swaps turn any optimal subset
/// into one that respects these limits, so the search stays exact and no
/// longer enumerates the symmetric subsets of a partitioned index's
/// identical build ops.
struct BbState {
  SearchTables* t;
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
  // Closed items can only be skipped, which changes neither the gain nor
  // the bound, so the search passes over them.
  SearchTables& t = *st->t;
  i = t.NextOpen(i);
  if (i >= t.sorted->size()) return;
  double remaining = st->capacity - used;
  if (gain + FractionalBoundFrom(t, i, remaining) <= st->best_gain + kEps) {
    return;  // pruned by the LP relaxation bound
  }
  const auto& item = (*t.sorted)[i];
  // Branch: take first (density order makes this the promising branch).
  if (item.size <= remaining + kEps) {
    st->take[i] = 1;
    BbSearch(st, i + 1, used + item.size, gain + item.gain);
    st->take[i] = 0;
  }
  // Skipping closes the class up to this gain.
  double& closed = t.ClosedAt(i);
  const double was = closed;
  closed = item.gain;
  BbSearch(st, i + 1, used, gain);
  closed = was;
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

/// The density greedy over `sorted`; marks what it takes in `*take`.
KnapsackResult GreedySorted(const std::vector<KnapsackItem>& sorted,
                            double capacity, std::vector<char>* take) {
  take->assign(sorted.size(), 0);
  double cap = capacity;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const auto& it = sorted[i];
    if (it.gain <= 0) continue;
    if (it.size <= cap + kEps) {
      (*take)[i] = 1;
      cap -= it.size;
    }
  }
  return FinishResult(sorted, *take, 0, true);
}

/// Branch and bound over items already in `DensityOrder`, with their size
/// classes; marks the chosen positions in `*take`. Past `node_cap` the
/// better of the best-so-far and the greedy is returned with optimal =
/// false.
KnapsackResult SolveSorted(const std::vector<KnapsackItem>& sorted,
                           const std::vector<int>& classes, double capacity,
                           int64_t node_cap, std::vector<char>* take) {
  SearchTables tables(sorted, classes);
  BbState st;
  st.t = &tables;
  st.capacity = capacity;
  st.node_cap = node_cap;
  st.take.assign(sorted.size(), 0);
  st.best_take.assign(sorted.size(), 0);
  BbSearch(&st, 0, 0.0, 0.0);
  KnapsackResult r = FinishResult(sorted, st.best_take, st.nodes, !st.hit_cap);
  if (st.hit_cap) {
    // Fall back to greedy if it beats the partial search.
    KnapsackResult g = GreedySorted(sorted, capacity, take);
    if (g.total_gain > r.total_gain) {
      g.nodes = r.nodes;
      g.optimal = false;
      return g;
    }
  }
  *take = std::move(st.best_take);
  return r;
}

}  // namespace

double KnapsackFractionalBound(const std::vector<KnapsackItem>& items,
                               double capacity) {
  const std::vector<KnapsackItem> sorted = ByDensity(items);
  const std::vector<int> one_class(sorted.size(), 0);
  return FractionalBoundFrom(SearchTables(sorted, one_class), 0, capacity);
}

KnapsackResult SolveKnapsackBranchAndBound(
    const std::vector<KnapsackItem>& items, double capacity,
    int64_t node_cap) {
  const std::vector<KnapsackItem> sorted = ByDensity(items);
  std::vector<char> take;
  return SolveSorted(sorted, SizeClasses(sorted), capacity, node_cap, &take);
}

KnapsackResult SolveKnapsackGreedy(const std::vector<KnapsackItem>& items,
                                   double capacity) {
  std::vector<char> take;
  return GreedySorted(ByDensity(items), capacity, &take);
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
  // One density sort per call: each slot solves the still-unassigned
  // subsequence of it, which is what sorting the remaining items would give.
  const std::vector<size_t> by_density = DensityOrder(items);
  const std::vector<int> classes = SizeClasses(items);
  std::vector<char> assigned(items.size(), 0);
  std::vector<KnapsackItem> remaining;
  std::vector<int> remaining_classes;
  std::vector<size_t> where;  // input position of each remaining item
  std::vector<char> take;
  for (size_t s : order) {
    remaining.clear();
    remaining_classes.clear();
    where.clear();
    for (size_t i : by_density) {
      if (assigned[i]) continue;
      remaining.push_back(items[i]);
      remaining_classes.push_back(classes[i]);
      where.push_back(i);
    }
    if (remaining.empty()) break;
    KnapsackResult r = SolveSorted(remaining, remaining_classes,
                                   slot_sizes[s], kKnapsackNodeCap, &take);
    out.chosen[s] = std::move(r.chosen);
    out.total_gain += r.total_gain;
    for (size_t j = 0; j < take.size(); ++j) {
      if (take[j]) assigned[where[j]] = 1;
    }
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (!assigned[i]) out.unassigned.push_back(items[i].id);
  }
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
