#ifndef DFIM_CORE_KNAPSACK_H_
#define DFIM_CORE_KNAPSACK_H_

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace dfim {

/// \brief One candidate build-index partition operator for slot packing:
/// its execution time (the knapsack weight) and its gain (the value).
struct KnapsackItem {
  int id = 0;
  double size = 0;
  double gain = 0;
};

/// \brief Result of a 0/1 knapsack solve.
struct KnapsackResult {
  /// Ids of chosen items.
  std::vector<int> chosen;
  double total_gain = 0;
  double total_size = 0;
  /// Branch-and-bound nodes explored (0 for greedy).
  int64_t nodes = 0;
  /// False when the node cap was hit and the result may be suboptimal.
  bool optimal = true;
};

/// Branch-and-bound node cap of `SolveKnapsackBranchAndBound`'s default and
/// of `PackSlotsLp`.
inline constexpr int64_t kKnapsackNodeCap = 1 << 20;

/// \brief Algorithm 3: solves the 0/1 knapsack by LP relaxation (fractional
/// upper bound) + branch and bound.
///
/// Items with bit-identical sizes form a size class; the search never takes
/// an item of a class after skipping one of at least its gain (the swap is
/// as good), which keeps it exact on partitioned indexes' identical build
/// ops.
///
/// \param node_cap safety valve; past it the better of the best-so-far and
///        the density greedy is returned with optimal = false.
KnapsackResult SolveKnapsackBranchAndBound(
    const std::vector<KnapsackItem>& items, double capacity,
    int64_t node_cap = kKnapsackNodeCap);

/// \brief Density-greedy heuristic (take best gain/size first).
KnapsackResult SolveKnapsackGreedy(const std::vector<KnapsackItem>& items,
                                   double capacity);

/// \brief The LP-relaxation optimum: fractional items allowed. Upper bounds
/// every 0/1 solution.
double KnapsackFractionalBound(const std::vector<KnapsackItem>& items,
                               double capacity);

/// \brief Result of packing items into multiple idle-time segments.
struct MultiSlotPacking {
  /// chosen[s] holds the item ids packed into slot s.
  std::vector<std::vector<int>> chosen;
  double total_gain = 0;
  /// Items that fit nowhere.
  std::vector<int> unassigned;
};

/// \brief The LP interleaving packing (Algorithm 2, lines 8-17): slots are
/// processed in decreasing size order, each solved as an independent 0/1
/// knapsack over the remaining items.
MultiSlotPacking PackSlotsLp(const std::vector<KnapsackItem>& items,
                             const std::vector<double>& slot_sizes);

/// \brief Graham-inspired greedy baseline (§6.4): items in descending size
/// order, each placed into the slot with the most remaining capacity.
MultiSlotPacking PackSlotsGraham(const std::vector<KnapsackItem>& items,
                                 const std::vector<double>& slot_sizes);

/// \brief Upper bound used in Fig. 11: merge all slots into one segment of
/// their total size and solve a single knapsack.
double PackSlotsUpperBound(const std::vector<KnapsackItem>& items,
                           const std::vector<double>& slot_sizes);

}  // namespace dfim

#endif  // DFIM_CORE_KNAPSACK_H_
