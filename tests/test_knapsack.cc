#include "core/knapsack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "knapsack_oracle.h"

namespace dfim {
namespace {

/// Exhaustive solver, the oracle for branch and bound (n <= 24).
KnapsackResult SolveKnapsackBruteForce(const std::vector<KnapsackItem>& items,
                                       double capacity) {
  constexpr double kEps = 1e-9;
  size_t n = items.size();
  EXPECT_LE(n, 24u);
  KnapsackResult best;
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    double size = 0;
    double gain = 0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) {
        size += items[i].size;
        gain += items[i].gain;
      }
    }
    if (size <= capacity + kEps && gain > best.total_gain + kEps) {
      best.total_gain = gain;
      best.total_size = size;
      best.chosen.clear();
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1ULL << i)) best.chosen.push_back(items[i].id);
      }
    }
  }
  return best;
}

std::vector<KnapsackItem> Items(std::vector<std::pair<double, double>> sg) {
  std::vector<KnapsackItem> items;
  int id = 0;
  for (auto [size, gain] : sg) items.push_back({id++, size, gain});
  return items;
}

TEST(KnapsackTest, EmptyInstance) {
  auto r = SolveKnapsackBranchAndBound({}, 10);
  EXPECT_TRUE(r.chosen.empty());
  EXPECT_DOUBLE_EQ(r.total_gain, 0);
  EXPECT_TRUE(r.optimal);
}

TEST(KnapsackTest, ZeroCapacityTakesNothingSized) {
  auto items = Items({{5, 10}, {0, 3}});
  auto r = SolveKnapsackBranchAndBound(items, 0);
  // The zero-size positive-gain item is free value.
  EXPECT_EQ(r.chosen, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(r.total_gain, 3);
}

TEST(KnapsackTest, ClassicInstance) {
  // Items (size, gain): the known optimum of this instance is 220 with
  // {1, 2} (sizes 20+30 <= 50).
  auto items = Items({{10, 60}, {20, 100}, {30, 120}});
  auto r = SolveKnapsackBranchAndBound(items, 50);
  EXPECT_DOUBLE_EQ(r.total_gain, 220);
  std::sort(r.chosen.begin(), r.chosen.end());
  EXPECT_EQ(r.chosen, (std::vector<int>{1, 2}));
  EXPECT_TRUE(r.optimal);
}

TEST(KnapsackTest, NegativeGainItemsNeverTaken) {
  auto items = Items({{1, -5}, {1, 3}});
  auto r = SolveKnapsackBranchAndBound(items, 10);
  EXPECT_EQ(r.chosen, (std::vector<int>{1}));
}

TEST(KnapsackTest, GreedyIsFeasibleButMaybeSuboptimal) {
  // Greedy by density picks item 0 (density 6) then cannot fit the rest;
  // optimum is {1, 2}.
  auto items = Items({{10, 60}, {20, 100}, {30, 120}});
  auto g = SolveKnapsackGreedy(items, 50);
  EXPECT_LE(g.total_size, 50 + 1e-9);
  auto bb = SolveKnapsackBranchAndBound(items, 50);
  EXPECT_LE(g.total_gain, bb.total_gain + 1e-9);
}

TEST(KnapsackTest, FractionalBoundDominatesInteger) {
  auto items = Items({{10, 60}, {20, 100}, {30, 120}});
  double frac = KnapsackFractionalBound(items, 50);
  auto bb = SolveKnapsackBranchAndBound(items, 50);
  EXPECT_GE(frac, bb.total_gain - 1e-9);
}

/// Property sweep: branch & bound equals brute force on random instances.
class KnapsackOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackOracleTest, BbMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  int n = 4 + static_cast<int>(rng.UniformInt(0, 12));
  std::vector<KnapsackItem> items;
  for (int i = 0; i < n; ++i) {
    items.push_back({i, rng.Uniform(0.1, 10.0), rng.Uniform(-1.0, 10.0)});
  }
  double capacity = rng.Uniform(1.0, 25.0);
  auto bb = SolveKnapsackBranchAndBound(items, capacity);
  auto brute = SolveKnapsackBruteForce(items, capacity);
  EXPECT_NEAR(bb.total_gain, brute.total_gain, 1e-9)
      << "n=" << n << " cap=" << capacity;
  EXPECT_LE(bb.total_size, capacity + 1e-9);
  // Greedy never beats the optimum; fractional bound never loses to it.
  auto greedy = SolveKnapsackGreedy(items, capacity);
  EXPECT_LE(greedy.total_gain, bb.total_gain + 1e-9);
  EXPECT_GE(KnapsackFractionalBound(items, capacity), bb.total_gain - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, KnapsackOracleTest,
                         ::testing::Range(1, 21));

TEST(KnapsackTest, NodeCapFallsBackGracefully) {
  Rng rng(5);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 40; ++i) {
    items.push_back({i, rng.Uniform(1.0, 5.0), rng.Uniform(1.0, 5.0)});
  }
  auto r = SolveKnapsackBranchAndBound(items, 50.0, /*node_cap=*/100);
  EXPECT_FALSE(r.optimal);
  EXPECT_LE(r.total_size, 50.0 + 1e-9);
  EXPECT_GT(r.total_gain, 0);
}

/// A slot's worth of partitioned-index build ops: `classes` distinct sizes,
/// each with up to 7 gain types whose items are copies. With `near_gains`
/// the types of a class differ in the fourth digit, as the partitions of
/// indexes on one file do; otherwise they are unrelated. Items come in
/// random order with ids 0..n-1.
std::vector<KnapsackItem> PartitionedItems(Rng* rng, int n, int classes,
                                           bool near_gains) {
  struct Type {
    double size;
    double gain;
  };
  std::vector<Type> types;
  for (int c = 0; c < classes; ++c) {
    double size = rng->Uniform(0.5, 3.0);
    double base = rng->Uniform(0.001, 0.01) * size;
    int num_types = 1 + static_cast<int>(rng->UniformInt(0, 6));
    for (int t = 0; t < num_types; ++t) {
      double gain = near_gains ? base * (1 + rng->Uniform(-1e-3, 1e-3))
                               : rng->Uniform(0.001, 0.01) * size;
      types.push_back({size, gain});
    }
  }
  std::vector<KnapsackItem> items;
  for (int i = 0; i < n; ++i) {
    const Type& t = types[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(types.size()) - 1))];
    items.push_back({i, t.size, t.gain});
  }
  return items;
}

double MeanSize(const std::vector<KnapsackItem>& items) {
  double sum = 0;
  for (const auto& it : items) sum += it.size;
  return items.empty() ? 0 : sum / static_cast<double>(items.size());
}

/// The per-item oracle's node cap in the sweeps; past it the comparison
/// only asks for a gain no lower than the oracle's.
constexpr int64_t kSweepOracleCap = 1 << 16;

TEST(KnapsackSizeClassTest, MatchesTheOracleOnPartitionedIndexes) {
  Rng rng(2701);
  int exact = 0;
  int oracle_capped = 0;
  for (int trial = 0; trial < 60; ++trial) {
    int n = 50 + static_cast<int>(rng.UniformInt(0, 550));
    int classes = 2 + static_cast<int>(rng.UniformInt(0, 28));
    auto items = PartitionedItems(&rng, n, classes, trial % 2 == 0);
    double capacity = MeanSize(items) * rng.Uniform(2.0, 40.0);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n=" << n
                                      << " classes=" << classes
                                      << " cap=" << capacity);
    auto got = SolveKnapsackBranchAndBound(items, capacity);
    auto want =
        oracle::SolveKnapsackBranchAndBound(items, capacity, kSweepOracleCap);
    EXPECT_TRUE(got.optimal);
    EXPECT_LE(got.total_size, capacity + 1e-9);
    if (want.optimal) {
      ++exact;
      EXPECT_EQ(got.chosen, want.chosen);
      EXPECT_EQ(got.total_gain, want.total_gain);
      EXPECT_EQ(got.total_size, want.total_size);
    } else {
      ++oracle_capped;
      EXPECT_GE(got.total_gain, want.total_gain);
    }
  }
  // The sweep covers both sides of the comparison.
  EXPECT_GT(exact, 10);
  EXPECT_GT(oracle_capped, 10);
}

TEST(KnapsackSizeClassTest, SmallInstancesMatchBruteForce) {
  Rng rng(2702);
  for (int trial = 0; trial < 40; ++trial) {
    int n = 4 + static_cast<int>(rng.UniformInt(0, 16));
    int classes = 2 + static_cast<int>(rng.UniformInt(0, 4));
    auto items = PartitionedItems(&rng, n, classes, trial % 2 == 0);
    double capacity = MeanSize(items) * rng.Uniform(1.0, 8.0);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n=" << n
                                      << " cap=" << capacity);
    auto got = SolveKnapsackBranchAndBound(items, capacity);
    auto want = oracle::SolveKnapsackBranchAndBound(items, capacity);
    ASSERT_TRUE(want.optimal);
    EXPECT_TRUE(got.optimal);
    EXPECT_EQ(got.chosen, want.chosen);
    EXPECT_EQ(got.total_gain, want.total_gain);
    EXPECT_NEAR(got.total_gain,
                SolveKnapsackBruteForce(items, capacity).total_gain, 1e-9);
  }
}

TEST(KnapsackSizeClassTest, PhaseSlotSolvesExactlyUnderTheCap) {
  // One slot of the phase workload (seed 23): 489 build ops of one size in
  // six gain types (partitions of six indexes whose gains differ in the
  // fourth digit) plus one op of another size. The per-item search stops
  // at its 2^20 node cap here.
  struct Type {
    double size;
    double gain;
    int count;
  };
  const Type types[] = {
      {1.255293383089898, 0.0026856401111466522, 92},
      {1.255293383089898, 0.0028602425212496782, 141},
      {1.255293383089898, 0.0030146236401575478, 81},
      {1.255293383089898, 0.0035877233339432074, 72},
      {1.255293383089898, 0.0037084203271268812, 63},
      {1.255293383089898, 0.0037090485939110613, 40},
      {1.0223275900012398, 0.0030146236401575478, 1},
  };
  const double capacity = 38.774432264519191;
  std::vector<KnapsackItem> items;
  for (const Type& t : types) {
    for (int k = 0; k < t.count; ++k) {
      items.push_back({static_cast<int>(items.size()), t.size, t.gain});
    }
  }
  ASSERT_EQ(items.size(), 490u);
  auto r = SolveKnapsackBranchAndBound(items, capacity);
  EXPECT_TRUE(r.optimal);
  EXPECT_LT(r.nodes, 10000);
  // Thirty of the best type fill the slot, and the small op fits beside.
  EXPECT_EQ(r.chosen.size(), 31u);
  EXPECT_NEAR(r.total_gain,
              30 * 0.0037090485939110613 + 0.0030146236401575478, 1e-12);
  auto old = oracle::SolveKnapsackBranchAndBound(items, capacity);
  EXPECT_FALSE(old.optimal);
  EXPECT_GE(r.total_gain, old.total_gain);
}

TEST(PackSlotsTest, LpMatchesTheOracleOnPartitionedIndexes) {
  // Where the oracle caps a slot, the packings may part ways (an exact
  // early slot can leave worse items for the later ones), so those trials
  // only check that the packing is feasible.
  Rng rng(2703);
  int compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    int n = 50 + static_cast<int>(rng.UniformInt(0, 150));
    int classes = 2 + static_cast<int>(rng.UniformInt(0, 28));
    auto items = PartitionedItems(&rng, n, classes, trial % 2 == 0);
    std::vector<double> slots;
    int num_slots = 1 + static_cast<int>(rng.UniformInt(0, 11));
    for (int s = 0; s < num_slots; ++s) {
      slots.push_back(MeanSize(items) * rng.Uniform(0.5, 12.0));
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    MultiSlotPacking got = PackSlotsLp(items, slots);
    std::vector<int> seen;
    for (size_t s = 0; s < slots.size(); ++s) {
      double used = 0;
      for (int id : got.chosen[s]) {
        used += items[static_cast<size_t>(id)].size;
        seen.push_back(id);
      }
      EXPECT_LE(used, slots[s] + 1e-6);
    }
    seen.insert(seen.end(), got.unassigned.begin(), got.unassigned.end());
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen.size(), items.size());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());

    bool capped = false;
    MultiSlotPacking want =
        oracle::PackSlotsLp(items, slots, kSweepOracleCap, &capped);
    if (capped) continue;
    ++compared;
    EXPECT_EQ(got.chosen, want.chosen);
    EXPECT_EQ(got.unassigned, want.unassigned);
    EXPECT_EQ(got.total_gain, want.total_gain);
  }
  EXPECT_GT(compared, 10);
}

TEST(PackSlotsTest, LpPacksLargestSlotFirst) {
  // Two slots; the big item only fits the big slot. Slot 1 (capacity 9) is
  // solved first and takes item 0 alone (80 beats 30+29); slot 0
  // (capacity 4) fits one of the 3-sized items; the other is unassigned.
  auto items = Items({{8, 80}, {3, 30}, {3, 29}});
  MultiSlotPacking p = PackSlotsLp(items, {4.0, 9.0});
  EXPECT_NEAR(p.total_gain, 80 + 30, 1e-9);
  EXPECT_EQ(p.unassigned.size(), 1u);
  EXPECT_EQ(p.unassigned[0], 2);
  double slot1_size = 0;
  for (int id : p.chosen[1]) slot1_size += items[static_cast<size_t>(id)].size;
  EXPECT_LE(slot1_size, 9.0 + 1e-9);
}

TEST(PackSlotsTest, UnassignedReported) {
  auto items = Items({{10, 100}, {10, 90}, {10, 80}});
  MultiSlotPacking p = PackSlotsLp(items, {10.0});
  EXPECT_EQ(p.chosen[0].size(), 1u);
  EXPECT_EQ(p.unassigned.size(), 2u);
  EXPECT_DOUBLE_EQ(p.total_gain, 100);
}

TEST(PackSlotsTest, GrahamPlacesBySizeDescending) {
  // 8 -> slot 0 (2 left), 5 -> slot 1 (1 left), 3 fits nowhere: Graham's
  // size-descending best-fit strands the smallest item.
  auto items = Items({{5, 5}, {3, 3}, {8, 8}});
  MultiSlotPacking p = PackSlotsGraham(items, {10.0, 6.0});
  EXPECT_NEAR(p.total_gain, 13, 1e-9);
  EXPECT_EQ(p.unassigned.size(), 1u);
  EXPECT_EQ(p.unassigned[0], 1);
}

TEST(PackSlotsTest, GrahamReportsMisfits) {
  auto items = Items({{20, 20}});
  MultiSlotPacking p = PackSlotsGraham(items, {10.0, 6.0});
  EXPECT_EQ(p.unassigned.size(), 1u);
  EXPECT_DOUBLE_EQ(p.total_gain, 0);
}

TEST(PackSlotsTest, Fig11Shape_LpUsuallyBeatsGrahamAndNeverBeatsUpperBound) {
  // Fig. 11's shape. Neither heuristic dominates the other on every
  // instance (both are greedy over slots), but LP should win or tie most
  // of the time and both are bounded by the merged-slot optimum.
  Rng rng(77);
  int lp_wins_or_ties = 0;
  constexpr int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<KnapsackItem> items;
    int n = 10 + static_cast<int>(rng.UniformInt(0, 10));
    for (int i = 0; i < n; ++i) {
      double size = rng.Uniform(0.02, 0.2);
      items.push_back({i, size, size});  // gain == execution time (§6.4)
    }
    std::vector<double> slots;
    for (int s = 0; s < 8; ++s) slots.push_back(rng.Uniform(0.05, 0.6));
    double lp = PackSlotsLp(items, slots).total_gain;
    double graham = PackSlotsGraham(items, slots).total_gain;
    double upper = PackSlotsUpperBound(items, slots);
    if (lp >= graham - 1e-9) ++lp_wins_or_ties;
    EXPECT_LE(lp, upper + 1e-9) << "trial " << trial;
    EXPECT_LE(graham, upper + 1e-9) << "trial " << trial;
  }
  EXPECT_GE(lp_wins_or_ties, kTrials * 3 / 5);
}

TEST(PackSlotsTest, EmptySlotsAndItems) {
  EXPECT_DOUBLE_EQ(PackSlotsLp({}, {1.0}).total_gain, 0);
  auto items = Items({{1, 1}});
  MultiSlotPacking p = PackSlotsLp(items, {});
  EXPECT_EQ(p.unassigned.size(), 1u);
  EXPECT_DOUBLE_EQ(PackSlotsUpperBound(items, {}), 0);
}

}  // namespace
}  // namespace dfim
