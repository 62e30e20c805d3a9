// Scheduler-equivalence regression: SkylineScheduler's probe/commit engine
// must return schedules *identical* — same assignments, makespan and
// money — to the copy-everything reference engine (skyline_oracle.h)
// across seeded random DAGs, including optional-op placement.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "sched/skyline_scheduler.h"
#include "sched_test_util.h"
#include "skyline_oracle.h"

namespace dfim {
namespace {

/// Seeded random layered DAG: `depth` layers of `width` ops, each non-entry
/// op wired to 1-3 parents in the previous layer, plus `optional_ops`
/// build-index ops (no edges, as emitted by the tuner).
Dag RandomLayeredDag(int width, int depth, int optional_ops, uint64_t seed) {
  Rng rng(seed);
  Dag g;
  std::vector<int> prev_layer;
  for (int d = 0; d < depth; ++d) {
    std::vector<int> layer;
    for (int w = 0; w < width; ++w) {
      Operator op;
      op.time = rng.Uniform(5.0, 90.0);
      op.output_mb = rng.Uniform(1.0, 800.0);
      int id = g.AddOperator(std::move(op));
      layer.push_back(id);
      if (!prev_layer.empty()) {
        int parents = static_cast<int>(rng.UniformInt(1, 3));
        for (int p = 0; p < parents; ++p) {
          int from = prev_layer[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(prev_layer.size()) - 1))];
          (void)g.AddFlow(from, id, rng.Uniform(1.0, 800.0));
        }
      }
    }
    prev_layer = std::move(layer);
  }
  for (int i = 0; i < optional_ops; ++i) {
    Operator build = Operator::BuildIndex(
        static_cast<int>(g.num_ops()), "idx_" + std::to_string(i), i,
        rng.Uniform(5.0, 45.0), 64);
    build.gain = rng.Uniform(0.1, 5.0);
    g.AddOperator(std::move(build));
  }
  return g;
}

std::vector<Seconds> Durations(const Dag& g) {
  std::vector<Seconds> d(g.num_ops());
  for (const auto& op : g.ops()) d[static_cast<size_t>(op.id)] = op.time;
  return d;
}

::testing::AssertionResult IdenticalSkylines(
    const std::vector<Schedule>& a, const std::vector<Schedule>& b,
    Seconds quantum) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "skyline sizes differ: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].makespan() != b[i].makespan()) {
      return ::testing::AssertionFailure()
             << "schedule " << i << " makespan " << a[i].makespan() << " vs "
             << b[i].makespan();
    }
    if (a[i].LeasedQuanta(quantum) != b[i].LeasedQuanta(quantum)) {
      return ::testing::AssertionFailure()
             << "schedule " << i << " money " << a[i].LeasedQuanta(quantum)
             << " vs " << b[i].LeasedQuanta(quantum);
    }
    auto sa = a[i].SortedByContainer();
    auto sb = b[i].SortedByContainer();
    if (sa.size() != sb.size()) {
      return ::testing::AssertionFailure()
             << "schedule " << i << " has " << sa.size() << " vs " << sb.size()
             << " assignments";
    }
    for (size_t k = 0; k < sa.size(); ++k) {
      if (sa[k].op_id != sb[k].op_id || sa[k].container != sb[k].container ||
          sa[k].start != sb[k].start || sa[k].end != sb[k].end ||
          sa[k].optional != sb[k].optional) {
        return ::testing::AssertionFailure()
               << "schedule " << i << " assignment " << k << " differs: op "
               << sa[k].op_id << "@" << sa[k].container << " [" << sa[k].start
               << "," << sa[k].end << "] vs op " << sb[k].op_id << "@"
               << sb[k].container << " [" << sb[k].start << "," << sb[k].end
               << "]";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct Config {
  int width;
  int depth;
  int optional_ops;
  int max_containers;
  int skyline_cap;
};

/// `scheduler.ScheduleDag(g)` equals the oracle's skyline schedule for
/// schedule, and every returned schedule is valid and non-dominated.
void ExpectMatchesOracle(const SkylineScheduler& scheduler, const Dag& g,
                         bool place_optional, const std::string& what) {
  const SchedulerOptions& opts = scheduler.options();
  auto durations = Durations(g);
  auto naive = oracle::NaiveSkylineSchedule(g, durations, opts, place_optional);
  auto inc = scheduler.ScheduleDag(g, durations, place_optional);
  ASSERT_TRUE(naive.ok()) << what;
  ASSERT_TRUE(inc.ok()) << what;
  ASSERT_FALSE(inc->empty()) << what;
  EXPECT_TRUE(IdenticalSkylines(*naive, *inc, opts.quantum))
      << "naive vs incremental, " << what;
  for (const auto& s : *inc) {
    EXPECT_TRUE(testutil::ValidSchedule(g, s, durations, opts.net_mb_per_sec))
        << what;
  }
  EXPECT_TRUE(testutil::NonDominatedSet(*inc, opts.quantum)) << what;
}

SchedulerOptions Opts(int max_containers, int skyline_cap) {
  SchedulerOptions opts;
  opts.max_containers = max_containers;
  opts.skyline_cap = skyline_cap;
  return opts;
}

/// Every op of layer k+1 reads every op of layer k ("all-to-all" joins), so
/// each join op has as many cross-container parents as the layer below is
/// spread over. `dup_from_first` adds a second flow from each layer's first
/// op to every consumer. Ops in one layer differ in time, so the skyline's
/// fast and cheap ends use different numbers of containers.
Dag FanInDag(const std::vector<int>& layer_widths, bool dup_from_first,
             uint64_t seed) {
  Rng rng(seed);
  Dag g;
  std::vector<int> prev;
  for (int width : layer_widths) {
    std::vector<int> layer;
    for (int w = 0; w < width; ++w) {
      Operator op;
      op.time = rng.Uniform(10.0, 70.0);
      op.output_mb = rng.Uniform(50.0, 600.0);
      int id = g.AddOperator(std::move(op));
      layer.push_back(id);
      for (int from : prev) (void)g.AddFlow(from, id, rng.Uniform(50.0, 600.0));
      if (dup_from_first && !prev.empty()) {
        (void)g.AddFlow(prev.front(), id, rng.Uniform(50.0, 600.0));
      }
    }
    prev = std::move(layer);
  }
  return g;
}

class SchedEquivalenceTest : public ::testing::Test {
 protected:
  void CheckAll(const Config& cfg, bool place_optional) {
    SkylineScheduler scheduler(Opts(cfg.max_containers, cfg.skyline_cap));
    for (uint64_t seed : {1ull, 7ull, 23ull, 91ull, 1234ull}) {
      Dag g = RandomLayeredDag(cfg.width, cfg.depth, cfg.optional_ops, seed);
      ExpectMatchesOracle(scheduler, g, place_optional,
                          "seed " + std::to_string(seed));
    }
  }
};

TEST_F(SchedEquivalenceTest, MandatoryOnlySmall) {
  CheckAll({4, 3, 0, 4, 4}, /*place_optional=*/false);
}

TEST_F(SchedEquivalenceTest, MandatoryOnlyWide) {
  CheckAll({8, 4, 0, 8, 8}, /*place_optional=*/false);
}

TEST_F(SchedEquivalenceTest, WithOptionalOps) {
  CheckAll({4, 4, 6, 6, 8}, /*place_optional=*/true);
}

TEST_F(SchedEquivalenceTest, WideWithOptionalOps) {
  CheckAll({8, 4, 8, 8, 8}, /*place_optional=*/true);
}

TEST_F(SchedEquivalenceTest, LargeConfig) {
  CheckAll({16, 4, 8, 16, 32}, /*place_optional=*/true);
}

TEST_F(SchedEquivalenceTest, ChainAndDiamondShapes) {
  SkylineScheduler scheduler(Opts(5, SchedulerOptions{}.skyline_cap));
  for (bool place_optional : {false, true}) {
    for (Dag g : {testutil::Chain(6, 12, 100), testutil::Diamond(10, 20, 30, 10, 500)}) {
      ExpectMatchesOracle(scheduler, g, place_optional, "chain/diamond");
    }
  }
}

// A join op with more unstaged cross-container parents than a probe records
// inline (PlacementProbe::kInlineDelivered), two of its flows from one
// producer, so the commit recomputes the newly staged producers. The later
// joins then read producers that the overflowing commit staged.
TEST_F(SchedEquivalenceTest, FanInBeyondInlineStagedList) {
  for (uint64_t seed : {3ull, 17ull, 29ull}) {
    Dag g = FanInDag({11, 2, 10, 1}, /*dup_from_first=*/true, seed);
    for (int cap : {1, 3, 8}) {
      for (int containers : {12, 16}) {
        ExpectMatchesOracle(SkylineScheduler(Opts(containers, cap)), g,
                            /*place_optional=*/false,
                            "fan-in seed " + std::to_string(seed) + " cap " +
                                std::to_string(cap) + " containers " +
                                std::to_string(containers));
      }
    }
  }
}

// The merged batch DAG shape of the batched multi-tenant service: about 134
// ops over 12 containers with a skyline of 3, and the single-schedule cap.
TEST_F(SchedEquivalenceTest, BatchedServiceShape) {
  CheckAll({32, 4, 6, 12, 3}, /*place_optional=*/true);
  CheckAll({32, 4, 6, 12, 1}, /*place_optional=*/true);
}

// Layers alternate wide and single-op joins, so the skyline widens over a
// wide layer (fast states spread over many containers, cheap ones over
// few) and narrows at each join. A state is then rebuilt from a base that
// uses fewer containers than the state it replaces.
TEST_F(SchedEquivalenceTest, SkylineNarrowsThenWidens) {
  for (uint64_t seed : {5ull, 11ull}) {
    Dag g = FanInDag({6, 1, 9, 1, 4, 1, 8}, /*dup_from_first=*/false, seed);
    for (int cap : {2, 4, 8}) {
      ExpectMatchesOracle(SkylineScheduler(Opts(10, cap)), g,
                          /*place_optional=*/false,
                          "narrow/widen seed " + std::to_string(seed) +
                              " cap " + std::to_string(cap));
    }
  }
}

// One scheduler object schedules large and small DAGs in turn: nothing may
// carry over from one call to the next.
TEST_F(SchedEquivalenceTest, RepeatedCallsOnOneScheduler) {
  SkylineScheduler scheduler(Opts(12, 4));
  for (int round = 0; round < 3; ++round) {
    auto seed = static_cast<uint64_t>(round + 40);
    ExpectMatchesOracle(scheduler, RandomLayeredDag(16, 5, 6, seed),
                        /*place_optional=*/true,
                        "large, round " + std::to_string(round));
    ExpectMatchesOracle(scheduler, RandomLayeredDag(3, 2, 1, seed),
                        /*place_optional=*/true,
                        "small, round " + std::to_string(round));
    ExpectMatchesOracle(scheduler,
                        FanInDag({11, 1, 3}, /*dup_from_first=*/true, seed),
                        /*place_optional=*/false,
                        "fan-in, round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace dfim
