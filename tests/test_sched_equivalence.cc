// Scheduler-equivalence regression: SkylineScheduler's probe/commit engine
// must return schedules *identical* — same assignments, makespan and
// money — to the copy-everything reference engine (skyline_oracle.h)
// across seeded random DAGs, including optional-op placement.

#include <gtest/gtest.h>

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

class SchedEquivalenceTest : public ::testing::Test {
 protected:
  void CheckAll(const Config& cfg, bool place_optional) {
    for (uint64_t seed : {1ull, 7ull, 23ull, 91ull, 1234ull}) {
      Dag g = RandomLayeredDag(cfg.width, cfg.depth, cfg.optional_ops, seed);
      auto durations = Durations(g);

      SchedulerOptions opts;
      opts.max_containers = cfg.max_containers;
      opts.skyline_cap = cfg.skyline_cap;

      auto naive =
          oracle::NaiveSkylineSchedule(g, durations, opts, place_optional);
      auto inc = SkylineScheduler(opts).ScheduleDag(g, durations, place_optional);
      ASSERT_TRUE(naive.ok());
      ASSERT_TRUE(inc.ok());
      ASSERT_FALSE(inc->empty());
      EXPECT_TRUE(IdenticalSkylines(*naive, *inc, opts.quantum))
          << "naive vs incremental, seed " << seed;
      for (const auto& s : *inc) {
        EXPECT_TRUE(
            testutil::ValidSchedule(g, s, durations, opts.net_mb_per_sec))
            << "seed " << seed;
      }
      EXPECT_TRUE(testutil::NonDominatedSet(*inc, opts.quantum))
          << "seed " << seed;
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
  for (bool place_optional : {false, true}) {
    for (Dag g : {testutil::Chain(6, 12, 100), testutil::Diamond(10, 20, 30, 10, 500)}) {
      auto durations = Durations(g);
      SchedulerOptions opts;
      opts.max_containers = 5;
      auto naive =
          oracle::NaiveSkylineSchedule(g, durations, opts, place_optional);
      auto inc = SkylineScheduler(opts).ScheduleDag(g, durations, place_optional);
      ASSERT_TRUE(naive.ok());
      ASSERT_TRUE(inc.ok());
      EXPECT_TRUE(IdenticalSkylines(*naive, *inc, opts.quantum));
    }
  }
}

}  // namespace
}  // namespace dfim
