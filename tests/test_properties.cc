// Property sweeps over randomly generated DAGs: structural invariants that
// must hold for every scheduler and for the execution simulator.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sched/exec_simulator.h"
#include "sched/load_balance_scheduler.h"
#include "sched/skyline_scheduler.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

/// A random layered DAG: 3-6 layers, random widths, random forward edges.
Dag RandomDag(uint64_t seed) {
  Rng rng(seed);
  Dag g;
  int layers = static_cast<int>(rng.UniformInt(3, 6));
  std::vector<std::vector<int>> layer_ids;
  for (int l = 0; l < layers; ++l) {
    int width = static_cast<int>(rng.UniformInt(1, 6));
    layer_ids.emplace_back();
    for (int w = 0; w < width; ++w) {
      Operator op;
      op.time = rng.Uniform(1.0, 60.0);
      op.output_mb = rng.Uniform(0.0, 500.0);
      int id = g.AddOperator(std::move(op));
      layer_ids.back().push_back(id);
      if (l > 0) {
        // At least one parent from the previous layer.
        const auto& prev = layer_ids[static_cast<size_t>(l) - 1];
        int parents = static_cast<int>(
            rng.UniformInt(1, static_cast<int64_t>(prev.size())));
        std::vector<int> shuffled = prev;
        rng.Shuffle(&shuffled);
        for (int p = 0; p < parents; ++p) {
          (void)g.AddFlow(shuffled[static_cast<size_t>(p)], id,
                          g.op(shuffled[static_cast<size_t>(p)]).output_mb);
        }
      }
    }
  }
  // A few optional build ops.
  int builds = static_cast<int>(rng.UniformInt(0, 4));
  for (int b = 0; b < builds; ++b) {
    Operator op = Operator::BuildIndex(0, "idx" + std::to_string(b), b,
                                       rng.Uniform(1.0, 30.0), 64.0);
    op.gain = rng.Uniform(0.1, 2.0);
    g.AddOperator(std::move(op));
  }
  return g;
}

std::vector<SimOpCost> CostsOf(const Dag& g) {
  std::vector<SimOpCost> costs(g.num_ops());
  for (const auto& op : g.ops()) {
    costs[static_cast<size_t>(op.id)] = SimOpCost{op.time, 0, ""};
  }
  return costs;
}

class RandomDagProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagProperty, SkylineSchedulerInvariants) {
  Dag g = RandomDag(static_cast<uint64_t>(GetParam()));
  auto durations = testutil::OpTimes(g);
  SchedulerOptions so;
  so.max_containers = 12;
  so.skyline_cap = 5;
  SkylineScheduler sched(so);
  auto skyline = sched.ScheduleDag(g, durations);
  ASSERT_TRUE(skyline.ok());
  ASSERT_FALSE(skyline->empty());
  auto cp = g.CriticalPath();
  ASSERT_TRUE(cp.ok());
  for (const auto& s : *skyline) {
    EXPECT_TRUE(testutil::ValidSchedule(g, s, durations, so.net_mb_per_sec));
    // Makespan bounded below by the critical path and above by serial work.
    EXPECT_GE(s.makespan(), *cp - 1e-6);
    Seconds serial = 0;
    for (const auto& op : g.ops()) {
      if (!op.optional) serial += op.time;
    }
    double max_flow_cost = 0;
    for (const auto& f : g.flows()) max_flow_cost += f.size / 125.0;
    EXPECT_LE(s.makespan(), serial + max_flow_cost + 1e-6);
  }
  EXPECT_TRUE(testutil::NonDominatedSet(*skyline, so.quantum));
}

TEST_P(RandomDagProperty, ExactReplayMatchesPlan) {
  Dag g = RandomDag(static_cast<uint64_t>(GetParam()));
  auto durations = testutil::OpTimes(g);
  SchedulerOptions so;
  so.max_containers = 12;
  so.skyline_cap = 4;
  SkylineScheduler sched(so);
  auto skyline = sched.ScheduleDag(g, durations, /*place_optional=*/false);
  ASSERT_TRUE(skyline.ok());
  ExecSimulator sim(SimOptions{});  // zero error
  for (const auto& plan : *skyline) {
    auto r = sim.Run(g, plan, CostsOf(g));
    ASSERT_TRUE(r.ok());
    // With exact estimates, the realized makespan cannot exceed the plan
    // (replay may only tighten starts) and money matches the plan.
    EXPECT_LE(r->makespan, plan.makespan() + 1e-6);
    EXPECT_LE(r->leased_quanta, plan.LeasedQuanta(so.quantum));
    EXPECT_EQ(r->killed_builds, 0);
    // Every leased quantum is at least as long as the busy time on it.
    EXPECT_GE(static_cast<double>(r->leased_quanta) * so.quantum,
              r->makespan - 1e-6);
  }
}

TEST_P(RandomDagProperty, LoadBalanceIsValidAndNeverBeatsSerialBound) {
  Dag g = RandomDag(static_cast<uint64_t>(GetParam()));
  auto durations = testutil::OpTimes(g);
  SchedulerOptions so;
  so.max_containers = 12;
  LoadBalanceScheduler lb(so);
  auto s = lb.ScheduleDag(g, durations, LoadBalanceScheduler::kAutoContainers);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(testutil::ValidSchedule(g, *s, durations, so.net_mb_per_sec));
  auto cp = g.CriticalPath();
  ASSERT_TRUE(cp.ok());
  EXPECT_GE(s->makespan(), *cp - 1e-6);
}

TEST_P(RandomDagProperty, InterleavedBuildsNeverChangeTimeOrMoney) {
  Dag g = RandomDag(static_cast<uint64_t>(GetParam()));
  auto durations = testutil::OpTimes(g);
  SchedulerOptions so;
  so.max_containers = 12;
  so.skyline_cap = 4;
  SkylineScheduler sched(so);
  auto bare = sched.ScheduleDag(g, durations, /*place_optional=*/false);
  auto packed = sched.ScheduleDag(g, durations, /*place_optional=*/true);
  ASSERT_TRUE(bare.ok());
  ASSERT_TRUE(packed.ok());
  // The fastest point must stay as fast and as cheap with builds placed.
  EXPECT_NEAR(packed->front().makespan(), bare->front().makespan(), 1e-6);
  EXPECT_LE(packed->front().LeasedQuanta(so.quantum),
            bare->front().LeasedQuanta(so.quantum));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty, ::testing::Range(1, 26));

}  // namespace
}  // namespace dfim
