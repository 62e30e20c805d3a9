// Edge-case coverage: tiny caches, degenerate scheduler options, data-size
// perturbation, and single-point skylines.

#include <gtest/gtest.h>

#include "sched/exec_simulator.h"
#include "sched/skyline_scheduler.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

TEST(EdgeCaseTest, TinyContainerCacheEvictsBetweenReads) {
  // Two ops read different 60 MB inputs on a container with an 80 MB disk:
  // caching the second evicts the first, so a third read of input A pays
  // the transfer again.
  Dag g = testutil::Independent(3, 1);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 1, false});
  plan.Add(Assignment{1, 0, 1, 2, false});
  plan.Add(Assignment{2, 0, 2, 3, false});
  std::vector<SimOpCost> costs{
      {1, 7500, "A"}, {1, 7500, "B"}, {1, 7500, "A"}};  // 60 s transfers

  ContainerSpec spec;
  spec.disk = 9000;  // fits one 7500 MB input, not two
  Container cont(0, spec, /*quantum=*/60, 0);
  std::vector<Container*> containers{&cont};
  ExecSimulator sim(SchedulerOptions{}, /*seed=*/1);
  auto r = sim.Run(g, plan, costs, &containers);
  ASSERT_TRUE(r.ok());
  // op0: 60+1; op1: evicts A, 60+1; op2: A gone again, 60+1.
  EXPECT_NEAR(r->makespan, 3 * 61.0, 1e-9);
}

TEST(EdgeCaseTest, WarmCacheSkipsThirdRead) {
  // Same as above but with room for both inputs: the third read is free.
  Dag g = testutil::Independent(3, 1);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 1, false});
  plan.Add(Assignment{1, 0, 1, 2, false});
  plan.Add(Assignment{2, 0, 2, 3, false});
  std::vector<SimOpCost> costs{{1, 7500, "A"}, {1, 7500, "B"}, {1, 7500, "A"}};
  ContainerSpec spec;
  spec.disk = 20000;
  Container cont(0, spec, /*quantum=*/60, 0);
  std::vector<Container*> containers{&cont};
  ExecSimulator sim(SchedulerOptions{}, /*seed=*/1);
  auto r = sim.Run(g, plan, costs, &containers);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->makespan, 61 + 61 + 1, 1e-9);
}

TEST(EdgeCaseTest, DataErrorPerturbsTransfers) {
  Dag g = testutil::Independent(1, 1);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 101, false});
  std::vector<SimOpCost> costs{{1, 12500, "k"}};  // 100 s transfer
  SimOptions so;
  so.data_error = 0.5;
  ExecSimulator sim(SchedulerOptions{}, /*seed=*/3, so);
  auto r = sim.Run(g, plan, costs);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->makespan, 101.0);
  EXPECT_GT(r->makespan, 51.0 - 1e-9);   // >= 1 + 50
  EXPECT_LT(r->makespan, 151.0 + 1e-9);  // <= 1 + 150
}

TEST(EdgeCaseTest, SkylineCapOneKeepsFastestPoint) {
  Dag g = testutil::Independent(6, 45);
  SchedulerOptions so;
  so.skyline_cap = 1;
  SkylineScheduler sched(so);
  auto one = sched.ScheduleDag(g, testutil::OpTimes(g));
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  so.skyline_cap = 8;
  SkylineScheduler wide(so);
  auto many = wide.ScheduleDag(g, testutil::OpTimes(g));
  ASSERT_TRUE(many.ok());
  // Pruning mid-search can cost some quality but the cap-1 run must stay a
  // valid, competitive schedule.
  EXPECT_TRUE(testutil::ValidSchedule(g, one->front(), testutil::OpTimes(g),
                                      so.net_mb_per_sec));
  EXPECT_LE(one->front().makespan(), many->front().makespan() * 2.0 + 1e-9);
}

TEST(EdgeCaseTest, ZeroDurationOpsSchedule) {
  Dag g;
  for (int i = 0; i < 3; ++i) {
    Operator op;
    op.time = 0;
    g.AddOperator(op);
  }
  (void)g.AddFlow(0, 1, 0);
  (void)g.AddFlow(1, 2, 0);
  SkylineScheduler sched(SchedulerOptions{});
  auto skyline = sched.ScheduleDag(g, testutil::OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  EXPECT_DOUBLE_EQ(skyline->front().makespan(), 0);
  // Even a zero-length schedule leases one quantum per used container.
  EXPECT_GE(skyline->front().LeasedQuanta(60), 1);
}

TEST(EdgeCaseTest, SimulatorRejectsOpIdOutsideDag) {
  Dag g = testutil::Independent(2, 10);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 10, false});
  plan.Add(Assignment{5, 0, 10, 20, false});  // no op 5 in the dag
  std::vector<SimOpCost> costs(g.num_ops());
  ExecSimulator sim(SchedulerOptions{}, /*seed=*/1);
  EXPECT_TRUE(sim.Run(g, plan, costs).status().IsInvalidArgument());
}

TEST(EdgeCaseTest, SimulatorRejectsNegativeContainer) {
  Dag g = testutil::Independent(1, 10);
  Schedule plan;
  plan.Add(Assignment{0, -1, 0, 10, false});
  std::vector<SimOpCost> costs(g.num_ops());
  ExecSimulator sim(SchedulerOptions{}, /*seed=*/1);
  EXPECT_TRUE(sim.Run(g, plan, costs).status().IsInvalidArgument());
}

TEST(EdgeCaseTest, SimulatorRejectsNegativeCosts) {
  Dag g = testutil::Independent(1, 10);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 10, false});
  ExecSimulator sim(SchedulerOptions{}, /*seed=*/1);
  std::vector<SimOpCost> bad_cpu{SimOpCost{-1.0, 0, ""}};
  EXPECT_TRUE(sim.Run(g, plan, bad_cpu).status().IsInvalidArgument());
  std::vector<SimOpCost> bad_input{SimOpCost{1.0, -5.0, ""}};
  EXPECT_TRUE(sim.Run(g, plan, bad_input).status().IsInvalidArgument());
}

TEST(EdgeCaseTest, SimulatorRejectsShortContainerVector) {
  // The plan uses containers 0 and 1 but only one live container is passed.
  Dag g = testutil::Independent(2, 10);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 10, false});
  plan.Add(Assignment{1, 1, 0, 10, false});
  std::vector<SimOpCost> costs(g.num_ops());
  ContainerSpec spec;
  Container cont(0, spec, /*quantum=*/60, 0);
  std::vector<Container*> containers{&cont};
  ExecSimulator sim(SchedulerOptions{}, /*seed=*/1);
  EXPECT_TRUE(
      sim.Run(g, plan, costs, &containers).status().IsInvalidArgument());
}

TEST(EdgeCaseTest, QuantumBoundaryExactFit) {
  // An op ending exactly on the quantum boundary leases exactly one quantum
  // and leaves zero idle.
  Dag g = testutil::Independent(1, 60);
  SkylineScheduler sched(SchedulerOptions{});
  auto skyline = sched.ScheduleDag(g, testutil::OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  const Schedule& s = skyline->front();
  EXPECT_EQ(s.LeasedQuanta(60), 1);
  EXPECT_DOUBLE_EQ(s.TotalIdle(60), 0);
}

}  // namespace
}  // namespace dfim
