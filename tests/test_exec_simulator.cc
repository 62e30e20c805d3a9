#include "sched/exec_simulator.h"

#include <gtest/gtest.h>

#include "sched/skyline_scheduler.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

using testutil::Chain;
using testutil::IdentityFaults;
using testutil::Independent;
using testutil::OpTimes;

SimOptions NoError() {
  SimOptions o;
  o.quantum = 60;
  o.net_mb_per_sec = 125;
  o.time_error = 0;
  o.data_error = 0;
  return o;
}

std::vector<SimOpCost> CostsFromTimes(const Dag& g) {
  std::vector<SimOpCost> costs(g.num_ops());
  for (const auto& op : g.ops()) {
    costs[static_cast<size_t>(op.id)] = SimOpCost{op.time, 0, ""};
  }
  return costs;
}

Schedule PlanOf(const Dag& g, const SchedulerOptions& opts) {
  SkylineScheduler sched(opts);
  auto skyline = sched.ScheduleDag(g, OpTimes(g));
  EXPECT_TRUE(skyline.ok());
  return skyline->front();
}

TEST(ExecSimulatorTest, ExactReplayWithoutErrors) {
  Dag g = Chain(4, 15);
  SchedulerOptions so;
  Schedule plan = PlanOf(g, so);
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->makespan, plan.makespan(), 1e-9);
  EXPECT_EQ(r->leased_quanta, plan.LeasedQuanta(60));
  EXPECT_EQ(r->executed_ops, 4);
  EXPECT_EQ(r->killed_builds, 0);
  EXPECT_TRUE(r->builds.empty());
}

TEST(ExecSimulatorTest, CostSizeMismatchRejected) {
  Dag g = Chain(2, 10);
  Schedule plan = PlanOf(g, SchedulerOptions{});
  ExecSimulator sim(NoError());
  EXPECT_TRUE(sim.Run(g, plan, {}).status().IsInvalidArgument());
}

TEST(ExecSimulatorTest, TimeErrorPerturbsMakespan) {
  Dag g = Chain(10, 20);
  Schedule plan = PlanOf(g, SchedulerOptions{});
  SimOptions o = NoError();
  o.time_error = 0.5;
  o.seed = 7;
  ExecSimulator sim(o);
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->makespan, plan.makespan());
  // Bounded by the error range.
  EXPECT_GT(r->makespan, plan.makespan() * 0.5 - 1e-9);
  EXPECT_LT(r->makespan, plan.makespan() * 1.5 + 1e-9);
}

TEST(ExecSimulatorTest, BuildOpInTailCompletes) {
  Dag g = Independent(1, 30);
  Operator build = Operator::BuildIndex(1, "idx", 2, 20.0, 64);
  build.gain = 1;
  g.AddOperator(build);
  SkylineScheduler sched(SchedulerOptions{});
  auto skyline = sched.ScheduleDag(g, OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  Schedule plan = skyline->front();
  ASSERT_EQ(plan.size(), 2u);  // build op interleaved in the 60 s quantum

  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->builds.size(), 1u);
  EXPECT_EQ(r->builds[0].index_id, "idx");
  EXPECT_EQ(r->builds[0].partition, 2);
  EXPECT_NEAR(r->builds[0].finish, 50, 1e-9);
  EXPECT_EQ(r->killed_builds, 0);
  // The dataflow makespan excludes the build op.
  EXPECT_NEAR(r->makespan, 30, 1e-9);
}

TEST(ExecSimulatorTest, BuildOpKilledByDataflowArrival) {
  // Plan: op0 [0,20), build [20,40) planned, op1 [40,60). If op0 runs long,
  // the build op is preempted when op1's start arrives.
  Dag g;
  Operator a;
  a.time = 20;
  g.AddOperator(a);
  Operator b;
  b.time = 20;
  g.AddOperator(b);
  ASSERT_TRUE(g.AddFlow(0, 1, 0).ok());
  Operator build = Operator::BuildIndex(2, "idx", 0, 19.0, 64);
  g.AddOperator(build);

  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 20, false});
  plan.Add(Assignment{2, 0, 20, 39, true});
  plan.Add(Assignment{1, 0, 40, 60, false});

  // Force op0 to overrun via a longer actual cpu time.
  std::vector<SimOpCost> costs{{35, 0, ""}, {20, 0, ""}, {19, 0, ""}};
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, costs);
  ASSERT_TRUE(r.ok());
  // op0 ends at 35; op1 starts at 35 (dep satisfied, build preempted).
  EXPECT_EQ(r->killed_builds, 1);
  EXPECT_TRUE(r->builds.empty());
  EXPECT_NEAR(r->makespan, 55, 1e-9);
  // The killed build ran [35, 35) — zero length, before op1.
  bool found = false;
  for (const auto& as : r->actual.assignments()) {
    if (as.optional) {
      found = true;
      EXPECT_NEAR(as.end - as.start, 0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ExecSimulatorTest, BuildOpKilledAtLeaseEnd) {
  Dag g = Independent(1, 30);
  Operator build = Operator::BuildIndex(1, "idx", 0, 45.0, 64);
  g.AddOperator(build);
  // Hand-built plan: build op in the tail, too long for the lease.
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 30, false});
  plan.Add(Assignment{1, 0, 30, 75, true});
  // The plan itself leases 2 quanta (planned end 75) — the build op may run
  // through 120... but the plan says 75, so lease covers ceil(75/60)=2.
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  // 30 + 45 = 75 <= 120 (2 leased quanta): completes.
  EXPECT_EQ(r->killed_builds, 0);
  ASSERT_EQ(r->builds.size(), 1u);

  // Now a build op that exceeds even the leased tail.
  Dag g2 = Independent(1, 30);
  Operator build2 = Operator::BuildIndex(1, "idx", 0, 40.0, 64);
  g2.AddOperator(build2);
  Schedule plan2;
  plan2.Add(Assignment{0, 0, 0, 30, false});
  plan2.Add(Assignment{1, 0, 30, 59, true});  // planned within quantum 1
  std::vector<SimOpCost> costs2{{30, 0, ""}, {40, 0, ""}};  // actually 40 s
  auto r2 = sim.Run(g2, plan2, costs2);
  ASSERT_TRUE(r2.ok());
  // Lease is 1 quantum (planned end 59); 30+40=70 > 60: killed at 60.
  EXPECT_EQ(r2->killed_builds, 1);
  EXPECT_TRUE(r2->builds.empty());
  EXPECT_EQ(r2->leased_quanta, 1);
}

TEST(ExecSimulatorTest, CacheAbsorbsRepeatReads) {
  // Two runs of the same single-op dag on the same container: the second
  // read hits the cache.
  Dag g = Independent(1, 10);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 110, false});
  std::vector<SimOpCost> costs{{10, 12500, "file:a|v1"}};  // 100 s transfer

  PricingModel pricing;
  Container cont(0, ContainerSpec{}, pricing, 0);
  std::vector<Container*> containers{&cont};
  ExecSimulator sim(NoError());
  auto first = sim.Run(g, plan, costs, &containers);
  ASSERT_TRUE(first.ok());
  EXPECT_NEAR(first->makespan, 110, 1e-9);  // 100 transfer + 10 cpu
  auto second = sim.Run(g, plan, costs, &containers);
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(second->makespan, 10, 1e-9);  // cache hit
}

TEST(ExecSimulatorTest, CrossContainerFlowPaysTransfer) {
  Dag g = Chain(2, 10, /*flow=*/1250);  // 10 s transfer
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 10, false});
  plan.Add(Assignment{1, 1, 20, 30, false});
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->makespan, 30, 1e-9);  // 10 + 10 transfer + 10

  // Same plan but co-located: no transfer.
  Schedule colocated;
  colocated.Add(Assignment{0, 0, 0, 10, false});
  colocated.Add(Assignment{1, 0, 10, 20, false});
  auto r2 = sim.Run(g, colocated, CostsFromTimes(g));
  ASSERT_TRUE(r2.ok());
  EXPECT_NEAR(r2->makespan, 20, 1e-9);
}

TEST(ExecSimulatorTest, FragmentationReported) {
  Dag g = Independent(1, 30);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 30, false});
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->leased_quanta, 1);
  EXPECT_NEAR(r->total_idle, 30, 1e-9);  // half the quantum idle
}

// ---- Provider reclaim notice window (DESIGN.md §13) -----------------------

/// Two containers, both reclaimed with notice:
///   c0: op0 [0,20), build op1 [20,100) in the tail; notice 35, reclaim 45.
///   c1: op2 [0,40), op3 [40,50), build op4 [50,58); notice 30, reclaim 50.
struct ReclaimScenario {
  Dag g;
  Schedule plan;
  FaultInjection fi = IdentityFaults(2);

  ReclaimScenario() {
    Operator op0;
    op0.time = 20;
    g.AddOperator(op0);
    g.AddOperator(Operator::BuildIndex(1, "idx", 0, 80.0, 64));
    Operator op2;
    op2.time = 40;
    g.AddOperator(op2);
    Operator op3;
    op3.time = 10;
    g.AddOperator(op3);
    g.AddOperator(Operator::BuildIndex(4, "idx", 1, 8.0, 64));
    plan.Add(Assignment{0, 0, 0, 20, false});
    plan.Add(Assignment{1, 0, 20, 100, true});
    plan.Add(Assignment{2, 1, 0, 40, false});
    plan.Add(Assignment{3, 1, 40, 50, false});
    plan.Add(Assignment{4, 1, 50, 58, true});
    fi.trace.containers[0].reclaim_at = 45;
    fi.trace.containers[0].notice_at = 35;
    fi.trace.containers[1].reclaim_at = 50;
    fi.trace.containers[1].notice_at = 30;
  }
};

TEST(ExecSimReclaimTest, NoticeDrainsContainerAndStopsRunningBuild) {
  ReclaimScenario sc;
  ExecSimulator sim(NoError());
  auto r = sim.Run(sc.g, sc.plan, CostsFromTimes(sc.g), nullptr, &sc.fi);
  ASSERT_TRUE(r.ok());
  // Nothing is dispatched at or after a notice, and nothing runs past a
  // reclaim.
  for (const auto& a : r->actual.assignments()) {
    const ContainerFaults& cf =
        sc.fi.trace.containers[static_cast<size_t>(a.container)];
    EXPECT_LT(a.start, cf.notice_at) << "op " << a.op_id;
    EXPECT_LE(a.end, cf.reclaim_at) << "op " << a.op_id;
  }
  // op2 was running at c1's notice and ends before the reclaim: it
  // finishes. op3 would start at the notice: it never runs.
  EXPECT_FALSE(r->complete);
  EXPECT_NEAR(r->makespan, 40, 1e-9);
  // The running build on c0 is stopped at the notice, its partial progress
  // carried; the build planned after c1's notice is never dispatched.
  ASSERT_EQ(r->kills.size(), 1u);
  EXPECT_EQ(r->kills[0].partition, 0);
  EXPECT_NEAR(r->kills[0].ran_for, 15, 1e-9);
  EXPECT_EQ(r->killed_builds, 1);
  EXPECT_TRUE(r->builds.empty());
  ASSERT_EQ(r->lost_ops.size(), 2u);
  EXPECT_EQ(r->lost_ops[0].op_id, 3);
  EXPECT_FALSE(r->lost_ops[0].optional);
  EXPECT_EQ(r->lost_ops[1].op_id, 4);
  EXPECT_TRUE(r->lost_ops[1].optional);
  // c0 planned through t=100 (two quanta) but is charged only through the
  // reclaim at 45; c1 through its reclaim at 50.
  EXPECT_EQ(r->leased_quanta, 2);
  // Both losses are provider reclaims, at the reclaim instants.
  ASSERT_EQ(r->losses.size(), 2u);
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(r->losses[static_cast<size_t>(c)].container, c);
    EXPECT_TRUE(r->losses[static_cast<size_t>(c)].preempted);
  }
  EXPECT_EQ(r->losses[0].at, 45);
  EXPECT_EQ(r->losses[1].at, 50);
}

TEST(ExecSimReclaimTest, ZeroNoticeLosesRunningBuildLikeACrash) {
  ReclaimScenario sc;
  sc.fi.trace.containers[0].notice_at = 45;  // no window to stage anything
  ExecSimulator sim(NoError());
  auto r = sim.Run(sc.g, sc.plan, CostsFromTimes(sc.g), nullptr, &sc.fi);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->kills.empty());
  EXPECT_EQ(r->killed_builds, 1);
  ASSERT_EQ(r->lost_ops.size(), 3u);
  EXPECT_EQ(r->lost_ops[1].op_id, 1);
  EXPECT_TRUE(r->lost_ops[1].optional);
  // The build ran until the reclaim and no further.
  bool found = false;
  for (const auto& a : r->actual.assignments()) {
    if (a.op_id != 1) continue;
    found = true;
    EXPECT_NEAR(a.start, 20, 1e-9);
    EXPECT_NEAR(a.end, 45, 1e-9);
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(r->leased_quanta, 2);
  ASSERT_EQ(r->losses.size(), 2u);
  EXPECT_TRUE(r->losses[0].preempted);
  EXPECT_TRUE(r->losses[1].preempted);
}

TEST(ExecSimReclaimTest, NoCloneRunsPastTheHostsNotice) {
  // op1 [0,5) on c1, then op0 on c0 straggles 5x: 10 s healthy, 50 s
  // realized. At the 1.5x watermark (t=15) a clone would run [15,25) on
  // drained, healthy c1 and win.
  Dag g;
  Operator op0;
  op0.time = 10;
  g.AddOperator(op0);
  Operator op1;
  op1.time = 5;
  g.AddOperator(op1);
  Schedule plan;
  plan.Add(Assignment{1, 1, 0, 5, false});
  plan.Add(Assignment{0, 0, 10, 20, false});
  FaultInjection fi = IdentityFaults(2);
  fi.trace.containers[0].slowdown = 5;
  fi.spec.speculate = true;
  fi.spec.spec_slowdown_threshold = 1.5;
  ExecSimulator sim(NoError());
  auto free_host = sim.Run(g, plan, CostsFromTimes(g), nullptr, &fi);
  ASSERT_TRUE(free_host.ok());
  ASSERT_EQ(free_host->spec_wins, 1);

  // c1's notice arrives at 20, before the clone would end: no clone.
  fi.trace.containers[1].notice_at = 20;
  fi.trace.containers[1].reclaim_at = 40;
  auto r = sim.Run(g, plan, CostsFromTimes(g), nullptr, &fi);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ops_speculated, 0);
  EXPECT_NEAR(r->makespan, 50, 1e-9);
  for (const auto& a : r->actual.assignments()) {
    EXPECT_FALSE(a.op_id == 0 && a.container == 1);
  }
  EXPECT_TRUE(r->complete);
}

}  // namespace
}  // namespace dfim
