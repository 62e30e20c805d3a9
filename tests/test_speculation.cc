// Tail-tolerance tests: speculative re-execution in paid idle slots and
// hedged storage reads (DESIGN.md §9).
//
// The load-bearing claims checked here:
//   1. A straggling op is cloned into an already-paid idle slot on a healthy
//      container, the first finisher wins, and `leased_quanta` is identical
//      to the run without speculation (marginal-cost-zero).
//   2. Losing clones are cancelled the instant the original finishes, their
//      remaining reserved slot time is accounted, and they leave no trace in
//      catalog or storage accounting.
//   3. Ties go to the original, deterministically.
//   4. With speculation/hedging off — or on but with nothing to speculate
//      on — every output is bit-identical to the pre-speculation simulator.
//   5. The open-loop zero-slack identity survives speculation.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/service.h"
#include "dataflow/workload.h"
#include "sched/exec_simulator.h"
#include "sched/skyline_scheduler.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

using testutil::IdentityFaults;

// Must mirror the simulator's salt for the hedge duplicate's fault draw
// (exec_simulator.cc): used below to search for a seed where the primary
// faults and the duplicate does not.
constexpr uint64_t kHedgeAttemptBit = uint64_t{1} << 62;

SimOptions NoError() {
  SimOptions o;
  o.quantum = 60;
  o.net_mb_per_sec = 125;
  return o;
}

std::vector<SimOpCost> CpuOnlyCosts(const Dag& g) {
  std::vector<SimOpCost> costs(g.num_ops());
  for (const auto& op : g.ops()) {
    costs[static_cast<size_t>(op.id)] = SimOpCost{op.time, 0, ""};
  }
  return costs;
}

/// Two independent ops on two containers. op1 (short) runs first on c1 so
/// c1 is drained when op0 — straggling on c0 — crosses the watermark.
struct TwoContainerScenario {
  Dag g;
  Schedule plan;
  std::vector<SimOpCost> costs;

  explicit TwoContainerScenario(Seconds op0_time) {
    Operator op0;
    op0.time = op0_time;
    g.AddOperator(std::move(op0));
    Operator op1;
    op1.time = 5.0;
    g.AddOperator(std::move(op1));
    plan.Add(Assignment{/*op_id=*/1, /*container=*/1, 0.0, 5.0, false});
    plan.Add(Assignment{/*op_id=*/0, /*container=*/0, 10.0, 10.0 + op0_time,
                        false});
    costs = CpuOnlyCosts(g);
  }
};

const Assignment* FindAssignment(const Schedule& s, int op_id, int container) {
  for (const auto& a : s.assignments()) {
    if (a.op_id == op_id && a.container == container) return &a;
  }
  return nullptr;
}

TEST(SpeculationTest, CloneWinsInPaidIdleSlotWithoutExtraQuanta) {
  // op0: 10 s healthy, 50 s on the 5x straggler. Watermark at 1.5x = 15 s;
  // the clone lands on drained, healthy c1 at t=15, finishes at 25 — inside
  // c1's single already-paid quantum — and beats the original (50 s).
  TwoContainerScenario sc(10.0);
  ExecSimulator sim(NoError());

  FaultInjection off = IdentityFaults(2);
  off.trace.containers[0].slowdown = 5.0;
  auto base = sim.Run(sc.g, sc.plan, sc.costs, nullptr, &off);
  ASSERT_TRUE(base.ok());
  EXPECT_NEAR(base->makespan, 50.0, 1e-9);
  EXPECT_EQ(base->leased_quanta, 2);

  FaultInjection on = off;
  on.spec.speculate = true;
  on.spec.spec_slowdown_threshold = 1.5;
  auto spec = sim.Run(sc.g, sc.plan, sc.costs, nullptr, &on);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->ops_speculated, 1);
  EXPECT_EQ(spec->spec_wins, 1);
  EXPECT_EQ(spec->spec_cancelled, 0);
  EXPECT_NEAR(spec->makespan, 25.0, 1e-9);
  // The whole point: faster, for exactly the same bill.
  EXPECT_EQ(spec->leased_quanta, base->leased_quanta);
  // The clone shows up in the realized schedule on the healthy host...
  const Assignment* clone = FindAssignment(spec->actual, 0, 1);
  ASSERT_NE(clone, nullptr);
  EXPECT_NEAR(clone->start, 15.0, 1e-9);
  EXPECT_NEAR(clone->end, 25.0, 1e-9);
  // ...and the cancelled original frees its slot at the clone's finish.
  const Assignment* orig = FindAssignment(spec->actual, 0, 0);
  ASSERT_NE(orig, nullptr);
  EXPECT_NEAR(orig->end, 25.0, 1e-9);
  EXPECT_TRUE(spec->actual.CheckNoOverlap());
  EXPECT_TRUE(spec->complete);
  // Clones are dataflow re-executions, never index builds: nothing here may
  // reach the catalog/storage persist path.
  EXPECT_TRUE(spec->builds.empty());
}

TEST(SpeculationTest, WinningCloneIsBilledAtTheShadowLease) {
  // op0: 10 s healthy, 70 s on the 7x straggler, so c0's lease without
  // speculation is two quanta. The clone wins at t=25 and shrinks c0's
  // realized span into its first quantum; the billing floor still charges
  // the shadow lease, so speculation never changes the bill.
  TwoContainerScenario sc(10.0);
  ExecSimulator sim(NoError());
  FaultInjection off = IdentityFaults(2);
  off.trace.containers[0].slowdown = 7.0;
  auto base = sim.Run(sc.g, sc.plan, sc.costs, nullptr, &off);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->leased_quanta, 2 + 1);

  FaultInjection on = off;
  on.spec.speculate = true;
  auto spec = sim.Run(sc.g, sc.plan, sc.costs, nullptr, &on);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->spec_wins, 1);
  EXPECT_NEAR(spec->makespan, 25.0, 1e-9);
  EXPECT_EQ(spec->leased_quanta, base->leased_quanta);
  // The floor's paid but idle time shows up as idle, not as busy.
  EXPECT_NEAR(spec->total_idle, 3 * 60.0 - 25.0 - 5.0 - 10.0, 1e-9);
}

TEST(SpeculationTest, LosingCloneCancelledWithSlotTimeReturned) {
  // op0: 20 s healthy, 40 s at 2x. Watermark at 30 s; the clone needs 20 s
  // (finish 50) and loses to the original (40). It is cancelled at 40, and
  // the 10 reserved seconds it never used are reported back.
  TwoContainerScenario sc(20.0);
  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(2);
  fi.trace.containers[0].slowdown = 2.0;
  fi.spec.speculate = true;
  fi.spec.spec_slowdown_threshold = 1.5;
  auto r = sim.Run(sc.g, sc.plan, sc.costs, nullptr, &fi);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ops_speculated, 1);
  EXPECT_EQ(r->spec_wins, 0);
  EXPECT_EQ(r->spec_cancelled, 1);
  EXPECT_NEAR(r->spec_cancelled_seconds, 10.0, 1e-9);
  EXPECT_NEAR(r->makespan, 40.0, 1e-9);
  EXPECT_EQ(r->leased_quanta, 2);
  const Assignment* clone = FindAssignment(r->actual, 0, 1);
  ASSERT_NE(clone, nullptr);
  EXPECT_NEAR(clone->start, 30.0, 1e-9);
  EXPECT_NEAR(clone->end, 40.0, 1e-9);  // occupancy ends at cancellation
}

TEST(SpeculationTest, TieGoesToTheOriginalDeterministically) {
  // slowdown 2.5 makes the clone finish exactly with the original
  // (watermark 15 + 10 s clone == 25 s == 10 s at 2.5x): the original wins
  // the tie, every time.
  TwoContainerScenario sc(10.0);
  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(2);
  fi.trace.containers[0].slowdown = 2.5;
  fi.spec.speculate = true;
  fi.spec.spec_slowdown_threshold = 1.5;
  for (int rep = 0; rep < 2; ++rep) {
    auto r = sim.Run(sc.g, sc.plan, sc.costs, nullptr, &fi);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->ops_speculated, 1);
    EXPECT_EQ(r->spec_wins, 0) << "a tie must go to the original";
    EXPECT_EQ(r->spec_cancelled, 1);
    EXPECT_NEAR(r->makespan, 25.0, 1e-9);
    const Assignment* orig = FindAssignment(r->actual, 0, 0);
    ASSERT_NE(orig, nullptr);
    EXPECT_NEAR(orig->end, 25.0, 1e-9);
  }
}

TEST(SpeculationTest, EqualCandidatesBreakTiesByLowestContainer) {
  // Two interchangeable drained healthy hosts: the clone must land on the
  // lower-indexed one, deterministically.
  Dag g;
  for (Seconds t : {10.0, 5.0, 5.0}) {
    Operator op;
    op.time = t;
    g.AddOperator(std::move(op));
  }
  Schedule plan;
  plan.Add(Assignment{1, 1, 0.0, 5.0, false});
  plan.Add(Assignment{2, 2, 0.0, 5.0, false});
  plan.Add(Assignment{0, 0, 10.0, 20.0, false});
  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(3);
  fi.trace.containers[0].slowdown = 5.0;
  fi.spec.speculate = true;
  fi.spec.spec_slowdown_threshold = 1.5;
  auto r = sim.Run(g, plan, CpuOnlyCosts(g), nullptr, &fi);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->spec_wins, 1);
  EXPECT_NE(FindAssignment(r->actual, 0, 1), nullptr);
  EXPECT_EQ(FindAssignment(r->actual, 0, 2), nullptr);
}

TEST(SpeculationTest, NoHealthyDrainedHostMeansNoClone) {
  // Both containers straggle: there is no healthy host, so the candidate is
  // detected but never cloned (speculating onto another straggler would
  // waste the slot).
  TwoContainerScenario sc(10.0);
  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(2);
  fi.trace.containers[0].slowdown = 5.0;
  fi.trace.containers[1].slowdown = 2.0;
  fi.spec.speculate = true;
  auto r = sim.Run(sc.g, sc.plan, sc.costs, nullptr, &fi);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ops_speculated, 0);
  EXPECT_NEAR(r->makespan, 50.0, 1e-9);
}

TEST(SpeculationTest, CloneRefusedWhenItWouldNeedNewQuanta) {
  // op0: 30 s healthy, watermark at 45 s. The clone would run 45..75 on c1,
  // but c1's shadow lease is a single quantum (ends at 60): spawning it
  // would extend the lease, so the cost guard refuses and the straggler
  // just runs its course.
  TwoContainerScenario sc(30.0);
  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(2);
  fi.trace.containers[0].slowdown = 5.0;
  fi.spec.speculate = true;
  fi.spec.spec_slowdown_threshold = 1.5;
  auto r = sim.Run(sc.g, sc.plan, sc.costs, nullptr, &fi);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ops_speculated, 0);
  EXPECT_NEAR(r->makespan, 150.0, 1e-9);
  EXPECT_EQ(r->leased_quanta, 1 + 3);  // c1: 1 quantum, c0: 150 s -> 3
}

TEST(SpeculationTest, SpecOnWithHealthyTraceBitIdenticalToSpecOff) {
  // The overlay (shadow pass + floor) is active, but nothing crosses the
  // watermark: every output must be bit-identical to the plain simulator —
  // this is the zero-rate identity the disabled path inherits from.
  Dag g = testutil::Diamond(10, 20, 15, 10, 50.0);
  SkylineScheduler sched{SchedulerOptions{}};
  auto skyline = sched.ScheduleDag(g, testutil::OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  Schedule plan = skyline->front();
  SimOptions o = NoError();
  o.time_error = 0.2;
  o.data_error = 0.2;
  o.seed = 23;
  ExecSimulator sim(o);

  FaultInjection off = IdentityFaults(plan.num_containers());
  auto base = sim.Run(g, plan, CpuOnlyCosts(g), nullptr, &off);
  ASSERT_TRUE(base.ok());

  FaultInjection on = IdentityFaults(plan.num_containers());
  on.spec.speculate = true;
  on.spec.hedge_reads = true;
  auto spec = sim.Run(g, plan, CpuOnlyCosts(g), nullptr, &on);
  ASSERT_TRUE(spec.ok());

  EXPECT_EQ(base->makespan, spec->makespan);  // bit-identical
  EXPECT_EQ(base->leased_quanta, spec->leased_quanta);
  EXPECT_EQ(base->total_idle, spec->total_idle);
  EXPECT_EQ(base->executed_ops, spec->executed_ops);
  EXPECT_EQ(spec->ops_speculated, 0);
  EXPECT_EQ(spec->hedged_reads, 0);
  ASSERT_EQ(base->actual.size(), spec->actual.size());
  for (size_t i = 0; i < base->actual.size(); ++i) {
    EXPECT_EQ(base->actual.assignments()[i].start,
              spec->actual.assignments()[i].start);
    EXPECT_EQ(base->actual.assignments()[i].end,
              spec->actual.assignments()[i].end);
  }
}

// ---- Hedged reads ----------------------------------------------------------

TEST(HedgeTest, HedgeRescuesFaultedReadWithoutExtraQuanta) {
  // Find a (run_key, op) whose primary read faults while the hedge
  // duplicate's independent draw does not — then the duplicate, issued at
  // hedge_after, beats the primary by the full fault latency.
  FaultOptions fo;
  fo.storage_fault_rate = 0.5;
  fo.storage_fault_latency = 30.0;
  fo.seed = 3;
  FaultModel model(fo);
  uint64_t run_key = 0;
  bool found = false;
  for (uint64_t rk = 1; rk < 64 && !found; ++rk) {
    if (model.StorageOpFaults(rk, 0) &&
        !model.StorageOpFaults(rk, uint64_t{0} | kHedgeAttemptBit)) {
      run_key = rk;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  Dag g;
  Operator op;
  op.time = 10.0;
  g.AddOperator(op);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0.0, 11.0, false});
  std::vector<SimOpCost> costs{SimOpCost{10.0, 125.0, "t/p0"}};
  ExecSimulator sim(NoError());

  FaultInjection fi = IdentityFaults(1);
  fi.model = &model;
  fi.run_key = run_key;
  auto base = sim.Run(g, plan, costs, nullptr, &fi);
  ASSERT_TRUE(base.ok());
  EXPECT_NEAR(base->makespan, 10.0 + 1.0 + 30.0, 1e-9);
  EXPECT_EQ(base->storage_reads, 1);
  EXPECT_EQ(base->storage_faults, 1);

  fi.spec.hedge_reads = true;
  fi.spec.hedge_after = 5.0;
  auto hedged = sim.Run(g, plan, costs, nullptr, &fi);
  ASSERT_TRUE(hedged.ok());
  // Duplicate issued at 5 s, clean read takes 1 s: op sees a 6 s fetch.
  EXPECT_NEAR(hedged->makespan, 10.0 + 5.0 + 1.0, 1e-9);
  EXPECT_EQ(hedged->hedged_reads, 1);
  EXPECT_EQ(hedged->hedge_wins, 1);
  EXPECT_EQ(hedged->storage_reads, 2);  // primary + duplicate
  EXPECT_EQ(hedged->leased_quanta, base->leased_quanta);
}

TEST(HedgeTest, LosingHedgeLeavesLatencyUnchanged) {
  // Rate 1.0: the duplicate's independent draw faults too, so the primary
  // (1 + 30 s) still beats it (5 + 1 + 30 s) — latency is bit-identical to
  // the un-hedged run, with the duplicate counted but not winning.
  FaultOptions fo;
  fo.storage_fault_rate = 1.0;
  fo.storage_fault_latency = 30.0;
  FaultModel model(fo);
  Dag g;
  Operator op;
  op.time = 10.0;
  g.AddOperator(op);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0.0, 11.0, false});
  std::vector<SimOpCost> costs{SimOpCost{10.0, 125.0, "t/p0"}};
  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(1);
  fi.model = &model;
  fi.run_key = 1;
  auto base = sim.Run(g, plan, costs, nullptr, &fi);
  fi.spec.hedge_reads = true;
  fi.spec.hedge_after = 5.0;
  auto hedged = sim.Run(g, plan, costs, nullptr, &fi);
  ASSERT_TRUE(base.ok() && hedged.ok());
  EXPECT_EQ(base->makespan, hedged->makespan);  // bit-identical
  EXPECT_EQ(hedged->hedged_reads, 1);
  EXPECT_EQ(hedged->hedge_wins, 0);
  EXPECT_EQ(hedged->storage_faults, 2);  // both draws faulted
}

TEST(HedgeTest, SuppressedHedgingBitIdenticalToNoHedging) {
  FaultOptions fo;
  fo.storage_fault_rate = 0.5;
  fo.storage_fault_latency = 30.0;
  FaultModel model(fo);
  Dag g;
  Operator op;
  op.time = 10.0;
  g.AddOperator(op);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0.0, 11.0, false});
  std::vector<SimOpCost> costs{SimOpCost{10.0, 125.0, "t/p0"}};
  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(1);
  fi.model = &model;
  fi.run_key = 2;
  auto base = sim.Run(g, plan, costs, nullptr, &fi);
  fi.spec.hedge_reads = true;
  fi.spec.hedge_after = 5.0;
  fi.spec.suppress_hedges = true;  // what the open breaker does
  auto sup = sim.Run(g, plan, costs, nullptr, &fi);
  ASSERT_TRUE(base.ok() && sup.ok());
  EXPECT_EQ(base->makespan, sup->makespan);  // bit-identical
  EXPECT_EQ(sup->hedged_reads, 0);
  EXPECT_EQ(sup->hedge_wins, 0);
}

// ---- QaasService end-to-end ------------------------------------------------

struct SpecServiceFixture {
  explicit SpecServiceFixture(const FaultOptions& faults,
                              const SpeculationOptions& spec,
                              uint64_t seed = 5) {
    FileDatabaseOptions fdo;
    fdo.montage_files = 4;
    fdo.ligo_files = 4;
    fdo.cybershake_files = 4;
    db = std::make_unique<FileDatabase>(&catalog, fdo);
    EXPECT_TRUE(db->Populate().ok());
    gen = std::make_unique<DataflowGenerator>(db.get(), seed);
    ServiceOptions so;
    so.policy = IndexPolicy::kGain;
    so.total_time = 60.0 * 60.0;
    so.tuner.sched.max_containers = 12;
    so.tuner.sched.skyline_cap = 3;
    so.sim.time_error = 0.1;
    so.sim.data_error = 0.1;
    so.faults = faults;
    so.speculation = spec;
    so.seed = seed;
    service = std::make_unique<QaasService>(&catalog, so);
  }

  ServiceMetrics RunMontage(uint64_t seed = 5) {
    PhaseWorkloadClient client(gen.get(), 60.0, {{AppType::kMontage, 1e9}},
                               seed);
    auto m = service->Run(&client);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? *m : ServiceMetrics{};
  }

  Catalog catalog;
  std::unique_ptr<FileDatabase> db;
  std::unique_ptr<DataflowGenerator> gen;
  std::unique_ptr<QaasService> service;
};

SpeculationOptions SpecOn() {
  SpeculationOptions s;
  s.speculate = true;
  s.spec_slowdown_threshold = 1.5;
  s.hedge_reads = true;
  s.hedge_after = 10.0;
  return s;
}

TEST(ServiceSpecTest, ZeroRateSpecOnBitIdenticalToSpecOff) {
  // With all fault rates zero there is nothing to speculate on or hedge:
  // the tail-tolerance layer must be invisible, bit for bit.
  SpecServiceFixture off{FaultOptions{}, SpeculationOptions{}};
  ServiceMetrics a = off.RunMontage();
  SpecServiceFixture on{FaultOptions{}, SpecOn()};
  ServiceMetrics b = on.RunMontage();
  EXPECT_EQ(a.dataflows_finished, b.dataflows_finished);
  EXPECT_EQ(a.total_time_quanta, b.total_time_quanta);  // bit-identical
  EXPECT_EQ(a.total_vm_quanta, b.total_vm_quanta);
  EXPECT_EQ(a.storage_cost, b.storage_cost);
  EXPECT_EQ(a.index_partitions_built, b.index_partitions_built);
  EXPECT_EQ(b.ops_speculated, 0);
  EXPECT_EQ(b.spec_wins, 0);
  EXPECT_EQ(b.hedged_reads, 0);
  EXPECT_EQ(b.hedge_wins, 0);
}

TEST(ServiceSpecTest, StragglersSpeculatedAndFullyAccounted) {
  FaultOptions fo;
  fo.straggler_rate = 0.4;
  fo.straggler_slowdown_min = 2.5;
  fo.straggler_slowdown_max = 4.0;
  fo.seed = 21;
  SpecServiceFixture f(fo, SpecOn());
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  EXPECT_GT(m.ops_speculated, 0);
  // `Run` checked that every spawned clone resolves exactly one way and
  // that cancelled clones leave no catalog/storage trace.
  EXPECT_GE(m.spec_cancelled_quanta, 0.0);
  EXPECT_EQ(m.dataflows_failed, 0);  // stragglers slow, never kill
}

TEST(ServiceSpecTest, ReproducibleUnderSpeculation) {
  FaultOptions fo;
  fo.straggler_rate = 0.3;
  fo.storage_fault_rate = 0.2;
  fo.storage_fault_latency = 20.0;
  fo.seed = 21;
  SpecServiceFixture a(fo, SpecOn());
  SpecServiceFixture b(fo, SpecOn());
  ServiceMetrics ma = a.RunMontage();
  ServiceMetrics mb = b.RunMontage();
  EXPECT_EQ(ma.dataflows_finished, mb.dataflows_finished);
  EXPECT_EQ(ma.ops_speculated, mb.ops_speculated);
  EXPECT_EQ(ma.spec_wins, mb.spec_wins);
  EXPECT_EQ(ma.spec_cancelled, mb.spec_cancelled);
  EXPECT_EQ(ma.spec_cancelled_quanta, mb.spec_cancelled_quanta);
  EXPECT_EQ(ma.hedged_reads, mb.hedged_reads);
  EXPECT_EQ(ma.hedge_wins, mb.hedge_wins);
  EXPECT_EQ(ma.storage_reads, mb.storage_reads);
  EXPECT_EQ(ma.total_vm_quanta, mb.total_vm_quanta);
  EXPECT_EQ(ma.total_time_quanta, mb.total_time_quanta);  // bit-identical
}

TEST(ServiceSpecTest, HedgingCountsReadsAndNeverBreaksAccounting) {
  FaultOptions fo;
  fo.storage_fault_rate = 0.3;
  fo.storage_fault_latency = 25.0;
  fo.seed = 13;
  SpeculationOptions spec;
  spec.hedge_reads = true;
  spec.hedge_after = 5.0;
  SpecServiceFixture f(fo, spec);
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  EXPECT_GT(m.hedged_reads, 0);
  EXPECT_LE(m.hedge_wins, m.hedged_reads);
  // The read-side accounting identity (storage_retries covers Puts only).
  EXPECT_GT(m.storage_reads, 0);
  EXPECT_LE(m.storage_faults, m.storage_reads + m.storage_retries);
}

TEST(ServiceSpecTest, OpenLoopZeroSlackIdentityHoldsWithSpeculation) {
  FileDatabaseOptions fdo;
  fdo.montage_files = 4;
  fdo.ligo_files = 4;
  fdo.cybershake_files = 4;
  Catalog catalog;
  FileDatabase db(&catalog, fdo);
  ASSERT_TRUE(db.Populate().ok());
  DataflowGenerator gen(&db, 5);
  ServiceOptions so;
  so.policy = IndexPolicy::kGain;
  so.total_time = 40.0 * 60.0;
  so.tuner.sched.max_containers = 12;
  so.tuner.sched.skyline_cap = 3;
  so.sim.time_error = 0.1;
  so.sim.data_error = 0.1;
  so.faults.straggler_rate = 0.3;
  so.faults.storage_fault_rate = 0.1;
  so.faults.crash_rate = 0.02;
  so.faults.seed = 31;
  so.speculation = SpecOn();
  so.admission.open_loop = true;
  so.admission.max_queue = 6;
  so.admission.shed = ShedPolicy::kRejectNewest;
  so.seed = 5;
  QaasService service(&catalog, so);
  ArrivalOptions arrivals;
  arrivals.mean_interarrival = 20.0;
  OpenLoopWorkloadClient client(&gen, arrivals, {{AppType::kMontage, 1e9}}, 5);
  // `Run` fails unless the arrival and speculation identities hold.
  auto m = service.Run(&client);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_GT(m->ops_speculated, 0);
}

}  // namespace
}  // namespace dfim
