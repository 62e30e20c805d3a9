#include "cloud/fault_model.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/service.h"
#include "sched/skyline_scheduler.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

using testutil::Chain;
using testutil::IdentityFaults;
using testutil::OpTimes;

// ---- FaultModel: deterministic trace drawing -------------------------------

TEST(FaultModelTest, ZeroRatesDisabled) {
  FaultOptions fo;  // all rates default to zero
  FaultModel model(fo);
  EXPECT_FALSE(model.enabled());
  FaultTrace t = model.DrawTrace(/*run_key=*/7, /*num_containers=*/8,
                                 /*horizon=*/600.0, /*quantum=*/60.0);
  ASSERT_EQ(t.containers.size(), 8u);
  EXPECT_FALSE(t.any());
  for (const auto& c : t.containers) {
    EXPECT_EQ(c.crash_at, kNeverFails);
    EXPECT_DOUBLE_EQ(c.slowdown, 1.0);
  }
  EXPECT_FALSE(model.StorageOpFaults(7, 42));
}

TEST(FaultModelTest, SameSeedSameTrace) {
  FaultOptions fo;
  fo.crash_rate = 0.1;
  fo.straggler_rate = 0.5;
  fo.storage_fault_rate = 0.2;
  fo.seed = 11;
  FaultModel a(fo);
  FaultModel b(fo);
  FaultTrace ta = a.DrawTrace(3, 16, 1200.0, 60.0);
  FaultTrace tb = b.DrawTrace(3, 16, 1200.0, 60.0);
  ASSERT_EQ(ta.containers.size(), tb.containers.size());
  for (size_t i = 0; i < ta.containers.size(); ++i) {
    // Bit-identical, not merely close.
    EXPECT_EQ(ta.containers[i].crash_at, tb.containers[i].crash_at);
    EXPECT_EQ(ta.containers[i].slowdown, tb.containers[i].slowdown);
  }
  for (uint64_t op = 0; op < 64; ++op) {
    EXPECT_EQ(a.StorageOpFaults(3, op), b.StorageOpFaults(3, op));
  }
}

TEST(FaultModelTest, DifferentSeedOrRunKeyDiffers) {
  FaultOptions fo;
  fo.crash_rate = 0.3;
  fo.straggler_rate = 0.5;
  fo.seed = 11;
  FaultModel a(fo);
  fo.seed = 12;
  FaultModel b(fo);
  auto differs = [](const FaultTrace& x, const FaultTrace& y) {
    for (size_t i = 0; i < x.containers.size(); ++i) {
      if (x.containers[i].crash_at != y.containers[i].crash_at ||
          x.containers[i].slowdown != y.containers[i].slowdown) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(differs(a.DrawTrace(3, 32, 1200.0, 60.0),
                      b.DrawTrace(3, 32, 1200.0, 60.0)));
  EXPECT_TRUE(differs(a.DrawTrace(3, 32, 1200.0, 60.0),
                      a.DrawTrace(4, 32, 1200.0, 60.0)));
}

TEST(FaultModelTest, RatesScaleFaultFrequency) {
  auto crashes = [](double rate) {
    FaultOptions fo;
    fo.crash_rate = rate;
    fo.seed = 5;
    FaultModel m(fo);
    int n = 0;
    for (uint64_t run = 0; run < 50; ++run) {
      for (const auto& c : m.DrawTrace(run, 8, 600.0, 60.0).containers) {
        n += c.crashes() ? 1 : 0;
      }
    }
    return n;
  };
  int none = crashes(0.0);
  int some = crashes(0.02);
  int many = crashes(0.2);
  EXPECT_EQ(none, 0);
  EXPECT_GT(some, 0);
  EXPECT_GT(many, some);
}

TEST(FaultModelTest, StragglerSlowdownWithinRange) {
  FaultOptions fo;
  fo.straggler_rate = 1.0;
  fo.straggler_slowdown_min = 1.5;
  fo.straggler_slowdown_max = 3.0;
  FaultModel m(fo);
  FaultTrace t = m.DrawTrace(9, 16, 600.0, 60.0);
  for (const auto& c : t.containers) {
    EXPECT_TRUE(c.straggles());
    EXPECT_GE(c.slowdown, 1.5);
    EXPECT_LE(c.slowdown, 3.0);
  }
}

// ---- Knob validation (fail fast, not garbage draws) ------------------------

TEST(FaultOptionsValidationTest, RejectsOutOfRangeKnobs) {
  EXPECT_TRUE(ValidateFaultOptions(FaultOptions{}).ok());

  FaultOptions neg;
  neg.crash_rate = -0.1;
  EXPECT_TRUE(ValidateFaultOptions(neg).IsInvalidArgument());

  FaultOptions over;
  over.straggler_rate = 1.5;
  EXPECT_TRUE(ValidateFaultOptions(over).IsInvalidArgument());

  FaultOptions storage_over;
  storage_over.storage_fault_rate = 2.0;
  EXPECT_TRUE(ValidateFaultOptions(storage_over).IsInvalidArgument());

  FaultOptions speedup;  // a "slowdown" below 1 would speed ops up
  speedup.straggler_slowdown_min = 0.5;
  EXPECT_TRUE(ValidateFaultOptions(speedup).IsInvalidArgument());

  FaultOptions inverted;
  inverted.straggler_slowdown_min = 3.0;
  inverted.straggler_slowdown_max = 2.0;
  EXPECT_TRUE(ValidateFaultOptions(inverted).IsInvalidArgument());

  FaultOptions no_latency;
  no_latency.storage_fault_rate = 0.5;
  no_latency.storage_fault_latency = 0.0;
  EXPECT_TRUE(ValidateFaultOptions(no_latency).IsInvalidArgument());
}

TEST(FaultOptionsValidationTest, SimulatorRejectsBadModelOptions) {
  Dag g = Chain(2, 10);
  SkylineScheduler sched{SchedulerOptions{}};
  auto skyline = sched.ScheduleDag(g, OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  Schedule plan = skyline->front();
  std::vector<SimOpCost> costs(g.num_ops());
  for (const auto& op : g.ops()) {
    costs[static_cast<size_t>(op.id)] = SimOpCost{op.time, 0, ""};
  }
  FaultOptions bad;
  bad.crash_rate = -1.0;
  FaultModel model(bad);
  FaultInjection fi;
  fi.trace.containers.resize(static_cast<size_t>(plan.num_containers()));
  fi.model = &model;
  SimOptions so;
  ExecSimulator sim(so);
  auto r = sim.Run(g, plan, costs, nullptr, &fi);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());

  FaultInjection spec_fi;
  spec_fi.trace.containers.resize(static_cast<size_t>(plan.num_containers()));
  spec_fi.spec.speculate = true;
  spec_fi.spec.spec_slowdown_threshold = 1.0;  // must be > 1
  auto s = sim.Run(g, plan, costs, nullptr, &spec_fi);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsInvalidArgument());

  spec_fi.spec.spec_slowdown_threshold = 1.5;
  spec_fi.spec.hedge_reads = true;
  spec_fi.spec.hedge_after = 0.0;  // must be positive
  auto h = sim.Run(g, plan, costs, nullptr, &spec_fi);
  EXPECT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsInvalidArgument());
}

TEST(FaultOptionsValidationTest, ServiceRejectsBadKnobsAtEntry) {
  auto run_with = [](FaultOptions faults, SpeculationOptions spec) {
    Catalog catalog;
    FileDatabaseOptions fdo;
    fdo.montage_files = 2;
    FileDatabase db(&catalog, fdo);
    EXPECT_TRUE(db.Populate().ok());
    DataflowGenerator gen(&db, 5);
    ServiceOptions so;
    so.total_time = 10.0 * 60.0;
    so.faults = faults;
    so.speculation = spec;
    QaasService service(&catalog, so);
    PhaseWorkloadClient client(&gen, 60.0, {{AppType::kMontage, 1e9}}, 5);
    return service.Run(&client).status();
  };
  FaultOptions bad_rate;
  bad_rate.straggler_rate = -0.2;
  EXPECT_TRUE(run_with(bad_rate, SpeculationOptions{}).IsInvalidArgument());

  FaultOptions bad_range;
  bad_range.straggler_slowdown_min = 4.0;
  bad_range.straggler_slowdown_max = 2.0;
  EXPECT_TRUE(run_with(bad_range, SpeculationOptions{}).IsInvalidArgument());

  SpeculationOptions bad_threshold;
  bad_threshold.speculate = true;
  bad_threshold.spec_slowdown_threshold = 0.9;
  EXPECT_TRUE(run_with(FaultOptions{}, bad_threshold).IsInvalidArgument());

  SpeculationOptions bad_hedge;
  bad_hedge.hedge_reads = true;
  bad_hedge.hedge_after = -1.0;
  EXPECT_TRUE(run_with(FaultOptions{}, bad_hedge).IsInvalidArgument());
}

// ---- ExecSimulator under injected faults -----------------------------------

SimOptions NoError() {
  SimOptions o;
  o.quantum = 60;
  o.net_mb_per_sec = 125;
  return o;
}

std::vector<SimOpCost> CostsFromTimes(const Dag& g) {
  std::vector<SimOpCost> costs(g.num_ops());
  for (const auto& op : g.ops()) {
    costs[static_cast<size_t>(op.id)] = SimOpCost{op.time, 0, ""};
  }
  return costs;
}

Schedule PlanOf(const Dag& g) {
  SkylineScheduler sched{SchedulerOptions{}};
  auto skyline = sched.ScheduleDag(g, OpTimes(g));
  EXPECT_TRUE(skyline.ok());
  return skyline->front();
}

TEST(ExecSimFaultTest, IdentityTraceBitIdenticalToNoInjection) {
  Dag g = Chain(6, 25);
  Schedule plan = PlanOf(g);
  SimOptions o = NoError();
  o.time_error = 0.3;
  o.seed = 17;
  ExecSimulator sim(o);
  auto base = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(base.ok());
  FaultInjection fi = IdentityFaults(plan.num_containers());
  auto injected = sim.Run(g, plan, CostsFromTimes(g), nullptr, &fi);
  ASSERT_TRUE(injected.ok());
  EXPECT_EQ(base->makespan, injected->makespan);  // bit-identical
  EXPECT_EQ(base->leased_quanta, injected->leased_quanta);
  EXPECT_TRUE(injected->complete);
  EXPECT_TRUE(injected->lost_ops.empty());
  EXPECT_TRUE(injected->losses.empty());
}

/// Every field of `got` equals `want`'s, with `==`.
void ExpectSameResult(const ExecResult& got, const ExecResult& want) {
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.leased_quanta, want.leased_quanta);
  EXPECT_EQ(got.total_idle, want.total_idle);
  EXPECT_EQ(got.executed_ops, want.executed_ops);
  EXPECT_EQ(got.killed_builds, want.killed_builds);
  EXPECT_EQ(got.storage_faults, want.storage_faults);
  EXPECT_EQ(got.storage_reads, want.storage_reads);
  EXPECT_EQ(got.ops_speculated, want.ops_speculated);
  EXPECT_EQ(got.spec_wins, want.spec_wins);
  EXPECT_EQ(got.spec_cancelled, want.spec_cancelled);
  EXPECT_EQ(got.spec_cancelled_seconds, want.spec_cancelled_seconds);
  EXPECT_EQ(got.hedged_reads, want.hedged_reads);
  EXPECT_EQ(got.hedge_wins, want.hedge_wins);
  EXPECT_EQ(got.verified_reads, want.verified_reads);
  EXPECT_EQ(got.corrupt_reads, want.corrupt_reads);
  EXPECT_EQ(got.complete, want.complete);
  ASSERT_EQ(got.builds.size(), want.builds.size());
  for (size_t i = 0; i < got.builds.size(); ++i) {
    EXPECT_EQ(got.builds[i].index_id, want.builds[i].index_id);
    EXPECT_EQ(got.builds[i].partition, want.builds[i].partition);
    EXPECT_EQ(got.builds[i].finish, want.builds[i].finish);
    EXPECT_EQ(got.builds[i].container, want.builds[i].container);
  }
  ASSERT_EQ(got.kills.size(), want.kills.size());
  for (size_t i = 0; i < got.kills.size(); ++i) {
    EXPECT_EQ(got.kills[i].index_id, want.kills[i].index_id);
    EXPECT_EQ(got.kills[i].partition, want.kills[i].partition);
    EXPECT_EQ(got.kills[i].ran_for, want.kills[i].ran_for);
  }
  ASSERT_EQ(got.lost_ops.size(), want.lost_ops.size());
  for (size_t i = 0; i < got.lost_ops.size(); ++i) {
    EXPECT_EQ(got.lost_ops[i].op_id, want.lost_ops[i].op_id);
    EXPECT_EQ(got.lost_ops[i].container, want.lost_ops[i].container);
    EXPECT_EQ(got.lost_ops[i].optional, want.lost_ops[i].optional);
  }
  ASSERT_EQ(got.losses.size(), want.losses.size());
  for (size_t i = 0; i < got.losses.size(); ++i) {
    EXPECT_EQ(got.losses[i].container, want.losses[i].container);
    EXPECT_EQ(got.losses[i].at, want.losses[i].at);
    EXPECT_EQ(got.losses[i].preempted, want.losses[i].preempted);
  }
  const auto& ga = got.actual.assignments();
  const auto& wa = want.actual.assignments();
  ASSERT_EQ(ga.size(), wa.size());
  for (size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(ga[i].op_id, wa[i].op_id);
    EXPECT_EQ(ga[i].container, wa[i].container);
    EXPECT_EQ(ga[i].start, wa[i].start);
    EXPECT_EQ(ga[i].end, wa[i].end);
    EXPECT_EQ(ga[i].optional, wa[i].optional);
  }
}

// The service attaches its fault model to every execution, so a zero-rate
// model must leave the simulator exactly where no injection leaves it:
// external inputs with cache keys on real containers (cold, then warm),
// estimation errors drawn from a nonzero seed, and build ops in the plan.
TEST(ExecSimFaultTest, ZeroRateModelBitIdenticalToNoInjection) {
  Dag g = testutil::Diamond(20, 30, 25, 15, /*flow=*/500);
  for (int i = 0; i < 3; ++i) {
    Operator build = Operator::BuildIndex(static_cast<int>(g.num_ops()),
                                          "idx", i, 12.0 + 9.0 * i, 64);
    build.gain = 1.0 + i;
    g.AddOperator(std::move(build));
  }
  std::vector<SimOpCost> costs = CostsFromTimes(g);
  costs[0] = SimOpCost{20, 2500, "t|v1"};
  costs[1] = SimOpCost{30, 1250, "t|v1"};
  costs[2] = SimOpCost{25, 800, "u|v3"};
  std::vector<Seconds> durations(g.num_ops());
  for (const auto& op : g.ops()) {
    const SimOpCost& c = costs[static_cast<size_t>(op.id)];
    durations[static_cast<size_t>(op.id)] = c.cpu_time + c.input_mb / 125.0;
  }
  SchedulerOptions so;
  so.max_containers = 3;
  auto skyline = SkylineScheduler(so).ScheduleDag(g, durations);
  ASSERT_TRUE(skyline.ok());
  const Schedule& plan = skyline->front();
  const int nc = plan.num_containers();

  SimOptions o = NoError();
  o.time_error = 0.3;
  o.data_error = 0.2;
  o.seed = 29;
  const FaultModel zero{FaultOptions{}};
  ASSERT_FALSE(zero.enabled());
  FaultInjection fi;
  fi.model = &zero;
  fi.run_key = 0x9e3779b9ULL;
  fi.trace = zero.DrawTrace(fi.run_key, nc, plan.TotalSpan(), o.quantum);

  // Two runs on one fresh fleet: the first fills the caches, the second
  // reads through them.
  auto run_twice = [&](const FaultInjection* faults) {
    PricingModel pricing;
    std::vector<std::unique_ptr<Container>> owned;
    std::vector<Container*> containers;
    for (int c = 0; c < nc; ++c) {
      owned.push_back(
          std::make_unique<Container>(c, ContainerSpec{}, pricing, 0));
      containers.push_back(owned.back().get());
    }
    ExecSimulator sim(o);
    std::vector<ExecResult> out;
    for (int rep = 0; rep < 2; ++rep) {
      auto r = sim.Run(g, plan, costs, &containers, faults);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) out.push_back(*std::move(r));
    }
    return out;
  };
  std::vector<ExecResult> base = run_twice(nullptr);
  std::vector<ExecResult> injected = run_twice(&fi);
  ASSERT_EQ(base.size(), 2u);
  ASSERT_EQ(injected.size(), 2u);
  for (size_t rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE(rep == 0 ? "cold caches" : "warm caches");
    ExpectSameResult(injected[rep], base[rep]);
  }
  // The comparison covered cache hits and completed builds.
  EXPECT_LT(base[1].storage_reads, base[0].storage_reads);
  EXPECT_FALSE(base[0].builds.empty());
}

TEST(ExecSimFaultTest, CrashLosesUnfinishedOpsAndCascades) {
  // Chain of 4 × 15 s on one container; crash at t=40 kills op 2 mid-run
  // and dooms op 3 (its parent's output died with the local disk).
  Dag g = Chain(4, 15);
  Schedule plan = PlanOf(g);
  ASSERT_EQ(plan.num_containers(), 1);
  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(1);
  fi.trace.containers[0].crash_at = 40.0;
  auto r = sim.Run(g, plan, CostsFromTimes(g), nullptr, &fi);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->complete);
  ASSERT_EQ(r->losses.size(), 1u);
  EXPECT_EQ(r->losses[0].container, 0);
  EXPECT_DOUBLE_EQ(r->losses[0].at, 40.0);
  EXPECT_FALSE(r->losses[0].preempted);
  ASSERT_EQ(r->lost_ops.size(), 2u);  // ops 2 (truncated) and 3 (doomed)
  EXPECT_EQ(r->lost_ops[0].op_id, 2);
  EXPECT_EQ(r->lost_ops[1].op_id, 3);
  // Only ops 0 and 1 finished; the makespan reflects completed work.
  EXPECT_DOUBLE_EQ(r->makespan, 30.0);
  // The lease is charged through the failure quantum only.
  EXPECT_EQ(r->leased_quanta, 1);
}

TEST(ExecSimFaultTest, CrashBeforeAnyWorkLosesWholeDataflow) {
  Dag g = Chain(3, 20);
  Schedule plan = PlanOf(g);
  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(plan.num_containers());
  for (auto& c : fi.trace.containers) c.crash_at = 0.0;
  auto r = sim.Run(g, plan, CostsFromTimes(g), nullptr, &fi);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->complete);
  EXPECT_EQ(r->lost_ops.size(), 3u);
  EXPECT_DOUBLE_EQ(r->makespan, 0.0);
}

TEST(ExecSimFaultTest, StragglerStretchesMakespan) {
  Dag g = Chain(4, 15);
  Schedule plan = PlanOf(g);
  ASSERT_EQ(plan.num_containers(), 1);
  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(1);
  fi.trace.containers[0].slowdown = 2.0;
  auto r = sim.Run(g, plan, CostsFromTimes(g), nullptr, &fi);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->complete);
  EXPECT_NEAR(r->makespan, 2.0 * 60.0, 1e-9);
  EXPECT_TRUE(r->losses.empty());
}

TEST(ExecSimFaultTest, StorageReadFaultAddsLatency) {
  // One op reading 125 MB (1 s transfer at 125 MB/s): a guaranteed storage
  // fault turns the fetch into 1 s + fault latency.
  Dag g;
  Operator op;
  op.time = 10.0;
  g.AddOperator(op);
  Schedule plan = PlanOf(g);
  std::vector<SimOpCost> costs{SimOpCost{10.0, 125.0, "t/p0"}};

  FaultOptions fo;
  fo.storage_fault_rate = 1.0;
  fo.storage_fault_latency = 30.0;
  FaultModel model(fo);
  FaultInjection fi = IdentityFaults(plan.num_containers());
  fi.model = &model;
  fi.run_key = 1;
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, costs, nullptr, &fi);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->storage_faults, 1);
  EXPECT_EQ(r->storage_reads, 1);  // one cache-miss fetch, no hedging
  EXPECT_NEAR(r->makespan, 10.0 + 1.0 + 30.0, 1e-9);
}

TEST(ExecSimFaultTest, CrashKilledBuildLeavesNoResumableProgress) {
  // A build op in the tail is cut by the crash: it must appear in lost_ops,
  // not in kills (its partial work died with the container's disk).
  Dag g = testutil::Independent(1, 30);
  Operator build = Operator::BuildIndex(1, "idx", 0, 25.0, 64);
  build.gain = 1;
  g.AddOperator(build);
  SkylineScheduler sched{SchedulerOptions{}};
  auto skyline = sched.ScheduleDag(g, OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  Schedule plan = skyline->front();
  ASSERT_EQ(plan.size(), 2u);

  ExecSimulator sim(NoError());
  FaultInjection fi = IdentityFaults(plan.num_containers());
  fi.trace.containers[0].crash_at = 40.0;  // dataflow op done at 30, build cut
  auto r = sim.Run(g, plan, CostsFromTimes(g), nullptr, &fi);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->complete);  // the mandatory op finished before the crash
  EXPECT_TRUE(r->builds.empty());
  EXPECT_TRUE(r->kills.empty());
  EXPECT_EQ(r->killed_builds, 1);
  ASSERT_EQ(r->lost_ops.size(), 1u);
  EXPECT_TRUE(r->lost_ops[0].optional);
}

// ---- Recovery suffix planner -----------------------------------------------

// Diamond 0 -> {1, 2} -> 3 (500 MB flows) plus build op 4. Container 0 runs
// 0, 1, the build and 3; container 1 runs 2.
TunerDecision DiamondDecision() {
  TunerDecision d;
  d.combined = testutil::Diamond(20, 30, 25, 15, /*flow=*/500);
  Operator build = Operator::BuildIndex(4, "idx", 0, 10.0, 64);
  build.gain = 1.0;
  d.combined.AddOperator(std::move(build));
  d.costs = CostsFromTimes(d.combined);
  d.costs[3] = SimOpCost{15, 100, "t|v1"};
  d.durations = OpTimes(d.combined);
  d.durations[3] += 100 / 125.0;
  d.chosen.Add(Assignment{0, 0, 0, 20, false});
  d.chosen.Add(Assignment{1, 0, 20, 50, false});
  d.chosen.Add(Assignment{4, 0, 50, 60, true});
  d.chosen.Add(Assignment{3, 0, 75, 90.8, false});
  d.chosen.Add(Assignment{2, 1, 20, 45, false});
  return d;
}

TEST(RecoverySuffixTest, CrashRerunsLostProducersAndRepaysSurvivors) {
  const TunerDecision d = DiamondDecision();
  // Container 0 dies at t=60, after 0 and 1 finished on it: the sink and
  // the build are lost, and so are the outputs of 0 and 1.
  ExecResult exec;
  exec.complete = false;
  exec.losses = {ContainerLoss{0, 60, false}};
  exec.lost_ops = {LostOp{4, 0, true}, LostOp{3, 0, false}};
  std::vector<int> ids = {0, 1, 2, 3, 4};
  std::vector<int> holders(5, -1);
  auto s = PlanRecoverySuffix(d, d.chosen, exec, /*hosts=*/{10, 11}, 125.0,
                              &ids, &holders);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  // 1 feeds the lost sink from the dead disk, and 0 feeds 1 from it: both
  // re-run. The lost build is dropped.
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 3}));
  const Dag& dag = s->combined;
  ASSERT_EQ(dag.num_ops(), 3u);
  for (const auto& op : dag.ops()) EXPECT_FALSE(op.optional);
  ASSERT_EQ(dag.num_flows(), 2u);
  EXPECT_EQ(dag.flows()[0].from, 0);
  EXPECT_EQ(dag.flows()[0].to, 1);
  EXPECT_EQ(dag.flows()[1].from, 1);
  EXPECT_EQ(dag.flows()[1].to, 2);
  // 2 finished on the live container: the sink re-pays its flow as input
  // and its cache key no longer matches.
  EXPECT_EQ(s->costs[2].input_mb, 100 + 500);
  EXPECT_TRUE(s->costs[2].cache_key.empty());
  EXPECT_EQ(s->durations[2], d.durations[3] + 500 / 125.0);
  EXPECT_EQ(s->costs[1].input_mb, 0);
  EXPECT_EQ(s->durations[0], d.durations[0]);

  // A second incomplete attempt over the suffix on fresh containers: 0 and
  // 1 finish on container 0, which lives; container 1 dies under the sink.
  // Only the sink re-runs, and it re-pays both producers' flows: 1's from
  // this attempt and 2's from the first.
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 20, false});
  plan.Add(Assignment{1, 0, 20, 50, false});
  plan.Add(Assignment{2, 1, 50, 69.8, false});
  ExecResult again;
  again.complete = false;
  again.losses = {ContainerLoss{1, 55, false}};
  again.lost_ops = {LostOp{2, 1, false}};
  auto s2 = PlanRecoverySuffix(d, plan, again, /*hosts=*/{12, 13}, 125.0,
                               &ids, &holders);
  ASSERT_TRUE(s2.ok()) << s2.status().ToString();
  EXPECT_EQ(ids, (std::vector<int>{3}));
  EXPECT_EQ(s2->combined.num_flows(), 0u);
  EXPECT_EQ(s2->costs[0].input_mb, 100 + 500 + 500);
  EXPECT_EQ(s2->durations[0], d.durations[3] + 500 / 125.0 + 500 / 125.0);
}

TEST(RecoverySuffixTest, OutputOnAReusedContainerDiesWithIt) {
  const TunerDecision d = DiamondDecision();
  // Attempt 0 as above: container 0 (id 10) dies at t=60 and 2's output
  // stays on container 1 (id 11), which lives.
  ExecResult exec;
  exec.complete = false;
  exec.losses = {ContainerLoss{0, 60, false}};
  exec.lost_ops = {LostOp{4, 0, true}, LostOp{3, 0, false}};
  std::vector<int> ids = {0, 1, 2, 3, 4};
  std::vector<int> holders(5, -1);
  ASSERT_TRUE(PlanRecoverySuffix(d, d.chosen, exec, /*hosts=*/{10, 11},
                                 125.0, &ids, &holders)
                  .ok());
  ASSERT_EQ(ids, (std::vector<int>{0, 1, 3}));
  // Attempt 1 reuses id 11 as its container 1, and it dies under the sink:
  // 2's output from attempt 0 dies with it, so 2 re-runs with the sink
  // instead of the sink re-paying a flow from a disk that is gone.
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 20, false});
  plan.Add(Assignment{1, 0, 20, 50, false});
  plan.Add(Assignment{2, 1, 50, 69.8, false});
  ExecResult again;
  again.complete = false;
  again.losses = {ContainerLoss{1, 55, false}};
  again.lost_ops = {LostOp{2, 1, false}};
  auto s = PlanRecoverySuffix(d, plan, again, /*hosts=*/{12, 11}, 125.0,
                              &ids, &holders);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(ids, (std::vector<int>{2, 3}));
  ASSERT_EQ(s->combined.num_flows(), 1u);
  EXPECT_EQ(s->combined.flows()[0].from, 0);
  EXPECT_EQ(s->combined.flows()[0].to, 1);
  // 2 re-pays 0's flow (0 finished on the live container 12); the sink
  // re-pays 1's and reads 2's from the suffix.
  EXPECT_EQ(s->costs[0].input_mb, 500);
  EXPECT_EQ(s->durations[0], d.durations[2] + 500 / 125.0);
  EXPECT_EQ(s->costs[1].input_mb, 100 + 500);
  EXPECT_EQ(s->durations[1], d.durations[3] + 500 / 125.0);
  EXPECT_EQ(holders[0], 12);
  EXPECT_EQ(holders[2], -1);
}

// ---- QaasService: recovery loop end-to-end ---------------------------------

struct FaultServiceFixture {
  explicit FaultServiceFixture(const FaultOptions& faults, uint64_t seed = 5,
                               Seconds horizon = 60.0 * 60.0) {
    FileDatabaseOptions fdo;
    fdo.montage_files = 4;
    fdo.ligo_files = 4;
    fdo.cybershake_files = 4;
    db = std::make_unique<FileDatabase>(&catalog, fdo);
    EXPECT_TRUE(db->Populate().ok());
    gen = std::make_unique<DataflowGenerator>(db.get(), seed);

    ServiceOptions so;
    so.policy = IndexPolicy::kGain;
    so.total_time = horizon;
    so.tuner.sched.max_containers = 12;
    so.tuner.sched.skyline_cap = 3;
    so.sim.time_error = 0.1;
    so.sim.data_error = 0.1;
    so.faults = faults;
    so.seed = seed;
    service = std::make_unique<QaasService>(&catalog, so);
  }

  /// Runs the closed loop. `Run` fails on any ledger slack: every dataflow
  /// is finished, failed, overran or shed, and the catalog never keeps a
  /// partition whose container died before the Put.
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

TEST(ServiceFaultTest, ZeroRatesCountNoFaults) {
  // All-zero fault rates: the fault model rides every execution, but no
  // crash, retry or discard is ever counted, and builds still persist.
  FaultServiceFixture zeroed{FaultOptions{}};
  ServiceMetrics m = zeroed.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  EXPECT_GT(m.index_partitions_built, 0);
  EXPECT_EQ(m.containers_failed, 0);
  EXPECT_EQ(m.dataflows_failed, 0);
  EXPECT_EQ(m.ops_reexecuted, 0);
  EXPECT_EQ(m.recovery_quanta, 0);
  EXPECT_EQ(m.storage_retries, 0);
  EXPECT_EQ(m.builds_discarded, 0);
  EXPECT_EQ(m.breaker_opens, 0);
}

TEST(ServiceFaultTest, SurvivesContainerCrashes) {
  FaultOptions fo;
  fo.crash_rate = 0.05;
  fo.seed = 21;
  FaultServiceFixture f(fo);
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  EXPECT_GT(m.containers_failed, 0);
  // Every crash was answered: either work was re-executed on a recovery
  // attempt or the dataflow was counted as failed.
  EXPECT_TRUE(m.ops_reexecuted > 0 || m.dataflows_failed > 0);
}

TEST(ServiceFaultTest, ReproducibleUnderFaults) {
  FaultOptions fo;
  fo.crash_rate = 0.05;
  fo.straggler_rate = 0.2;
  fo.storage_fault_rate = 0.05;
  fo.seed = 21;
  FaultServiceFixture a(fo);
  FaultServiceFixture b(fo);
  ServiceMetrics ma = a.RunMontage();
  ServiceMetrics mb = b.RunMontage();
  // Same seed ⇒ bit-identical fault trace and metrics.
  EXPECT_EQ(ma.dataflows_arrived, mb.dataflows_arrived);
  EXPECT_EQ(ma.dataflows_finished, mb.dataflows_finished);
  EXPECT_EQ(ma.dataflows_failed, mb.dataflows_failed);
  EXPECT_EQ(ma.containers_failed, mb.containers_failed);
  EXPECT_EQ(ma.ops_reexecuted, mb.ops_reexecuted);
  EXPECT_EQ(ma.recovery_quanta, mb.recovery_quanta);
  EXPECT_EQ(ma.storage_retries, mb.storage_retries);
  EXPECT_EQ(ma.storage_faults, mb.storage_faults);
  EXPECT_EQ(ma.builds_discarded, mb.builds_discarded);
  EXPECT_EQ(ma.total_vm_quanta, mb.total_vm_quanta);
  EXPECT_EQ(ma.total_time_quanta, mb.total_time_quanta);  // bit-identical
  EXPECT_EQ(ma.storage_cost, mb.storage_cost);
}

TEST(ServiceFaultTest, ExhaustedRecoveryFailsDataflowsWithoutWedging) {
  FaultOptions fo;
  fo.crash_rate = 0.6;  // near-certain crash within a handful of quanta
  fo.seed = 9;
  FaultServiceFixture f(fo);
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_failed, 0);
  EXPECT_GT(m.containers_failed, 0);
  // Failed dataflows leave no history record.
  EXPECT_LE(static_cast<int>(f.service->history().size()),
            m.dataflows_finished + m.dataflows_overran);
}

TEST(ServiceFaultTest, StorageFaultsRetriedAndCounted) {
  FaultOptions fo;
  fo.storage_fault_rate = 0.3;
  fo.storage_fault_latency = 5.0;
  fo.seed = 13;
  FaultServiceFixture f(fo);
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  // Reads fault (latency spikes) and/or Puts retried; either way the
  // counters saw traffic at a 30% rate.
  EXPECT_GT(m.storage_faults + m.storage_retries, 0);
  // Read-side accounting identity: every read-path fault draw belongs to a
  // counted read, and Put faults to a counted retry ladder.
  EXPECT_GT(m.storage_reads, 0);
  EXPECT_LE(m.storage_faults, m.storage_reads + m.storage_retries);
  EXPECT_EQ(m.containers_failed, 0);  // no crashes configured
  EXPECT_EQ(m.dataflows_failed, 0);
}

TEST(ServiceFaultTest, GracefulDegradationAcrossCrashRates) {
  // Monotone stress: more crashes must not increase throughput, and the
  // recovery machinery keeps every run fully accounted.
  std::vector<double> rates{0.0, 0.05, 0.4};
  std::vector<ServiceMetrics> ms;
  for (double r : rates) {
    FaultOptions fo;
    fo.crash_rate = r;
    fo.seed = 21;
    FaultServiceFixture f(fo);
    ms.push_back(f.RunMontage());
  }
  EXPECT_GE(ms[0].dataflows_finished, ms[1].dataflows_finished);
  EXPECT_GE(ms[1].dataflows_finished, ms[2].dataflows_finished);
  EXPECT_EQ(ms[0].containers_failed, 0);
  EXPECT_LE(ms[1].containers_failed, ms[2].containers_failed);
}

// ---- Resumable builds under the fault-aware service (S3) -------------------

TEST(ServiceFaultTest, ResumableProgressTrackedAndConsumed) {
  // Straggler-only faults are the natural preemption forcing function: a
  // slowed container stretches build ops past the lease end (Fig. 2c: B2),
  // so each one is killed partway and — with resumable_builds — its ran_for
  // shortens the next build op for the same partition.
  auto run = [](bool resumable) {
    FileDatabaseOptions fdo;
    fdo.montage_files = 0;
    fdo.ligo_files = 0;
    fdo.cybershake_files = 4;
    Catalog catalog;
    FileDatabase db(&catalog, fdo);
    EXPECT_TRUE(db.Populate().ok());
    DataflowGenerator gen(&db, 3);
    PhaseWorkloadClient client(&gen, 60.0, {{AppType::kCybershake, 1e9}}, 3);
    ServiceOptions so;
    so.policy = IndexPolicy::kGain;
    so.total_time = 60.0 * 60.0;
    so.tuner.sched.max_containers = 10;
    so.tuner.sched.skyline_cap = 3;
    so.sim.time_error = 0.2;
    so.sim.data_error = 0.2;
    so.resumable_builds = resumable;
    so.faults.straggler_rate = 1.0;
    so.faults.straggler_slowdown_min = 2.0;
    so.faults.straggler_slowdown_max = 3.0;
    so.faults.seed = 7;
    so.seed = 3;
    QaasService service(&catalog, so);
    auto m = service.Run(&client);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    // Carried progress is positive and only exists for partitions that are
    // not yet built (completion consumes and erases the entry).
    for (const auto& [key, ran_for] : service.build_progress()) {
      EXPECT_GT(ran_for, 0.0);
      auto state = catalog.GetIndexState(key.first);
      EXPECT_TRUE(state.ok());
      if (state.ok()) {
        EXPECT_FALSE((*state)->part(static_cast<size_t>(key.second)).built)
            << key.first << " partition " << key.second
            << " has leftover progress after completing";
      }
    }
    return m.ok() ? *m : ServiceMetrics{};
  };
  ServiceMetrics without = run(false);
  ServiceMetrics with = run(true);
  EXPECT_GT(without.killed_ops, 0);  // stragglers force preemptions
  EXPECT_GT(with.killed_ops, 0);
  // Carry-over turns repeated partial attempts into completions: the
  // resumable run finishes at least as many partitions.
  EXPECT_GE(with.index_partitions_built, without.index_partitions_built);
}

}  // namespace
}  // namespace dfim
