// Determinism guarantees: same seeds and inputs must produce bit-identical
// schedules, simulations and service runs (the experiments depend on it).

#include <gtest/gtest.h>

#include "core/service.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

TEST(DeterminismTest, GeneratorsAreSeedDeterministic) {
  Catalog c1, c2;
  FileDatabase db1(&c1, FileDatabaseOptions{}), db2(&c2, FileDatabaseOptions{});
  ASSERT_TRUE(db1.Populate().ok());
  ASSERT_TRUE(db2.Populate().ok());
  DataflowGenerator g1(&db1, 5), g2(&db2, 5);
  Dataflow a = g1.Generate(AppType::kCybershake, 0, 0);
  Dataflow b = g2.Generate(AppType::kCybershake, 0, 0);
  ASSERT_EQ(a.dag.num_ops(), b.dag.num_ops());
  for (size_t i = 0; i < a.dag.num_ops(); ++i) {
    EXPECT_DOUBLE_EQ(a.dag.op(static_cast<int>(i)).time,
                     b.dag.op(static_cast<int>(i)).time);
    EXPECT_EQ(a.dag.op(static_cast<int>(i)).input_table,
              b.dag.op(static_cast<int>(i)).input_table);
  }
  EXPECT_EQ(a.index_speedup, b.index_speedup);
}

TEST(DeterminismTest, SkylineSchedulerIsDeterministic) {
  Catalog cat;
  FileDatabase db(&cat, FileDatabaseOptions{});
  ASSERT_TRUE(db.Populate().ok());
  DataflowGenerator gen(&db, 5);
  Dataflow df = gen.Generate(AppType::kMontage, 0, 0);
  auto durations = testutil::OpTimes(df.dag);
  SkylineScheduler sched(SchedulerOptions{});
  auto s1 = sched.ScheduleDag(df.dag, durations);
  auto s2 = sched.ScheduleDag(df.dag, durations);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(s1->size(), s2->size());
  for (size_t i = 0; i < s1->size(); ++i) {
    ASSERT_EQ((*s1)[i].size(), (*s2)[i].size());
    EXPECT_DOUBLE_EQ((*s1)[i].makespan(), (*s2)[i].makespan());
    EXPECT_EQ((*s1)[i].LeasedQuanta(60), (*s2)[i].LeasedQuanta(60));
  }
}

TEST(DeterminismTest, SimulatorSameSeedSameResult) {
  Dag g = testutil::Chain(8, 20, 10.0);
  SkylineScheduler sched(SchedulerOptions{});
  auto skyline = sched.ScheduleDag(g, testutil::OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  std::vector<SimOpCost> costs(g.num_ops());
  for (const auto& op : g.ops()) {
    costs[static_cast<size_t>(op.id)] = SimOpCost{op.time, 5.0, "k"};
  }
  SimOptions so;
  so.time_error = 0.3;
  so.data_error = 0.3;
  ExecSimulator sim(SchedulerOptions{}, /*seed=*/77, so);
  auto r1 = sim.Run(g, skyline->front(), costs);
  auto r2 = sim.Run(g, skyline->front(), costs);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1->makespan, r2->makespan);
  EXPECT_EQ(r1->leased_quanta, r2->leased_quanta);
  // A different seed produces a different perturbation.
  ExecSimulator sim2(SchedulerOptions{}, /*seed=*/78, so);
  auto r3 = sim2.Run(g, skyline->front(), costs);
  ASSERT_TRUE(r3.ok());
  EXPECT_NE(r1->makespan, r3->makespan);
}

TEST(DeterminismTest, ServiceRunsAreReproducible) {
  auto run = [] {
    Catalog catalog;
    FileDatabaseOptions fdo;
    fdo.montage_files = 3;
    fdo.ligo_files = 3;
    fdo.cybershake_files = 3;
    FileDatabase db(&catalog, fdo);
    EXPECT_TRUE(db.Populate().ok());
    DataflowGenerator gen(&db, 9);
    PhaseWorkloadClient client(&gen, 60.0, {{AppType::kMontage, 1e9}}, 9);
    ServiceOptions so;
    so.policy = IndexPolicy::kGain;
    so.total_time = 30.0 * 60.0;
    so.tuner.sched.max_containers = 8;
    so.tuner.sched.skyline_cap = 3;
    so.seed = 9;
    QaasService service(&catalog, so);
    auto m = service.Run(&client);
    EXPECT_TRUE(m.ok());
    return m.ok() ? *m : ServiceMetrics{};
  };
  ServiceMetrics a = run();
  ServiceMetrics b = run();
  EXPECT_EQ(a.dataflows_finished, b.dataflows_finished);
  EXPECT_EQ(a.total_vm_quanta, b.total_vm_quanta);
  EXPECT_DOUBLE_EQ(a.storage_cost, b.storage_cost);
  EXPECT_EQ(a.index_partitions_built, b.index_partitions_built);
}

}  // namespace
}  // namespace dfim
