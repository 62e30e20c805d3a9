// Coverage for the logging facility, flow-output staging semantics and
// other small behaviours not covered by the module suites.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/service.h"
#include "sched/exec_simulator.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

TEST(LoggingTest, ThresholdFilters) {
  LogLevel before = Logger::threshold();
  Logger::set_threshold(LogLevel::kError);
  EXPECT_EQ(Logger::threshold(), LogLevel::kError);
  // These must not crash; output is suppressed below the threshold.
  DFIM_LOG(kDebug) << "quiet " << 1;
  DFIM_LOG(kInfo) << "quiet " << 2;
  DFIM_LOG(kWarn) << "quiet " << 3;
  Logger::set_threshold(LogLevel::kOff);
  DFIM_LOG(kError) << "also quiet";
  Logger::set_threshold(before);
}

TEST(FlowStagingTest, SecondConsumerOnSameContainerReadsLocally) {
  // Producer 0 on c0; consumers 1 and 2 both on c1. The producer's output
  // (1250 MB -> 10 s at 125 MB/s) is transferred to c1 once.
  Dag g;
  Operator p;
  p.time = 10;
  g.AddOperator(p);
  Operator c;
  c.time = 5;
  g.AddOperator(c);
  g.AddOperator(c);
  ASSERT_TRUE(g.AddFlow(0, 1, 1250).ok());
  ASSERT_TRUE(g.AddFlow(0, 2, 1250).ok());

  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 10, false});
  plan.Add(Assignment{1, 1, 10, 25, false});
  plan.Add(Assignment{2, 1, 25, 30, false});
  std::vector<SimOpCost> costs{{10, 0, ""}, {5, 0, ""}, {5, 0, ""}};
  ExecSimulator sim(SchedulerOptions{}, /*seed=*/1);
  auto r = sim.Run(g, plan, costs);
  ASSERT_TRUE(r.ok());
  // op1: starts 10, +10 transfer +5 cpu = 25. op2: transfer already staged,
  // 25 + 5 = 30.
  EXPECT_NEAR(r->makespan, 30.0, 1e-9);
}

TEST(FlowStagingTest, SkylineSchedulerGroupsSiblingsToShareStaging) {
  // One producer with a huge output and 6 cheap consumers: grouping the
  // consumers pays the staging once per container; the scheduler's fastest
  // plan must beat the all-spread plan.
  Dag g;
  Operator p;
  p.time = 10;
  p.output_mb = 12500;  // 100 s transfer
  int prod = g.AddOperator(p);
  std::vector<int> consumers;
  for (int i = 0; i < 6; ++i) {
    Operator c;
    c.time = 20;
    int id = g.AddOperator(c);
    (void)g.AddFlow(prod, id, 12500);
    consumers.push_back(id);
  }
  SchedulerOptions so;
  so.max_containers = 8;
  SkylineScheduler sched(so);
  auto skyline = sched.ScheduleDag(g, testutil::OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  // All-colocated lower bound: 10 + 6*20 = 130 s (no transfer). All-spread:
  // 10 + 100 + 20 = 130 s too but at 7 containers' cost. The scheduler must
  // find something no worse than 230 s (one remote group).
  EXPECT_LE(skyline->front().makespan(), 230.0 + 1e-6);
  EXPECT_TRUE(testutil::ValidSchedule(g, skyline->front(),
                                      testutil::OpTimes(g), 125.0));
}

TEST(RandomPolicyTest, SamplesFromGlobalPotentialSet) {
  // Montage-only workload, but the database also has Cybershake files:
  // the Random policy may build indexes for tables the workload never
  // reads (it samples the whole potential set).
  Catalog catalog;
  FileDatabaseOptions fdo;
  fdo.montage_files = 2;
  fdo.ligo_files = 0;
  fdo.cybershake_files = 6;
  FileDatabase db(&catalog, fdo);
  ASSERT_TRUE(db.Populate().ok());
  DataflowGenerator gen(&db, 13);
  PhaseWorkloadClient client(&gen, 60.0, {{AppType::kMontage, 1e9}}, 13);
  ServiceOptions so;
  so.policy = IndexPolicy::kRandom;
  so.total_time = 40.0 * 60.0;
  so.tuner.sched.max_containers = 8;
  so.tuner.sched.skyline_cap = 2;
  so.seed = 13;
  QaasService service(&catalog, so);
  auto m = service.Run(&client);
  ASSERT_TRUE(m.ok());
  // With two of 32 indexes sampled uniformly per dataflow and only 8
  // belonging to the montage tables, some non-montage index almost surely
  // got build ops.
  bool non_montage_built = false;
  for (const auto& idx : catalog.IndexIds()) {
    auto st = catalog.GetIndexState(idx);
    if (st.ok() && (*st)->NumBuilt() > 0 &&
        idx.find("cybershake") != std::string::npos) {
      non_montage_built = true;
    }
  }
  EXPECT_TRUE(non_montage_built);
}

TEST(ServiceOptionsTest, ExtensionsDefaultOff) {
  ServiceOptions so;
  EXPECT_FALSE(so.resumable_builds);
  EXPECT_FALSE(so.tuner.gain.adaptive_fading);
  EXPECT_DOUBLE_EQ(so.deletion_grace_quanta, 200.0);
}

}  // namespace
}  // namespace dfim
