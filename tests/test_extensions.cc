// Tests for the paper's future-work extensions implemented here:
// resumable (delayed) index builds and the adaptive fading controller.

#include <gtest/gtest.h>

#include "core/service.h"
#include "core/tuner.h"

namespace dfim {
namespace {

// ---- Resumable builds ------------------------------------------------------

class ResumableBuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({Column::Int32("k"), Column::Char("pad", 121.0)});
    Table t("f", s);
    t.PartitionBySize(2000000, 128.0);
    ASSERT_TRUE(catalog_.AddTable(std::move(t)).ok());
    ASSERT_TRUE(catalog_.DefineIndex(IndexDef{"idx", "f", {"k"}}).ok());
  }
  Catalog catalog_;
};

TEST_F(ResumableBuildTest, ProgressReducesBuildTime) {
  int id = 0;
  auto fresh = MakeBuildIndexOps(catalog_, "idx", 125.0, &id);
  ASSERT_TRUE(fresh.ok());
  ASSERT_FALSE(fresh->empty());
  Seconds full = (*fresh)[0].time;

  BuildProgress progress;
  progress[{"idx", (*fresh)[0].index_partition}] = full / 2;
  id = 0;
  auto resumed = MakeBuildIndexOps(catalog_, "idx", 125.0, &id, &progress);
  ASSERT_TRUE(resumed.ok());
  EXPECT_NEAR((*resumed)[0].time, full / 2, 1e-9);
}

TEST_F(ResumableBuildTest, ProgressClampedToPositiveRemainder) {
  int id = 0;
  auto fresh = MakeBuildIndexOps(catalog_, "idx", 125.0, &id);
  ASSERT_TRUE(fresh.ok());
  BuildProgress progress;
  progress[{"idx", (*fresh)[0].index_partition}] = (*fresh)[0].time * 10;
  id = 0;
  auto resumed = MakeBuildIndexOps(catalog_, "idx", 125.0, &id, &progress);
  ASSERT_TRUE(resumed.ok());
  EXPECT_GT((*resumed)[0].time, 0);
  EXPECT_LE((*resumed)[0].time, 0.1 + 1e-9);
}

TEST_F(ResumableBuildTest, SimulatorReportsPartialProgress) {
  // A build op killed at the lease end reports how long it ran.
  Dag g;
  Operator a;
  a.time = 30;
  g.AddOperator(a);
  Operator build = Operator::BuildIndex(1, "idx", 0, 100.0, 64);
  g.AddOperator(build);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 30, false});
  plan.Add(Assignment{1, 0, 30, 59, true});
  std::vector<SimOpCost> costs{{30, 0, ""}, {100, 0, ""}};
  ExecSimulator sim(SchedulerOptions{}, /*seed=*/1);
  auto r = sim.Run(g, plan, costs);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->kills.size(), 1u);
  EXPECT_EQ(r->kills[0].index_id, "idx");
  EXPECT_EQ(r->kills[0].partition, 0);
  EXPECT_NEAR(r->kills[0].ran_for, 30.0, 1e-9);  // ran [30, 60)
  EXPECT_EQ(r->killed_builds, 1);
}

TEST(ResumableServiceTest, ServiceAccumulatesProgressAcrossDataflows) {
  // Run the same short workload with and without resumable builds: the
  // resumable run must build at least as many index partitions.
  auto run = [](bool resumable) {
    Catalog catalog;
    FileDatabaseOptions fdo;
    fdo.montage_files = 0;
    fdo.ligo_files = 0;
    fdo.cybershake_files = 4;
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
    so.seed = 3;
    QaasService service(&catalog, so);
    auto m = service.Run(&client);
    EXPECT_TRUE(m.ok());
    return m.ok() ? m->index_partitions_built : 0;
  };
  int without = run(false);
  int with = run(true);
  EXPECT_GE(with, without);
}

// ---- Adaptive fading -------------------------------------------------------

class AdaptiveFadingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({Column::Int32("k"), Column::Char("pad", 121.0)});
    Table t("f", s);
    t.PartitionBySize(500000, 128.0);
    ASSERT_TRUE(catalog_.AddTable(std::move(t)).ok());
    ASSERT_TRUE(catalog_.DefineIndex(IndexDef{"idx", "f", {"k"}}).ok());
  }

  /// History referencing "idx" every `gap_quanta`, ending `last_gap` ago.
  std::deque<DataflowRecord> SparseHistory(int n, double gap_quanta,
                                           Seconds now, double last_gap) {
    std::deque<DataflowRecord> h;
    for (int i = 0; i < n; ++i) {
      DataflowRecord r;
      r.finished_at =
          now - 60.0 * (last_gap + gap_quanta * (n - 1 - i));
      r.gain["idx"] = 3.0;
      h.push_back(r);
    }
    return h;
  }

  /// "idx"'s gains at `now` over `h` alone, read from the decision for a
  /// dataflow that does not name it.
  IndexGains GainsOverHistory(const TunerOptions& opts,
                              const std::deque<DataflowRecord>& h,
                              Seconds now) {
    Dataflow unrelated;
    Operator op;
    op.name = "compute";
    op.time = 10.0;
    unrelated.dag.AddOperator(op);
    auto d = OnlineIndexTuner(&catalog_, opts).OnDataflow(unrelated, h, now);
    if (!d.ok() || d->gains.count("idx") == 0) {
      ADD_FAILURE() << "the decision evaluated no gains for idx";
      return {};
    }
    return d->gains.at("idx");
  }

  Catalog catalog_;
};

TEST_F(AdaptiveFadingTest, SparseButRegularUseSurvivesWithAdaptiveD) {
  Seconds now = 600.0 * 60.0;
  // Referenced every 20 quanta; last use 20 quanta ago. With D = 1 the
  // contributions are ~e^-20 ~ 0; with learned D ~ 20 they are ~e^-1.
  auto h = SparseHistory(8, 20.0, now, 20.0);

  TunerOptions plain;
  plain.gain.adaptive_fading = false;
  IndexGains g_fixed = GainsOverHistory(plain, h, now);
  EXPECT_FALSE(g_fixed.beneficial);
  EXPECT_TRUE(g_fixed.deletable);

  TunerOptions adaptive = plain;
  adaptive.gain.adaptive_fading = true;
  IndexGains g_adaptive = GainsOverHistory(adaptive, h, now);
  EXPECT_GT(g_adaptive.gt, g_fixed.gt);
  EXPECT_FALSE(g_adaptive.deletable);
}

TEST_F(AdaptiveFadingTest, LearnedDClampedToMax) {
  Seconds now = 60000.0 * 60.0;
  // Gaps of 1000 quanta: learned D clamps at kAdaptiveFadingMaxQuanta,
  // so truly abandoned indexes still fade out.
  auto h = SparseHistory(4, 1000.0, now, 1000.0);
  TunerOptions adaptive;
  adaptive.gain.adaptive_fading = true;
  IndexGains g = GainsOverHistory(adaptive, h, now);
  EXPECT_TRUE(g.deletable);
}

TEST(GainFadeOverrideTest, OverrideChangesDecay) {
  GainModel m(GainOptions{}, PricingModel{});  // default D = 1
  EXPECT_NEAR(m.Fade(10.0), std::exp(-10.0), 1e-12);
  EXPECT_NEAR(m.Fade(10.0, 10.0), std::exp(-1.0), 1e-12);
  // Evaluate with override keeps more of an old contribution.
  IndexGains slow = m.Evaluate({{5, 5, 10.0}}, 0.1, 0.1, 1.0, 10.0);
  IndexGains fast = m.Evaluate({{5, 5, 10.0}}, 0.1, 0.1, 1.0);
  EXPECT_GT(slow.gt, fast.gt);
}

}  // namespace
}  // namespace dfim
