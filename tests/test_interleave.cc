#include "core/interleave.h"

#include <gtest/gtest.h>

#include "dataflow/file_database.h"
#include "dataflow/generators.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

using testutil::Independent;
using testutil::OpTimes;
using testutil::ValidSchedule;

SchedulerOptions Opts() {
  SchedulerOptions o;
  o.max_containers = 10;
  o.quantum = 60;
  o.net_mb_per_sec = 125;
  o.skyline_cap = 6;
  return o;
}

/// A dag with a dependency stall (idle slot) plus `n` build ops of the
/// given durations.
Dag StallDag(std::vector<Seconds> build_times) {
  Dag g;
  Operator a;
  a.time = 20;
  g.AddOperator(a);
  Operator b;
  b.time = 25;
  g.AddOperator(b);
  Operator join;
  join.time = 10;
  g.AddOperator(join);
  (void)g.AddFlow(0, 2, 0);
  (void)g.AddFlow(1, 2, 0);
  int id = 3;
  for (Seconds t : build_times) {
    Operator op = Operator::BuildIndex(id, "idx", id - 3, t, 64);
    op.gain = t;  // gain proportional to size
    g.AddOperator(op);
    ++id;
  }
  return g;
}

int CountBuilds(const Schedule& s) {
  int n = 0;
  for (const auto& a : s.assignments()) n += a.optional ? 1 : 0;
  return n;
}

TEST(InterleaveTest, DataflowOnlyScheduleHasNoBuilds) {
  Dag g = StallDag({5, 5});
  auto skyline = SkylineScheduler(Opts()).ScheduleDag(
      g, OpTimes(g), /*place_optional=*/false);
  ASSERT_TRUE(skyline.ok());
  for (const auto& s : *skyline) EXPECT_EQ(CountBuilds(s), 0);
}

TEST(InterleaveTest, LpPacksIdleSlots) {
  Dag g = StallDag({4, 4, 10});
  Interleaver il(Opts(), InterleaveMode::kLp);
  auto skyline = il.Interleave(g, OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  const Schedule& s = skyline->front();
  EXPECT_GT(CountBuilds(s), 0);
  EXPECT_TRUE(s.CheckNoOverlap());
}

TEST(InterleaveTest, LpDoesNotChangeTimeOrMoney) {
  Dag g = StallDag({4, 4, 7, 9, 12});
  Interleaver lp(Opts(), InterleaveMode::kLp);
  auto base = SkylineScheduler(Opts()).ScheduleDag(g, OpTimes(g),
                                                   /*place_optional=*/false);
  auto packed = lp.Interleave(g, OpTimes(g));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(packed.ok());
  ASSERT_EQ(base->size(), packed->size());
  for (size_t i = 0; i < base->size(); ++i) {
    EXPECT_NEAR((*packed)[i].makespan(), (*base)[i].makespan(), 1e-9);
    EXPECT_EQ((*packed)[i].LeasedQuanta(60), (*base)[i].LeasedQuanta(60));
  }
}

TEST(InterleaveTest, OnlineDoesNotChangeTimeOrMoneyEither) {
  Dag g = StallDag({4, 4, 7, 9, 12});
  Interleaver online(Opts(), InterleaveMode::kOnline);
  auto base = SkylineScheduler(Opts()).ScheduleDag(g, OpTimes(g),
                                                   /*place_optional=*/false);
  auto packed = online.Interleave(g, OpTimes(g));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(packed.ok());
  // The online skylines may differ in composition, but the fastest point
  // must not be slower or dearer.
  EXPECT_NEAR(packed->front().makespan(), base->front().makespan(), 1e-9);
  EXPECT_LE(packed->front().LeasedQuanta(60), base->front().LeasedQuanta(60));
}

TEST(InterleaveTest, NegativeGainBuildOpsNotPacked) {
  Dag g = StallDag({4});
  g.mutable_op(3).gain = -1.0;
  Interleaver lp(Opts(), InterleaveMode::kLp);
  auto skyline = lp.Interleave(g, OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  EXPECT_EQ(CountBuilds(skyline->front()), 0);
}

TEST(InterleaveTest, HighGainBuildsPreferredWithinSlot) {
  // One tail slot; more build work than fits.
  Dag g = Independent(1, 30);  // 30 s of tail in the quantum
  Operator low = Operator::BuildIndex(1, "low", 0, 20.0, 64);
  low.gain = 1.0;
  g.AddOperator(low);
  Operator high = Operator::BuildIndex(2, "high", 0, 20.0, 64);
  high.gain = 10.0;
  g.AddOperator(high);
  Interleaver lp(Opts(), InterleaveMode::kLp);
  auto skyline = lp.Interleave(g, OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  const Schedule& s = skyline->front();
  ASSERT_EQ(CountBuilds(s), 1);
  for (const auto& a : s.assignments()) {
    if (a.optional) {
      EXPECT_EQ(g.op(a.op_id).index_id, "high");
    }
  }
}

TEST(InterleaveTest, PackIntoIdleSlotsRespectsSlotBounds) {
  Dag g = StallDag({3, 3, 3, 3});
  Interleaver lp(Opts(), InterleaveMode::kLp);
  SkylineScheduler sched(Opts());
  auto skyline = sched.ScheduleDag(g, OpTimes(g), /*place_optional=*/false);
  ASSERT_TRUE(skyline.ok());
  Schedule packed = lp.PackIntoIdleSlots(skyline->front(), g, OpTimes(g),
                                         {3, 4, 5, 6});
  EXPECT_TRUE(packed.CheckNoOverlap());
  // Build assignments sit inside former idle slots: they never overlap
  // mandatory ops and never extend the lease.
  EXPECT_EQ(packed.LeasedQuanta(60), skyline->front().LeasedQuanta(60));
}

TEST(InterleaveTest, Fig8Shape_LpSchedulesAtLeastAsManyBuildsAsOnline) {
  // On real Montage dataflows with many candidate build ops, the LP
  // interleaver packs more (or equal) build ops than the online one (§6.4).
  Catalog catalog;
  FileDatabase db(&catalog, FileDatabaseOptions{});
  ASSERT_TRUE(db.Populate().ok());
  DataflowGenerator gen(&db, 31);
  Dataflow df = gen.Generate(AppType::kMontage, 0, 0);

  Dag g = df.dag;
  Rng rng(3);
  int id = static_cast<int>(g.num_ops());
  for (int i = 0; i < 40; ++i) {
    Operator op = Operator::BuildIndex(id++, "idx" + std::to_string(i), 0,
                                       rng.Uniform(2.0, 12.0), 64);
    op.gain = rng.Uniform(0.5, 3.0);
    g.AddOperator(op);
  }
  auto durations = OpTimes(g);
  Interleaver lp(Opts(), InterleaveMode::kLp);
  Interleaver online(Opts(), InterleaveMode::kOnline);
  auto lp_sky = lp.Interleave(g, durations);
  auto on_sky = online.Interleave(g, durations);
  ASSERT_TRUE(lp_sky.ok());
  ASSERT_TRUE(on_sky.ok());
  int lp_builds = CountBuilds(lp_sky->front());
  int on_builds = CountBuilds(on_sky->front());
  EXPECT_GT(lp_builds, 0);
  EXPECT_GE(lp_builds, on_builds);
}

}  // namespace
}  // namespace dfim
