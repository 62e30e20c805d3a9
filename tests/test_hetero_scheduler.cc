#include "sched/hetero_scheduler.h"

#include <gtest/gtest.h>
#include <map>

#include "sched/skyline_scheduler.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

using testutil::Chain;
using testutil::Independent;
using testutil::OpTimes;

std::vector<VmType> TwoTypes() {
  // "standard" (1x, $0.1/q) and "large" (4x speed, $0.5/q): the large type
  // is faster but less cost-efficient per unit of work.
  return {{"standard", 1.0, 0.1, 125.0}, {"large", 4.0, 0.5, 125.0}};
}

SchedulerOptions Opts() {
  SchedulerOptions o;
  o.max_containers = 8;
  o.skyline_cap = 8;
  return o;
}

TEST(HeteroSchedulerTest, ValidationErrors) {
  Dag g = Independent(2, 10);
  HeteroSkylineScheduler empty_types(Opts(), {});
  EXPECT_TRUE(empty_types.ScheduleDag(g, OpTimes(g)).status().IsInvalidArgument());
  HeteroSkylineScheduler sched(Opts(), TwoTypes());
  EXPECT_TRUE(sched.ScheduleDag(g, {1.0}).status().IsInvalidArgument());
}

TEST(HeteroSchedulerTest, SingleTypeMatchesHomogeneousMoney) {
  Dag g = Independent(4, 50);
  HeteroSkylineScheduler hetero(Opts(), {{"std", 1.0, 0.1, 125.0}});
  SkylineScheduler homo(Opts());
  auto ts = hetero.ScheduleDag(g, OpTimes(g));
  auto hs = homo.ScheduleDag(g, OpTimes(g));
  ASSERT_TRUE(ts.ok());
  ASSERT_TRUE(hs.ok());
  EXPECT_NEAR(ts->front().makespan(), hs->front().makespan(), 1e-9);
  EXPECT_NEAR(ts->front().money,
              0.1 * static_cast<double>(hs->front().LeasedQuanta(60)), 1e-9);
}

TEST(HeteroSchedulerTest, FastTypeShortensCriticalChains) {
  // A 300 s chain: on the standard type it needs 300 s; the large type runs
  // it in 75 s. The fastest skyline point must use the large type.
  Dag g = Chain(6, 50);
  HeteroSkylineScheduler sched(Opts(), TwoTypes());
  auto skyline = sched.ScheduleDag(g, OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  const TypedSchedule& fastest = skyline->front();
  EXPECT_NEAR(fastest.makespan(), 75.0, 1e-6);
  ASSERT_FALSE(fastest.container_type.empty());
  EXPECT_EQ(fastest.container_type[0], 1);  // "large"
  // The cheapest point prefers the cost-efficient standard type.
  const TypedSchedule& cheapest = skyline->back();
  EXPECT_LE(cheapest.money, fastest.money + 1e-9);
}

TEST(HeteroSchedulerTest, SkylineIsNonDominated) {
  Dag g = Independent(6, 45);
  HeteroSkylineScheduler sched(Opts(), TwoTypes());
  auto skyline = sched.ScheduleDag(g, OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  for (size_t i = 0; i < skyline->size(); ++i) {
    for (size_t j = 0; j < skyline->size(); ++j) {
      if (i == j) continue;
      bool be = (*skyline)[i].makespan() <= (*skyline)[j].makespan() + 1e-9 &&
                (*skyline)[i].money <= (*skyline)[j].money + 1e-12;
      bool sb = (*skyline)[i].makespan() < (*skyline)[j].makespan() - 1e-9 ||
                (*skyline)[i].money < (*skyline)[j].money - 1e-12;
      EXPECT_FALSE(be && sb) << j << " dominated by " << i;
    }
  }
}

TEST(HeteroSchedulerTest, SchedulesAreStructurallyValid) {
  Dag g = testutil::Diamond(10, 20, 30, 10, /*flow=*/1250);
  HeteroSkylineScheduler sched(Opts(), TwoTypes());
  auto skyline = sched.ScheduleDag(g, OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  for (const auto& ts : *skyline) {
    EXPECT_TRUE(ts.schedule.CheckNoOverlap());
    // Types assigned for every used container.
    EXPECT_GE(static_cast<int>(ts.container_type.size()),
              ts.schedule.num_containers());
    // Deps respected (start >= parent end).
    std::map<int, Assignment> by_op;
    for (const auto& a : ts.schedule.assignments()) by_op[a.op_id] = a;
    for (const auto& f : g.flows()) {
      ASSERT_TRUE(by_op.count(f.from) && by_op.count(f.to));
      EXPECT_GE(by_op[f.to].start, by_op[f.from].end - 1e-6);
    }
  }
}

TEST(HeteroSchedulerTest, MixedPoolBeatsSingleTypeOnAtLeastOneObjective) {
  // CPU-heavy fan-out: the mixed pool should expose schedules at least as
  // good as either pure pool on both skyline endpoints.
  Dag g = Independent(5, 100);
  HeteroSkylineScheduler mixed(Opts(), TwoTypes());
  HeteroSkylineScheduler slow_only(Opts(), {{"standard", 1.0, 0.1, 125.0}});
  auto m = mixed.ScheduleDag(g, OpTimes(g));
  auto s = slow_only.ScheduleDag(g, OpTimes(g));
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(s.ok());
  EXPECT_LE(m->front().makespan(), s->front().makespan() + 1e-9);
  EXPECT_LE(m->back().money, s->back().money + 1e-9);
}

}  // namespace
}  // namespace dfim
