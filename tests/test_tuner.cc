#include "core/tuner.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "dataflow/file_database.h"
#include "dataflow/generators.h"

namespace dfim {
namespace {

class TunerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<FileDatabase>(&catalog_, FileDatabaseOptions{});
    ASSERT_TRUE(db_->Populate().ok());
    gen_ = std::make_unique<DataflowGenerator>(db_.get(), 99);
    opts_.sched.max_containers = 16;
    opts_.sched.skyline_cap = 4;
    opts_.mode = InterleaveMode::kLp;
    tuner_ = std::make_unique<OnlineIndexTuner>(&catalog_, opts_);
  }

  /// A history of `n` records, each claiming gain `g` for `idx`, finishing
  /// one quantum apart ending at `last`.
  std::deque<DataflowRecord> History(const std::string& idx, int n, double g,
                                     Seconds last) {
    std::deque<DataflowRecord> h;
    for (int i = 0; i < n; ++i) {
      DataflowRecord r;
      r.finished_at = last - 60.0 * (n - 1 - i);
      r.gain[idx] = g;
      h.push_back(r);
    }
    return h;
  }

  Catalog catalog_;
  std::unique_ptr<FileDatabase> db_;
  std::unique_ptr<DataflowGenerator> gen_;
  TunerOptions opts_;
  std::unique_ptr<OnlineIndexTuner> tuner_;
};

TEST_F(TunerTest, WhatIfGainPositiveForCandidates) {
  Dataflow df = gen_->Generate(AppType::kCybershake, 0, 0);
  const WhatIfTable what_if = tuner_->WhatIf(df);
  double total = 0;
  for (const auto& idx : df.candidate_indexes) {
    double g = what_if.Gain(idx);
    EXPECT_GE(g, 0) << idx;
    total += g;
  }
  EXPECT_GT(total, 0);
  // Unknown index estimates to zero.
  EXPECT_DOUBLE_EQ(what_if.Gain("nope"), 0);
}

// Eq. 3-5 over the history alone: the issued dataflow does not name the
// index, so its what-if gain adds nothing.
TEST_F(TunerTest, HistoryGainsFadeWithAge) {
  Dataflow df = gen_->Generate(AppType::kMontage, 0, 0);
  ASSERT_FALSE(df.candidate_indexes.empty());
  const std::string idx = df.candidate_indexes[0];
  Dataflow unrelated = gen_->Generate(AppType::kLigo, 1, 0);
  ASSERT_EQ(std::find(unrelated.candidate_indexes.begin(),
                      unrelated.candidate_indexes.end(), idx),
            unrelated.candidate_indexes.end());
  // Strong recent history makes the index beneficial.
  auto h = History(idx, 5, 10.0, 600.0);
  auto recent = tuner_->OnDataflow(unrelated, h, 600.0);
  ASSERT_TRUE(recent.ok());
  ASSERT_EQ(recent->gains.count(idx), 1u);
  EXPECT_TRUE(recent->gains.at(idx).beneficial);
  // The same history long ago is faded to nothing.
  auto old = tuner_->OnDataflow(unrelated, h, 600.0 + 60.0 * 50);
  ASSERT_TRUE(old.ok());
  ASSERT_EQ(old->gains.count(idx), 1u);
  EXPECT_FALSE(old->gains.at(idx).beneficial);
  EXPECT_TRUE(old->gains.at(idx).deletable);
}

TEST_F(TunerTest, OnDataflowProducesValidDecision) {
  Dataflow df = gen_->Generate(AppType::kCybershake, 0, 0);
  auto decision = tuner_->OnDataflow(df, {}, 0);
  ASSERT_TRUE(decision.ok());
  // Combined dag holds at least the dataflow ops.
  EXPECT_GE(decision->combined.num_ops(), df.dag.num_ops());
  EXPECT_EQ(decision->durations.size(), decision->combined.num_ops());
  EXPECT_EQ(decision->costs.size(), decision->combined.num_ops());
  EXPECT_TRUE(decision->chosen.CheckNoOverlap());
  // Fastest-first selection: no schedule of the interleaved skyline beats
  // the chosen one.
  Interleaver interleaver(opts_.sched, opts_.mode);
  auto skyline = interleaver.Interleave(decision->combined,
                                        decision->durations, 1.0);
  ASSERT_TRUE(skyline.ok());
  ASSERT_FALSE(skyline->empty());
  for (const auto& s : *skyline) {
    EXPECT_LE(decision->chosen.makespan(), s.makespan() + 1e-9);
  }
  // All mandatory ops scheduled.
  size_t mandatory = 0;
  for (const auto& a : decision->chosen.assignments()) {
    if (!a.optional) ++mandatory;
  }
  EXPECT_EQ(mandatory, df.dag.num_ops());
}

TEST(FastestScheduleTest, TakesTheFrontAndRejectsAnEmptySkyline) {
  Schedule fast;
  fast.Add(Assignment{.op_id = 0, .container = 0, .start = 0, .end = 10});
  Schedule slow;
  slow.Add(Assignment{.op_id = 0, .container = 0, .start = 0, .end = 20});
  auto chosen = FastestSchedule(std::vector<Schedule>{fast, slow});
  ASSERT_TRUE(chosen.ok());
  EXPECT_DOUBLE_EQ(chosen->makespan(), 10);
  EXPECT_TRUE(FastestSchedule(std::vector<Schedule>{}).status().IsInternal());
  EXPECT_TRUE(FastestSchedule(Status::InvalidArgument("bad dag"))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(TunerTest, StrongHistoryTriggersBuildOps) {
  Dataflow df = gen_->Generate(AppType::kCybershake, 7, 0);
  ASSERT_FALSE(df.candidate_indexes.empty());
  // Pick the candidate with the best what-if gain so benefit is assured.
  std::string idx = df.candidate_indexes[0];
  const WhatIfTable what_if = tuner_->WhatIf(df);
  double best = -1;
  for (const auto& c : df.candidate_indexes) {
    double g = what_if.Gain(c);
    if (g > best) {
      best = g;
      idx = c;
    }
  }
  auto h = History(idx, 8, best + 5.0, 540.0);
  auto decision = tuner_->OnDataflow(df, h, 600.0);
  ASSERT_TRUE(decision.ok());
  ASSERT_TRUE(decision->gains.count(idx));
  EXPECT_TRUE(decision->gains.at(idx).beneficial);
  // Build ops for the beneficial index are in the combined dag.
  bool found = false;
  for (const auto& op : decision->combined.ops()) {
    if (op.optional && op.index_id == idx) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_GT(decision->build_ops_scheduled, 0);
}

TEST_F(TunerTest, NonBeneficialBuiltIndexesFlaggedForDeletion) {
  Dataflow df = gen_->Generate(AppType::kMontage, 0, 0);
  const std::string idx = df.candidate_indexes[0];
  // Build the index fully, then present a workload that never uses it.
  auto def = catalog_.GetIndexDef(idx);
  auto table = catalog_.GetTable((*def)->table);
  for (const auto& p : (*table)->partitions()) {
    ASSERT_TRUE(catalog_.MarkIndexPartitionBuilt(idx, p.id, 0).ok());
  }
  Dataflow unrelated = gen_->Generate(AppType::kLigo, 1, 0);
  auto decision = tuner_->OnDataflow(unrelated, {}, 6000.0);
  ASSERT_TRUE(decision.ok());
  EXPECT_NE(std::find(decision->to_delete.begin(), decision->to_delete.end(),
                      idx),
            decision->to_delete.end());
  // With fresh supporting history the index is kept.
  auto kept = tuner_->OnDataflow(unrelated, History(idx, 8, 50.0, 5940.0),
                                 6000.0);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(std::find(kept->to_delete.begin(), kept->to_delete.end(), idx),
            kept->to_delete.end());
}

TEST_F(TunerTest, BuildDataflowCostsMarksCacheKeys) {
  Dataflow df = gen_->Generate(AppType::kLigo, 0, 0);
  std::vector<Seconds> durations;
  std::vector<SimOpCost> costs;
  BuildDataflowCosts(df.dag, df, catalog_, 125.0, &durations, &costs);
  ASSERT_EQ(costs.size(), df.dag.num_ops());
  for (const auto& op : df.dag.ops()) {
    const auto& c = costs[static_cast<size_t>(op.id)];
    if (!op.input_table.empty()) {
      EXPECT_GT(c.input_mb, 0);
      EXPECT_NE(c.cache_key.find(op.input_table), std::string::npos);
    } else {
      EXPECT_DOUBLE_EQ(c.input_mb, 0);
      EXPECT_TRUE(c.cache_key.empty());
    }
    EXPECT_NEAR(durations[static_cast<size_t>(op.id)],
                c.cpu_time + c.input_mb / 125.0, 1e-9);
  }
}

}  // namespace
}  // namespace dfim
