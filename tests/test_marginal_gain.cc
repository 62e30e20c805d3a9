// Tests for the marginal what-if gain semantics (DESIGN.md §5.4): built
// indexes earn retention value, unbuilt candidates compete per table.

#include <gtest/gtest.h>

#include "core/tuner.h"
#include "what_if_oracle.h"

namespace dfim {
namespace {

class MarginalGainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({Column::Int32("k"), Column::Date("d"), Column::Char("pad", 111)});
    Table t("f", s);
    t.PartitionBySize(2000000, 128.0);
    num_parts_ = static_cast<int>(t.num_partitions());
    ASSERT_TRUE(catalog_.AddTable(std::move(t)).ok());
    ASSERT_TRUE(catalog_.DefineIndex(IndexDef{"idx_k", "f", {"k"}}).ok());
    ASSERT_TRUE(catalog_.DefineIndex(IndexDef{"idx_d", "f", {"d"}}).ok());

    df_.candidate_indexes = {"idx_k", "idx_d"};
    df_.index_speedup["idx_k"] = 94.44;
    df_.index_speedup["idx_d"] = 7.44;
    Operator op;
    op.name = "scan";
    op.time = 100.0;
    op.input_table = "f";
    df_.dag.AddOperator(op);

    opts_.sched.max_containers = 4;
    tuner_ = std::make_unique<OnlineIndexTuner>(&catalog_, opts_);
  }

  /// The what-if gain of `idx` for `df_` under the catalog as it stands.
  double Gain(const std::string& idx) const {
    return tuner_->WhatIf(df_).Gain(idx);
  }
  double Marginal(const std::string& idx, bool built) const {
    return tuner_->WhatIf(df_).Marginal(idx, built);
  }

  void BuildFully(const std::string& idx) {
    for (int p = 0; p < num_parts_; ++p) {
      ASSERT_TRUE(catalog_.MarkIndexPartitionBuilt(idx, p, 0).ok());
    }
  }

  Catalog catalog_;
  Dataflow df_;
  TunerOptions opts_;
  std::unique_ptr<OnlineIndexTuner> tuner_;
  int num_parts_ = 0;
};

TEST_F(MarginalGainTest, OnlyBestUnbuiltCandidateEarnsGain) {
  // Nothing built: the 94x candidate wins; the 7x one earns nothing.
  EXPECT_GT(Gain("idx_k"), 0);
  EXPECT_DOUBLE_EQ(Gain("idx_d"), 0);
}

TEST_F(MarginalGainTest, TieBrokenDeterministically) {
  df_.index_speedup["idx_d"] = 94.44;  // same speedup, different size
  double gk = Gain("idx_k");
  double gd = Gain("idx_d");
  // Exactly one of them wins the credit (the smaller index: idx_k at
  // 4-byte keys vs idx_d at 10-byte keys).
  EXPECT_GT(gk, 0);
  EXPECT_DOUBLE_EQ(gd, 0);
}

TEST_F(MarginalGainTest, BuiltIndexEarnsRetentionValue) {
  BuildFully("idx_k");
  double retention = Gain("idx_k");
  EXPECT_GT(retention, 0);
  // The runner-up candidate's marginal build value over the built 94x
  // index is small (94x -> 94x best-of), here zero since idx_d is slower.
  EXPECT_DOUBLE_EQ(Gain("idx_d"), 0);
}

TEST_F(MarginalGainTest, FasterCandidateStillEarnsMarginOverBuilt) {
  BuildFully("idx_d");  // the 7.44x index is built
  // idx_k (94x) improves on it: marginal gain positive but smaller than
  // its from-scratch gain would be.
  double marginal = Gain("idx_k");
  EXPECT_GT(marginal, 0);
  Catalog empty_cat;
  // From-scratch comparison: rebuild the fixture without idx_d built.
  double retention_d = Gain("idx_d");
  // The built 7.44x index retains value too (losing it would hurt).
  EXPECT_GT(retention_d, 0);
  EXPECT_GT(retention_d + marginal, marginal);
}

TEST_F(MarginalGainTest, MarginalDirections) {
  BuildFully("idx_k");
  // Retention of a built index == build value it would have offered.
  double retention = Marginal("idx_k", true);
  EXPECT_GT(retention, 0);
  // Build value of the built index over itself is zero.
  double build_again = Marginal("idx_k", false);
  EXPECT_NEAR(build_again, 0, 1e-9);
}

TEST_F(MarginalGainTest, IsBuiltReflectsCatalog) {
  EXPECT_FALSE(tuner_->IsBuilt("idx_k"));
  ASSERT_TRUE(catalog_.MarkIndexPartitionBuilt("idx_k", 0, 0).ok());
  EXPECT_TRUE(tuner_->IsBuilt("idx_k"));
}

// The exclude/include costs behind both marginal directions, through the
// per-query oracle; the table's current cost must equal the oracle's.
TEST_F(MarginalGainTest, FilteredCostExcludeAndInclude) {
  using oracle::EffectiveOpCostFiltered;
  BuildFully("idx_k");
  const Operator& op = df_.dag.op(0);
  EffectiveCost with = EffectiveOpCostFiltered(op, df_, catalog_, "", "");
  EffectiveCost current = tuner_->WhatIf(df_).Current(0);
  EXPECT_EQ(current.cpu_time, with.cpu_time);
  EXPECT_EQ(current.input_mb, with.input_mb);
  EXPECT_EQ(current.index_used, with.index_used);
  EffectiveCost without =
      EffectiveOpCostFiltered(op, df_, catalog_, "idx_k", "");
  EffectiveCost forced =
      EffectiveOpCostFiltered(op, df_, catalog_, "", "idx_d");
  EXPECT_LT(with.cpu_time, without.cpu_time);
  EXPECT_DOUBLE_EQ(without.cpu_time, 100.0);  // no other index built
  // Forcing the slower candidate still beats nothing, but cannot beat the
  // built faster one (min over available).
  EXPECT_NEAR(forced.cpu_time, with.cpu_time, 1e-9);
}

}  // namespace
}  // namespace dfim
