#include "dataflow/cost.h"

#include <gtest/gtest.h>

#include "core/what_if.h"

namespace dfim {
namespace {

/// `op`'s cost under the built indexes, read from the what-if table of a
/// one-op copy of `df`.
EffectiveCost EffectiveOpCost(const Operator& op, const Dataflow& df,
                              const Catalog& catalog) {
  Dataflow one = df;
  one.dag = Dag();
  one.dag.AddOperator(op);
  return WhatIfTable(one, catalog, /*net_mb_per_sec=*/125.0, /*quantum=*/60.0)
      .Current(0);
}

class CostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({Column::Int32("k"), Column::Char("pad", 121.0)});
    Table t("f", s);
    t.PartitionBySize(2000000, 128.0);  // ~238 MB in 2 partitions
    num_parts_ = static_cast<int>(t.num_partitions());
    ASSERT_TRUE(catalog_.AddTable(std::move(t)).ok());
    ASSERT_TRUE(catalog_.DefineIndex(IndexDef{"idx", "f", {"k"}}).ok());

    df_.candidate_indexes = {"idx"};
    df_.index_speedup["idx"] = 10.0;

    op_.id = 0;
    op_.time = 100.0;
    op_.input_table = "f";
  }
  Catalog catalog_;
  Dataflow df_;
  Operator op_;
  int num_parts_ = 0;
};

TEST_F(CostTest, BaseCostReadsWholeTable) {
  EffectiveCost c = BaseOpCost(op_, catalog_);
  EXPECT_DOUBLE_EQ(c.cpu_time, 100.0);
  auto table = catalog_.GetTable("f");
  EXPECT_NEAR(c.input_mb, (*table)->TotalSize(), 1e-9);
  EXPECT_TRUE(c.index_used.empty());
}

TEST_F(CostTest, NoInputTableMeansNoTransfer) {
  Operator op;
  op.time = 50;
  EffectiveCost c = BaseOpCost(op, catalog_);
  EXPECT_DOUBLE_EQ(c.input_mb, 0);
  EffectiveCost e = EffectiveOpCost(op, df_, catalog_);
  EXPECT_DOUBLE_EQ(e.cpu_time, 50);
}

TEST_F(CostTest, UnbuiltIndexGivesNoSpeedup) {
  EffectiveCost c = EffectiveOpCost(op_, df_, catalog_);
  EXPECT_DOUBLE_EQ(c.cpu_time, 100.0);
  EXPECT_TRUE(c.index_used.empty());
}

TEST_F(CostTest, FullyBuiltIndexAppliesSpeedup) {
  for (int p = 0; p < num_parts_; ++p) {
    ASSERT_TRUE(catalog_.MarkIndexPartitionBuilt("idx", p, 0).ok());
  }
  EffectiveCost c = EffectiveOpCost(op_, df_, catalog_);
  EXPECT_NEAR(c.cpu_time, 100.0 / 10.0, 1e-9);  // φ=1, s=10
  EXPECT_EQ(c.index_used, "idx");
  EXPECT_DOUBLE_EQ(c.index_fraction, 1.0);
  // Input: file/10 plus the index itself.
  auto table = catalog_.GetTable("f");
  auto idx_size = catalog_.BuiltSize("idx");
  EXPECT_NEAR(c.input_mb, (*table)->TotalSize() / 10.0 + *idx_size, 1e-6);
}

TEST_F(CostTest, PartialIndexInterpolates) {
  ASSERT_TRUE(catalog_.MarkIndexPartitionBuilt("idx", 0, 0).ok());
  EffectiveCost c = EffectiveOpCost(op_, df_, catalog_);
  double phi = 1.0 / num_parts_;
  EXPECT_NEAR(c.cpu_time, 100.0 * ((1 - phi) + phi / 10.0), 1e-9);
  EXPECT_NEAR(c.index_fraction, phi, 1e-12);
}

TEST_F(CostTest, StaleIndexPartitionIgnored) {
  ASSERT_TRUE(catalog_.MarkIndexPartitionBuilt("idx", 0, 0).ok());
  ASSERT_TRUE(catalog_.ApplyBatchUpdate("f", {0}).ok());
  EffectiveCost c = EffectiveOpCost(op_, df_, catalog_);
  EXPECT_DOUBLE_EQ(c.cpu_time, 100.0);
}

TEST_F(CostTest, BestOfMultipleIndexesChosen) {
  ASSERT_TRUE(catalog_.DefineIndex(IndexDef{"idx2", "f", {"k"}}).ok());
  df_.candidate_indexes.push_back("idx2");
  df_.index_speedup["idx2"] = 100.0;
  for (int p = 0; p < num_parts_; ++p) {
    ASSERT_TRUE(catalog_.MarkIndexPartitionBuilt("idx", p, 0).ok());
    ASSERT_TRUE(catalog_.MarkIndexPartitionBuilt("idx2", p, 0).ok());
  }
  EffectiveCost c = EffectiveOpCost(op_, df_, catalog_);
  EXPECT_EQ(c.index_used, "idx2");
  EXPECT_NEAR(c.cpu_time, 1.0, 1e-9);
}

// The fully built what-if cost shows in the build value: the op drops from
// its base cost to t/s, reading |F|/s plus the whole index.
TEST_F(CostTest, WhatIfForcesFullBuild) {
  const double net = 125.0;
  const double quantum = 60.0;
  Dataflow df = df_;
  df.dag.AddOperator(op_);
  const MegaBytes file = (*catalog_.GetTable("f"))->TotalSize();
  const MegaBytes index = *catalog_.FullSize("idx");
  const double base = 100.0 + file / net;
  const double forced = 10.0 + (file / 10.0 + index) / net;
  EXPECT_NEAR(WhatIfTable(df, catalog_, net, quantum).Marginal("idx", false),
              (base - forced) / quantum, 1e-9);
  // An op on another table gains nothing from the index.
  ASSERT_TRUE(catalog_.AddTable(Table("g", Schema({Column::Int32("x")}))).ok());
  Operator other = op_;
  other.input_table = "g";
  df.dag = Dag();
  df.dag.AddOperator(other);
  EXPECT_EQ(WhatIfTable(df, catalog_, net, quantum).Marginal("idx", false), 0);
}

TEST_F(CostTest, SpeedupOfOneIsNoOp) {
  df_.index_speedup["idx"] = 1.0;
  for (int p = 0; p < num_parts_; ++p) {
    ASSERT_TRUE(catalog_.MarkIndexPartitionBuilt("idx", p, 0).ok());
  }
  EffectiveCost c = EffectiveOpCost(op_, df_, catalog_);
  EXPECT_DOUBLE_EQ(c.cpu_time, 100.0);
  EXPECT_TRUE(c.index_used.empty());
}

}  // namespace
}  // namespace dfim
