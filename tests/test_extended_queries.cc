// The remaining §1 operator categories — grouping and join — on real data
// structures, plus the batch-update path through the service.

#include "tpch/extended_queries.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/service.h"

namespace dfim {
namespace tpch {
namespace {

class ExtendedQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_ = new LineitemGenerator(0.005, 42);  // ~30k rows
    lineitem_ = new TableHeap<LineitemRow>();
    gen_->Generate(lineitem_);
    index_ = new BPlusTree<int32_t>(BuildOrderkeyIndex(*lineitem_));
    orders_ = new TableHeap<OrderRow>(GenerateOrders(gen_->MaxOrderKey()));
  }
  static void TearDownTestSuite() {
    delete gen_;
    delete lineitem_;
    delete index_;
    delete orders_;
  }
  static LineitemGenerator* gen_;
  static TableHeap<LineitemRow>* lineitem_;
  static BPlusTree<int32_t>* index_;
  static TableHeap<OrderRow>* orders_;
};

LineitemGenerator* ExtendedQueryTest::gen_ = nullptr;
TableHeap<LineitemRow>* ExtendedQueryTest::lineitem_ = nullptr;
BPlusTree<int32_t>* ExtendedQueryTest::index_ = nullptr;
TableHeap<OrderRow>* ExtendedQueryTest::orders_ = nullptr;

TEST_F(ExtendedQueryTest, OrdersGeneratorCoversKeySpace) {
  EXPECT_EQ(orders_->size(), static_cast<size_t>(gen_->MaxOrderKey()));
  int prio_counts[5] = {0};
  orders_->Scan([&](RowId, const OrderRow& o) {
    ASSERT_GE(o.priority, 0);
    ASSERT_LE(o.priority, 4);
    ++prio_counts[o.priority];
  });
  for (int c : prio_counts) EXPECT_GT(c, 0);
}

TEST_F(ExtendedQueryTest, GroupByAgreesAcrossPlans) {
  ExtendedQueries q(lineitem_, orders_, index_);
  QueryTiming t = q.GroupBy();
  // result_rows == -1 flags a disagreement between the two plans.
  EXPECT_GT(t.result_rows, 0);
  // Group count equals distinct orderkeys.
  std::unordered_map<int32_t, int> distinct;
  lineitem_->Scan(
      [&distinct](RowId, const LineitemRow& r) { distinct[r.orderkey] = 1; });
  EXPECT_EQ(t.result_rows, static_cast<int64_t>(distinct.size()));
  EXPECT_GT(t.no_index_sec, 0);
  EXPECT_GT(t.index_sec, 0);
}

TEST_F(ExtendedQueryTest, JoinAgreesAcrossPlans) {
  ExtendedQueries q(lineitem_, orders_, index_);
  QueryTiming t = q.Join(gen_->MaxOrderKey() / 100);
  EXPECT_GT(t.result_rows, 0);  // -1 would flag plan disagreement
  EXPECT_GT(t.no_index_sec, 0);
  EXPECT_GT(t.index_sec, 0);
  // A selective index nested-loop join beats re-hashing the fact table.
  EXPECT_GT(t.Speedup(), 1.0);
}

TEST_F(ExtendedQueryTest, JoinSelectivityZeroMatchesNothing) {
  ExtendedQueries q(lineitem_, orders_, index_);
  QueryTiming t = q.Join(0);
  EXPECT_EQ(t.result_rows, 0);
}

}  // namespace
}  // namespace tpch

namespace {

TEST(ServiceUpdateTest, BatchUpdatesInvalidateAndRebuild) {
  Catalog catalog;
  FileDatabaseOptions fdo;
  fdo.montage_files = 0;
  fdo.ligo_files = 0;
  fdo.cybershake_files = 4;
  FileDatabase db(&catalog, fdo);
  ASSERT_TRUE(db.Populate().ok());
  DataflowGenerator gen(&db, 11);
  PhaseWorkloadClient client(&gen, 60.0, {{AppType::kCybershake, 1e9}}, 11);

  ServiceOptions so;
  so.policy = IndexPolicy::kGain;
  so.total_time = 60.0 * 60.0;
  so.tuner.sched.max_containers = 10;
  so.tuner.sched.skyline_cap = 3;
  so.update_interval_quanta = 10.0;  // aggressive: every 10 quanta
  so.seed = 11;
  QaasService service(&catalog, so);
  auto m = service.Run(&client);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->update_batches, 2);
  EXPECT_GT(m->index_partitions_built, 0);
  // With 5% of one table updated every 10 quanta, some built index
  // partitions must have been invalidated.
  EXPECT_GT(m->index_partitions_invalidated, 0);
}

TEST(ServiceUpdateTest, UpdatesOffByDefault) {
  ServiceOptions so;
  EXPECT_DOUBLE_EQ(so.update_interval_quanta, 0);
}

}  // namespace
}  // namespace dfim
