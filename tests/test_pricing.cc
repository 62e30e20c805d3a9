#include "cloud/pricing.h"

#include <gtest/gtest.h>

namespace dfim {
namespace {

TEST(PricingTest, PaperDefaults) {
  PricingModel p;
  EXPECT_DOUBLE_EQ(p.vm_price_per_quantum, 0.1);
  EXPECT_DOUBLE_EQ(p.storage_price_per_mb_per_quantum, 1e-4);
}

TEST(PricingTest, VmCost) {
  PricingModel p;
  EXPECT_DOUBLE_EQ(p.VmCost(0), 0.0);
  EXPECT_DOUBLE_EQ(p.VmCost(10), 1.0);
}

TEST(PricingTest, StorageCost) {
  PricingModel p;
  // 100 MB for 10 quanta at 1e-4 $/MB/quantum.
  EXPECT_NEAR(p.StorageCost(100, 10), 0.1, 1e-12);
}

TEST(PricingTest, FromMonthlyStoragePriceFollowsPaperFormula) {
  // Paper: Mst = (MC * 12 * Q) / (365.25 * 24 * 60), Q in minutes, per GB.
  PricingModel p = PricingModel::FromMonthlyStoragePrice(
      /*per_gb_per_month=*/10.0, /*quantum=*/60.0, /*vm=*/0.1);
  double expected_per_gb = 10.0 * 12.0 * 1.0 / (365.25 * 24.0 * 60.0);
  EXPECT_NEAR(p.storage_price_per_mb_per_quantum, expected_per_gb / 1024.0,
              1e-15);
  EXPECT_DOUBLE_EQ(p.vm_price_per_quantum, 0.1);
}

TEST(PricingTest, LargerQuantumCostsProportionallyMoreStorage) {
  PricingModel q60 = PricingModel::FromMonthlyStoragePrice(10, 60, 0.1);
  PricingModel q300 = PricingModel::FromMonthlyStoragePrice(10, 300, 0.1);
  EXPECT_NEAR(q300.storage_price_per_mb_per_quantum,
              5.0 * q60.storage_price_per_mb_per_quantum, 1e-15);
}

}  // namespace
}  // namespace dfim
