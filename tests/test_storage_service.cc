#include "cloud/storage_service.h"

#include <gtest/gtest.h>

namespace dfim {
namespace {

PricingModel Pricing() { return PricingModel{}; }  // $0.1, 1e-4
constexpr Seconds kQuantum = 60;

TEST(StorageServiceTest, PutDeleteExists) {
  StorageService s(Pricing(), kQuantum);
  s.Put("x", 100, 0);
  EXPECT_TRUE(s.Exists("x"));
  EXPECT_DOUBLE_EQ(s.SizeOf("x"), 100);
  EXPECT_DOUBLE_EQ(s.used(), 100);
  s.Delete("x", 0);
  EXPECT_FALSE(s.Exists("x"));
  EXPECT_DOUBLE_EQ(s.used(), 0);
  s.Delete("x", 0);  // idempotent
}

TEST(StorageServiceTest, ReplaceAdjustsUsage) {
  StorageService s(Pricing(), kQuantum);
  s.Put("x", 100, 0);
  s.Put("x", 40, 0);
  EXPECT_DOUBLE_EQ(s.used(), 40);
  EXPECT_EQ(s.object_count(), 1u);
}

TEST(StorageServiceTest, BillingIntegratesMbQuanta) {
  StorageService s(Pricing(), kQuantum);
  s.Put("x", 100, 0);
  s.AdvanceTo(600);  // 10 quanta at 100 MB
  EXPECT_NEAR(s.accrued_mb_quanta(), 1000.0, 1e-9);
  EXPECT_NEAR(s.accrued_cost(), 1000.0 * 1e-4, 1e-9);
}

TEST(StorageServiceTest, MidWindowChangesProrated) {
  StorageService s(Pricing(), kQuantum);
  s.Put("x", 100, 0);
  s.Put("y", 100, 300);  // x alone for 5 quanta, then 200 MB for 5
  s.AdvanceTo(600);
  EXPECT_NEAR(s.accrued_mb_quanta(), 100 * 5 + 200 * 5, 1e-9);
}

TEST(StorageServiceTest, DeleteStopsBilling) {
  StorageService s(Pricing(), kQuantum);
  s.Put("x", 100, 0);
  s.Delete("x", 300);
  s.AdvanceTo(6000);
  EXPECT_NEAR(s.accrued_mb_quanta(), 500.0, 1e-9);
}

TEST(StorageServiceTest, EmptyStoreAccruesNothing) {
  StorageService s(Pricing(), kQuantum);
  s.AdvanceTo(6000);
  EXPECT_DOUBLE_EQ(s.accrued_cost(), 0);
}

TEST(StorageServiceTest, ForwardAdvanceAccrues) {
  StorageService s(Pricing(), kQuantum);
  s.Put("x", 100, 0);
  s.AdvanceTo(60);
  double after_one = s.accrued_mb_quanta();
  EXPECT_GT(after_one, 0);
  s.AdvanceTo(120);
  EXPECT_GT(s.accrued_mb_quanta(), after_one);
  EXPECT_DOUBLE_EQ(s.last_billed(), 120);
}

TEST(StorageServiceTest, BackwardAdvanceClampsWithoutCorruption) {
  // AdvanceTo's precondition is non-decreasing time. A regression must be
  // clamped (logged, ignored): billed state and the clock stay untouched,
  // and later forward advances bill from the high-water mark only.
  StorageService s(Pricing(), kQuantum);
  s.Put("x", 100, 0);
  s.AdvanceTo(120);
  double accrued = s.accrued_mb_quanta();
  double cost = s.accrued_cost();
  s.AdvanceTo(60);  // regression: no-op
  EXPECT_DOUBLE_EQ(s.accrued_mb_quanta(), accrued);
  EXPECT_DOUBLE_EQ(s.accrued_cost(), cost);
  EXPECT_DOUBLE_EQ(s.last_billed(), 120);
  s.AdvanceTo(180);  // forward again: exactly one more window billed
  StorageService ref(Pricing(), kQuantum);
  ref.Put("x", 100, 0);
  ref.AdvanceTo(180);
  EXPECT_DOUBLE_EQ(s.accrued_mb_quanta(), ref.accrued_mb_quanta());
  EXPECT_DOUBLE_EQ(s.accrued_cost(), ref.accrued_cost());
}

TEST(StorageServiceTest, ClockClampsAreCountedNotSilent) {
  // Regressions used to be absorbed silently; they are now surfaced as a
  // counter so callers that settle storage out of order can be detected.
  StorageService s(Pricing(), kQuantum);
  s.Put("x", 100, 0);
  s.AdvanceTo(120);
  EXPECT_EQ(s.clock_clamps(), 0);
  s.AdvanceTo(60);  // AdvanceTo regression
  EXPECT_EQ(s.clock_clamps(), 1);
  s.Put("y", 50, 30);  // Put settling before the high-water mark
  EXPECT_EQ(s.clock_clamps(), 2);
  s.Delete("y", 10);  // Delete too
  EXPECT_EQ(s.clock_clamps(), 3);
  // Landing exactly on the mark is in-order, not a regression.
  s.Put("z", 10, 120);
  EXPECT_EQ(s.clock_clamps(), 3);
  s.AdvanceTo(180);  // forward motion never counts
  EXPECT_EQ(s.clock_clamps(), 3);
}

TEST(SimulateReadTest, NoFaultNoHedgeIsJustBaseLatency) {
  ReadOutcome r = StorageService::SimulateRead(
      /*base_latency=*/2.0, /*primary_fault=*/false, /*fault_latency=*/30.0,
      /*hedge_enabled=*/false, /*hedge_after=*/5.0, /*hedge_fault=*/false);
  EXPECT_DOUBLE_EQ(r.latency, 2.0);
  EXPECT_FALSE(r.primary_fault);
  EXPECT_FALSE(r.hedged);
  EXPECT_FALSE(r.hedge_won);
}

TEST(SimulateReadTest, FaultDelaysInsteadOfFailing) {
  ReadOutcome r = StorageService::SimulateRead(2.0, true, 30.0, false, 5.0,
                                               false);
  EXPECT_DOUBLE_EQ(r.latency, 32.0);
  EXPECT_TRUE(r.primary_fault);
  EXPECT_FALSE(r.hedged);
}

TEST(SimulateReadTest, FastPrimaryNeverTriggersHedge) {
  // The primary completes within hedge_after: no duplicate is issued even
  // with hedging enabled — the no-hedge arithmetic is preserved exactly.
  ReadOutcome r = StorageService::SimulateRead(2.0, false, 30.0, true, 5.0,
                                               true);
  EXPECT_DOUBLE_EQ(r.latency, 2.0);
  EXPECT_FALSE(r.hedged);
  EXPECT_FALSE(r.hedge_won);
}

TEST(SimulateReadTest, CleanDuplicateBeatsFaultedPrimary) {
  // Primary: 2 + 30 = 32 s. Duplicate issued at 5 s, clean: lands at 7 s.
  ReadOutcome r = StorageService::SimulateRead(2.0, true, 30.0, true, 5.0,
                                               false);
  EXPECT_TRUE(r.hedged);
  EXPECT_TRUE(r.hedge_won);
  EXPECT_DOUBLE_EQ(r.latency, 7.0);
}

TEST(SimulateReadTest, FaultedDuplicateLosesAndChangesNothing) {
  // Both requests fault: duplicate lands at 5 + 2 + 30 = 37 s, after the
  // primary's 32 s — first response wins, so latency stays the primary's.
  ReadOutcome r = StorageService::SimulateRead(2.0, true, 30.0, true, 5.0,
                                               true);
  EXPECT_TRUE(r.hedged);
  EXPECT_TRUE(r.hedge_fault);
  EXPECT_FALSE(r.hedge_won);
  EXPECT_DOUBLE_EQ(r.latency, 32.0);
}

TEST(SimulateReadTest, TieGoesToThePrimary) {
  // Duplicate lands exactly with the primary (base 5, fault 5, hedge at 5:
  // primary 10, duplicate 5 + 5 = 10): the primary keeps the win.
  ReadOutcome r = StorageService::SimulateRead(5.0, true, 5.0, true, 5.0,
                                               false);
  EXPECT_TRUE(r.hedged);
  EXPECT_FALSE(r.hedge_won);
  EXPECT_DOUBLE_EQ(r.latency, 10.0);
}

}  // namespace
}  // namespace dfim
