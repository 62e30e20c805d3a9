#include "cloud/cluster.h"

#include <gtest/gtest.h>

#include "cloud/container.h"

namespace dfim {
namespace {

constexpr Seconds kQuantum = 60;

TEST(ContainerTest, FreshContainerChargedOneQuantum) {
  Container c(0, ContainerSpec{}, kQuantum, 0);
  EXPECT_EQ(c.quanta_charged(), 1);
  EXPECT_DOUBLE_EQ(c.lease_end(), 60.0);
  EXPECT_TRUE(c.AliveAt(30));
  EXPECT_FALSE(c.AliveAt(60));
  EXPECT_FALSE(c.AliveAt(100));
}

TEST(ContainerTest, ExtendLeaseChargesWholeQuanta) {
  Container c(0, ContainerSpec{}, kQuantum, 0);
  EXPECT_EQ(c.ExtendLeaseTo(30), 0);   // within first quantum
  EXPECT_EQ(c.ExtendLeaseTo(61), 1);   // needs a second
  EXPECT_EQ(c.quanta_charged(), 2);
  EXPECT_EQ(c.ExtendLeaseTo(290), 3);  // through the 5th
  EXPECT_EQ(c.quanta_charged(), 5);
  EXPECT_DOUBLE_EQ(c.lease_end(), 300);
}

TEST(ContainerTest, LeaseStartOffset) {
  Container c(0, ContainerSpec{}, kQuantum, 120);
  EXPECT_DOUBLE_EQ(c.lease_end(), 180);
  EXPECT_TRUE(c.AliveAt(150));
  EXPECT_FALSE(c.AliveAt(180));
}

TEST(ContainerTest, QuantumEndAt) {
  Container c(0, ContainerSpec{}, kQuantum, 0);
  EXPECT_DOUBLE_EQ(c.QuantumEndAt(0), 60);
  EXPECT_DOUBLE_EQ(c.QuantumEndAt(59), 60);
  EXPECT_DOUBLE_EQ(c.QuantumEndAt(60), 120);  // boundary starts next quantum
  EXPECT_DOUBLE_EQ(c.QuantumEndAt(61), 120);
}

TEST(ClusterTest, AcquireAllocatesAndReuses) {
  Cluster cl(ContainerSpec{}, PricingModel{}, kQuantum, 10);
  auto r1 = cl.Acquire(3, 0);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->size(), 3u);
  EXPECT_EQ(cl.total_quanta_charged(), 3);
  // Re-acquire within the same quantum: same containers, no new charge.
  auto r2 = cl.Acquire(3, 30);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cl.total_quanta_charged(), 3);
  EXPECT_EQ((*r2)[0]->id(), (*r1)[0]->id());
}

TEST(ClusterTest, ExpiredContainersReplaced) {
  Cluster cl(ContainerSpec{}, PricingModel{}, kQuantum, 10);
  auto r1 = cl.Acquire(2, 0);
  ASSERT_TRUE(r1.ok());
  // After their quantum, the containers are gone; new ones allocated.
  auto r2 = cl.Acquire(2, 120);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cl.total_quanta_charged(), 4);
  EXPECT_EQ(cl.total_allocated(), 4);
}

TEST(ClusterTest, RespectsMaxContainers) {
  Cluster cl(ContainerSpec{}, PricingModel{}, kQuantum, 2);
  EXPECT_TRUE(cl.Acquire(2, 0).ok());
  auto r = cl.Acquire(3, 10);
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(ClusterTest, RejectsNonPositive) {
  Cluster cl(ContainerSpec{}, PricingModel{}, kQuantum, 2);
  EXPECT_TRUE(cl.Acquire(0, 0).status().IsInvalidArgument());
}

TEST(ClusterTest, ChargeThroughAccrues) {
  Cluster cl(ContainerSpec{}, PricingModel{}, kQuantum, 4);
  auto r = cl.Acquire(1, 0);
  ASSERT_TRUE(r.ok());
  cl.ChargeThrough((*r)[0], 250);
  EXPECT_EQ(cl.total_quanta_charged(), 5);
  EXPECT_NEAR(cl.total_vm_cost(), 0.5, 1e-12);
}

TEST(ClusterTest, AliveCountAndReap) {
  Cluster cl(ContainerSpec{}, PricingModel{}, kQuantum, 4);
  ASSERT_TRUE(cl.Acquire(3, 0).ok());
  EXPECT_EQ(cl.AliveCount(30), 3);
  EXPECT_EQ(cl.ReapExpired(60), 3);
  EXPECT_EQ(cl.AliveCount(60), 0);
}

TEST(ClusterTest, AcquireReuseKeepsStableOrderAndMonotoneIds) {
  // The service's per-dataflow acquisition depends on this: re-acquiring
  // returns alive containers in their original order (schedule container i
  // maps to the same VM, so its cache is the one warmed by slot i), and
  // fresh containers always get new, monotone ids — an id is never recycled
  // even after its container was reaped.
  Cluster cl(ContainerSpec{}, PricingModel{}, kQuantum, 10);
  auto r1 = cl.Acquire(3, 0);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*r1)[0]->id(), 0);
  EXPECT_EQ((*r1)[1]->id(), 1);
  EXPECT_EQ((*r1)[2]->id(), 2);
  // Extend container 1 so it outlives the others.
  cl.ChargeThrough((*r1)[1], 90);
  // At t=70 only container 1 is alive; asking for 2 reuses it first.
  auto r2 = cl.Acquire(2, 70);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)[0]->id(), 1);
  EXPECT_EQ((*r2)[1]->id(), 3);  // fresh id, never reuses 0 or 2
  EXPECT_EQ(cl.total_allocated(), 4);
}

TEST(ClusterTest, ReapExpiredLosesCaches) {
  // Paper §3: an idle VM is deleted when its leased quantum expires, and
  // its local disk (the LRU cache) is gone. A later acquisition gets a
  // fresh, cold container.
  Cluster cl(ContainerSpec{}, PricingModel{}, kQuantum, 4);
  auto r1 = cl.Acquire(1, 0);
  ASSERT_TRUE(r1.ok());
  (*r1)[0]->cache().Put("table/p0", 100.0);
  EXPECT_TRUE((*r1)[0]->cache().Contains("table/p0"));
  EXPECT_EQ(cl.ReapExpired(60), 1);
  auto r2 = cl.Acquire(1, 60);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE((*r2)[0]->cache().Contains("table/p0"));
  EXPECT_EQ(cl.total_allocated(), 2);
}

TEST(ClusterTest, ChargeThroughMatchesContainerLeaseEnd) {
  // Billing identity: the cluster's aggregate bill equals the sum of each
  // container's own quanta_charged, and every lease_end is exactly
  // lease_start + quanta_charged * quantum.
  Cluster cl(ContainerSpec{}, PricingModel{}, kQuantum, 4);
  auto r = cl.Acquire(2, 0);
  ASSERT_TRUE(r.ok());
  cl.ChargeThrough((*r)[0], 250);   // 5 quanta
  cl.ChargeThrough((*r)[1], 61);    // 2 quanta
  cl.ChargeThrough((*r)[1], 45);    // no-op: already covered
  EXPECT_EQ((*r)[0]->quanta_charged(), 5);
  EXPECT_EQ((*r)[1]->quanta_charged(), 2);
  EXPECT_DOUBLE_EQ((*r)[0]->lease_end(), 300.0);
  EXPECT_DOUBLE_EQ((*r)[1]->lease_end(), 120.0);
  EXPECT_EQ(cl.total_quanta_charged(),
            (*r)[0]->quanta_charged() + (*r)[1]->quanta_charged());
  EXPECT_NEAR(cl.total_vm_cost(), 0.7, 1e-12);
}

TEST(ClusterTest, LegacyAcquireLedgerBalances) {
  // Even the strict pre-elastic path keeps the zero-slack ledger: every
  // fresh allocation is a request, every reaped lease is released_idle.
  Cluster cl(ContainerSpec{}, PricingModel{}, kQuantum, 2);
  ASSERT_TRUE(cl.Acquire(2, 0).ok());
  EXPECT_TRUE(cl.Acquire(3, 10).status().IsResourceExhausted());
  ASSERT_TRUE(cl.Acquire(1, 120).ok());  // both expired; one fresh
  const FleetLedger& ledger = cl.ledger();
  EXPECT_EQ(ledger.acquire_requests, 4);  // 2 + 1 denied + 1
  EXPECT_EQ(ledger.granted, 3);
  EXPECT_EQ(ledger.denied_capacity, 1);
  EXPECT_EQ(ledger.denied_quota, 0);
  EXPECT_EQ(ledger.released_idle, 2);
  EXPECT_EQ(ledger.RequestSlack(), 0);
  EXPECT_EQ(ledger.GrantSlack(cl.HeldCount()), 0);
}

}  // namespace
}  // namespace dfim
