/// Elastic fleet under a hostile control plane (DESIGN.md §13):
///
///   1. Provider draws (quota throttle, boot delay, spot reclaim) are
///      deterministic, in range, and arithmetically absent at zero rates.
///   2. Cluster elastic primitives: best-effort acquisition with booting
///      coverage, the first-VM quota exemption, capacity denials, drain
///      order, failure classification — all against the zero-slack ledger.
///   3. Service-level: autoscaler knob validation, open-loop requirement,
///      and a full elastic run whose two fleet ledger identities balance.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/cluster.h"
#include "cloud/fault_model.h"
#include "core/service.h"
#include "dataflow/workload.h"

namespace dfim {
namespace {

PricingModel Pricing() { return PricingModel{}; }

TEST(ProviderDrawsTest, ZeroRatesNeverFire) {
  FaultModel fm((FaultOptions()));
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(fm.AcquireDenied(i));
    EXPECT_DOUBLE_EQ(fm.BootDelay(i), 0.0);
    EXPECT_EQ(fm.PreemptOnset(i, 60.0, 1000), kNeverFails);
  }
}

TEST(ProviderDrawsTest, DrawsAreDeterministicAndInRange) {
  FaultOptions fo;
  fo.acquire_fail_rate = 0.5;
  fo.boot_delay_max = 40.0;
  fo.preempt_rate = 0.1;
  fo.seed = 9;
  FaultModel a(fo);
  FaultModel b(fo);
  int denied = 0, granted = 0, reclaimed = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a.AcquireDenied(i), b.AcquireDenied(i));
    a.AcquireDenied(i) ? ++denied : ++granted;
    EXPECT_DOUBLE_EQ(a.BootDelay(i), b.BootDelay(i));
    EXPECT_GE(a.BootDelay(i), 0.0);
    EXPECT_LE(a.BootDelay(i), 40.0);
    Seconds onset = a.PreemptOnset(i, 60.0, 10);
    EXPECT_EQ(onset, b.PreemptOnset(i, 60.0, 10));
    if (onset < kNeverFails) {
      ++reclaimed;
      EXPECT_GT(onset, 0.0);
      EXPECT_LE(onset, 10 * 60.0);
    }
  }
  // At these rates all three draw kinds must actually fire (and not always).
  EXPECT_GT(denied, 0);
  EXPECT_GT(granted, 0);
  EXPECT_GT(reclaimed, 0);
  EXPECT_LT(reclaimed, 64);
}

TEST(ClusterElasticTest, BootingContainersCountAsCoverage) {
  FaultOptions fo;
  fo.boot_delay_max = 50.0;
  fo.seed = 3;
  FaultModel fm(fo);
  Cluster cl(ContainerSpec{}, Pricing(), /*quantum=*/60, 8);
  cl.SetFaultModel(&fm, 100);
  AcquireOutcome out = cl.AcquireUsable(4, 0);
  // Every request was granted; booted ones are usable, the rest in flight.
  EXPECT_EQ(static_cast<int>(out.usable.size()) + out.booting, 4);
  EXPECT_EQ(out.denied_quota, 0);
  EXPECT_EQ(out.denied_capacity, 0);
  EXPECT_EQ(cl.HeldCount(), 4);
  EXPECT_EQ(cl.ledger().acquire_requests, 4);
  EXPECT_EQ(cl.ledger().granted, 4);
  // In-flight coverage: asking again at the same instant makes no new
  // provider request — booting containers were already paid for.
  AcquireOutcome again = cl.AcquireUsable(4, 0);
  EXPECT_EQ(static_cast<int>(again.usable.size()) + again.booting, 4);
  EXPECT_EQ(cl.ledger().acquire_requests, 4);
  // Once every boot delay (< 50 s) has elapsed, the whole fleet is usable.
  EXPECT_EQ(cl.UsableCount(50.0), cl.AliveCount(50.0));
  EXPECT_EQ(cl.AliveCount(50.0), 4);
}

TEST(ClusterElasticTest, QuotaThrottleExemptsTheFirstVm) {
  FaultOptions fo;
  fo.acquire_fail_rate = 1.0;  // the provider denies everything it can
  fo.seed = 7;
  FaultModel fm(fo);
  Cluster cl(ContainerSpec{}, Pricing(), /*quantum=*/60, 8);
  cl.SetFaultModel(&fm, 100);
  AcquireOutcome out = cl.AcquireUsable(3, 0);
  // The first VM of an empty fleet is exempt; the other two are throttled.
  ASSERT_EQ(out.usable.size(), 1u);
  EXPECT_EQ(out.denied_quota, 2);
  EXPECT_EQ(cl.ledger().acquire_requests, 3);
  EXPECT_EQ(cl.ledger().granted, 1);
  EXPECT_EQ(cl.ledger().denied_quota, 2);
  EXPECT_EQ(cl.ledger().RequestSlack(), 0);
  // The fleet is no longer empty: scale-out attempts have no exemption.
  AcquireOutcome more = cl.AcquireUsable(3, 10);
  EXPECT_EQ(more.usable.size(), 1u);  // just the reused survivor
  EXPECT_EQ(more.denied_quota, 2);
  EXPECT_EQ(cl.ledger().RequestSlack(), 0);
}

TEST(ClusterElasticTest, CapacityDenialsAreCounted) {
  Cluster cl(ContainerSpec{}, Pricing(), /*quantum=*/60, 2);
  AcquireOutcome out = cl.AcquireUsable(5, 0);
  EXPECT_EQ(out.usable.size(), 2u);
  EXPECT_EQ(out.denied_capacity, 3);
  EXPECT_EQ(cl.ledger().acquire_requests, 5);
  EXPECT_EQ(cl.ledger().granted, 2);
  EXPECT_EQ(cl.ledger().denied_capacity, 3);
  EXPECT_EQ(cl.ledger().RequestSlack(), 0);
  EXPECT_EQ(cl.ledger().GrantSlack(cl.HeldCount()), 0);
}

TEST(ClusterElasticTest, DrainReleasesEarliestLeaseEndFirst) {
  Cluster cl(ContainerSpec{}, Pricing(), /*quantum=*/60, 8);
  auto r = cl.Acquire(3, 0);
  ASSERT_TRUE(r.ok());
  cl.ChargeThrough((*r)[0], 150);  // lease_end 180
  cl.ChargeThrough((*r)[2], 90);   // lease_end 120; container 1 stays at 60
  EXPECT_EQ(cl.DrainIdleAbove(1), 2);
  EXPECT_EQ(cl.ledger().drained, 2);
  EXPECT_EQ(cl.ledger().released_idle, 2);
  EXPECT_EQ(cl.HeldCount(), 1);
  EXPECT_EQ(cl.ledger().GrantSlack(cl.HeldCount()), 0);
  // The survivor is the one whose lease runs longest (container 0).
  AcquireOutcome out = cl.AcquireUsable(1, 10);
  ASSERT_EQ(out.usable.size(), 1u);
  EXPECT_EQ(out.usable[0]->id(), 0);
}

TEST(ClusterElasticTest, ReapClassifiesPreemptionSeparately) {
  Cluster cl(ContainerSpec{}, Pricing(), /*quantum=*/60, 4);
  auto r = cl.Acquire(2, 0);
  ASSERT_TRUE(r.ok());
  // The provider reclaims container 0 mid-lease.
  (*r)[0]->set_preempt_at(30);
  EXPECT_EQ(cl.ReapExpired(30), 1);
  EXPECT_EQ(cl.ledger().preempted, 1);
  EXPECT_EQ(cl.ledger().released_idle, 0);
  // Container 1 just expires idle at the quantum boundary.
  EXPECT_EQ(cl.ReapExpired(60), 1);
  EXPECT_EQ(cl.ledger().preempted, 1);
  EXPECT_EQ(cl.ledger().released_idle, 1);
  EXPECT_EQ(cl.ledger().GrantSlack(cl.HeldCount()), 0);
}

TEST(ClusterElasticTest, RemoveFailedClassifiesCrashVsPreempt) {
  Cluster cl(ContainerSpec{}, Pricing(), /*quantum=*/60, 4);
  auto r = cl.Acquire(2, 0);
  ASSERT_TRUE(r.ok());
  cl.RemoveFailed((*r)[0], /*preempted=*/true);
  cl.RemoveFailed((*r)[1], /*preempted=*/false);
  EXPECT_EQ(cl.ledger().preempted, 1);
  EXPECT_EQ(cl.ledger().crashed, 1);
  EXPECT_EQ(cl.HeldCount(), 0);
  EXPECT_EQ(cl.ledger().GrantSlack(0), 0);
}

TEST(ClusterElasticTest, NextUsableAtSkipsDoomedBoots) {
  FaultOptions fo;  // zero rates: attach only to set the notice window
  fo.preempt_notice = 10.0;
  FaultModel fm(fo);
  Cluster cl(ContainerSpec{}, Pricing(), /*quantum=*/60, 4);
  cl.SetFaultModel(&fm, 100);
  AcquireOutcome out = cl.AcquireUsable(2, 0);
  ASSERT_EQ(out.usable.size(), 2u);
  out.usable[0]->set_usable_at(40);
  out.usable[1]->set_usable_at(25);
  EXPECT_DOUBLE_EQ(cl.NextUsableAt(0), 25.0);
  EXPECT_DOUBLE_EQ(cl.NextUsableAt(30), 40.0);
  // A boot that lands inside the reclaim-notice window never becomes
  // usable: 25 >= 30 - 10, so only the t=40 boot counts.
  out.usable[1]->set_preempt_at(30);
  EXPECT_DOUBLE_EQ(cl.NextUsableAt(0), 40.0);
  EXPECT_EQ(cl.NextUsableAt(50), kNeverFails);
}

TEST(AutoscalerOptionsTest, ValidationRejectsBadKnobs) {
  AutoscalerOptions ok;
  ok.enabled = true;
  EXPECT_TRUE(ValidateAutoscalerOptions(ok).ok());

  AutoscalerOptions bad = ok;
  bad.min_containers = 0;
  EXPECT_FALSE(ValidateAutoscalerOptions(bad).ok());

  bad = ok;
  bad.max_containers = bad.min_containers - 1;
  EXPECT_FALSE(ValidateAutoscalerOptions(bad).ok());

  bad = ok;
  bad.initial_containers = bad.max_containers + 1;
  EXPECT_FALSE(ValidateAutoscalerOptions(bad).ok());

  // Disabled autoscalers are never validated: the knobs are inert.
  bad.enabled = false;
  EXPECT_TRUE(ValidateAutoscalerOptions(bad).ok());
}

struct FleetRun {
  ServiceMetrics metrics;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<FileDatabase> db;
  std::unique_ptr<QaasService> service;
  Status status;
};

FleetRun RunService(uint64_t seed, ServiceOptions so) {
  FleetRun run;
  run.catalog = std::make_unique<Catalog>();
  FileDatabaseOptions fdo;
  fdo.montage_files = 4;
  fdo.ligo_files = 4;
  fdo.cybershake_files = 4;
  run.db = std::make_unique<FileDatabase>(run.catalog.get(), fdo);
  EXPECT_TRUE(run.db->Populate().ok());
  DataflowGenerator gen(run.db.get(), seed);
  so.seed = seed;
  run.service = std::make_unique<QaasService>(run.catalog.get(), so);
  // Mildly bursty: enough queueing to exercise the autoscaler's grow path
  // without stranding the whole stream behind a saturated service.
  ArrivalOptions arrivals;
  arrivals.mean_interarrival = 60.0;
  arrivals.burst_mean_interarrival = 15.0;
  arrivals.mean_baseline_duration = 600.0;
  arrivals.mean_burst_duration = 180.0;
  OpenLoopWorkloadClient client(&gen, arrivals, {}, seed * 7 + 1);
  auto m = run.service->Run(&client);
  run.status = m.status();
  if (m.ok()) run.metrics = *m;
  return run;
}

ServiceOptions BaseOptions() {
  ServiceOptions so;
  so.total_time = 25.0 * 60.0;
  so.tuner.sched.max_containers = 12;
  so.tuner.sched.skyline_cap = 3;
  so.sim.time_error = 0.1;
  so.sim.data_error = 0.1;
  so.admission.open_loop = true;
  return so;
}

ServiceOptions ElasticOptions() {
  ServiceOptions so = BaseOptions();
  // A multi-container floor keeps the fleet non-empty, so scale-out
  // requests face the quota throttle (only the first VM of an EMPTY fleet
  // is exempt).
  so.autoscaler.enabled = true;
  so.autoscaler.min_containers = 2;
  so.autoscaler.max_containers = 8;
  so.autoscaler.initial_containers = 6;
  so.faults.acquire_fail_rate = 0.25;
  so.faults.boot_delay_max = 30.0;
  so.faults.preempt_rate = 0.1;
  so.faults.preempt_notice = 30.0;
  so.faults.seed = 5;
  return so;
}

TEST(ServiceFleetTest, AutoscalerRequiresOpenLoop) {
  ServiceOptions so = BaseOptions();
  so.admission = AdmissionOptions{};  // closed loop
  so.autoscaler.enabled = true;
  FleetRun run = RunService(1, so);
  EXPECT_TRUE(run.status.IsInvalidArgument()) << run.status.ToString();
}

TEST(ServiceFleetTest, ElasticRunBalancesBothLedgers) {
  FleetRun run = RunService(11, ElasticOptions());
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  const ServiceMetrics& m = run.metrics;
  const FleetLedger& ledger = run.service->fleet().ledger();
  // `Run` checked both zero-slack fleet identities; the harvested metrics
  // mirror the ledger exactly.
  EXPECT_EQ(m.fleet_acquire_requests, ledger.acquire_requests);
  EXPECT_EQ(m.fleet_granted, ledger.granted);
  EXPECT_EQ(m.acquires_denied_quota, ledger.denied_quota);
  EXPECT_EQ(m.acquires_denied_capacity, ledger.denied_capacity);
  EXPECT_EQ(m.containers_preempted, static_cast<int>(ledger.preempted));
  EXPECT_EQ(m.containers_drained, static_cast<int>(ledger.drained));
  EXPECT_EQ(m.fleet_quanta_charged,
            run.service->fleet().total_quanta_charged());
  // The hostile control plane actually bit — quota throttles, spot
  // reclaims, and cold starts all fired — yet the service kept executing
  // (work was actually attempted rather than the loop wedging at zero VMs).
  EXPECT_GT(m.acquires_denied_quota, 0);
  EXPECT_GT(m.containers_preempted, 0);
  EXPECT_GT(m.boot_wait_quanta, 0.0);
  EXPECT_GE(m.dataflows_finished + m.dataflows_failed + m.dataflows_overran,
            2);
}

TEST(ServiceFleetTest, ElasticOffKeepsLegacyFleetSemantics) {
  FleetRun run = RunService(11, BaseOptions());
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  const ServiceMetrics& m = run.metrics;
  // With the elastic machinery off the provider never denies, preempts,
  // drains, backs off, or delays a boot — the strict path is untouched.
  EXPECT_EQ(m.acquires_denied_quota, 0);
  EXPECT_EQ(m.acquires_denied_capacity, 0);
  EXPECT_EQ(m.containers_preempted, 0);
  EXPECT_EQ(m.containers_drained, 0);
  EXPECT_EQ(m.acquire_backoffs, 0);
  EXPECT_EQ(m.fleet_grow_events, 0);
  EXPECT_EQ(m.fleet_shrink_events, 0);
  EXPECT_DOUBLE_EQ(m.boot_wait_quanta, 0.0);
  EXPECT_EQ(m.fleet_acquire_requests, m.fleet_granted);
}

TEST(ServiceFleetTest, ElasticRunsReproduceBitIdentically) {
  FleetRun a = RunService(13, ElasticOptions());
  FleetRun b = RunService(13, ElasticOptions());
  ASSERT_TRUE(a.status.ok() && b.status.ok());
  EXPECT_EQ(a.metrics.dataflows_arrived, b.metrics.dataflows_arrived);
  EXPECT_EQ(a.metrics.dataflows_finished, b.metrics.dataflows_finished);
  EXPECT_EQ(a.metrics.total_vm_quanta, b.metrics.total_vm_quanta);
  EXPECT_EQ(a.metrics.total_time_quanta, b.metrics.total_time_quanta);
  EXPECT_EQ(a.metrics.fleet_acquire_requests, b.metrics.fleet_acquire_requests);
  EXPECT_EQ(a.metrics.acquires_denied_quota, b.metrics.acquires_denied_quota);
  EXPECT_EQ(a.metrics.containers_preempted, b.metrics.containers_preempted);
  EXPECT_EQ(a.metrics.containers_drained, b.metrics.containers_drained);
  EXPECT_EQ(a.metrics.fleet_quanta_charged, b.metrics.fleet_quanta_charged);
  EXPECT_EQ(a.metrics.acquire_backoffs, b.metrics.acquire_backoffs);
  EXPECT_EQ(a.metrics.boot_wait_quanta, b.metrics.boot_wait_quanta);
  EXPECT_EQ(a.metrics.queue_delay_quanta, b.metrics.queue_delay_quanta);
}

}  // namespace
}  // namespace dfim
