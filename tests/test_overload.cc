#include <gtest/gtest.h>

#include <memory>

#include "core/service.h"
#include "dataflow/workload.h"

namespace dfim {
namespace {

/// Small database + open-loop service harness for the overload tests.
struct OverloadFixture {
  explicit OverloadFixture(const ServiceOptions& so, uint64_t seed = 5) {
    FileDatabaseOptions fdo;
    fdo.montage_files = 4;
    fdo.ligo_files = 4;
    fdo.cybershake_files = 4;
    db = std::make_unique<FileDatabase>(&catalog, fdo);
    EXPECT_TRUE(db->Populate().ok());
    gen = std::make_unique<DataflowGenerator>(db.get(), seed);
    service = std::make_unique<QaasService>(&catalog, so);
  }

  /// Runs the open loop; `Run` itself fails on any ledger slack (the
  /// arrival identity, catalog ⊆ storage, ...).
  ServiceMetrics Run(const ArrivalOptions& arrivals, uint64_t seed = 5) {
    OpenLoopWorkloadClient client(gen.get(), arrivals,
                                  {{AppType::kMontage, 1e9}}, seed);
    auto m = service->Run(&client);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? *m : ServiceMetrics{};
  }

  Catalog catalog;
  std::unique_ptr<FileDatabase> db;
  std::unique_ptr<DataflowGenerator> gen;
  std::unique_ptr<QaasService> service;
};

ServiceOptions BaseOptions(Seconds horizon = 40.0 * 60.0) {
  ServiceOptions so;
  so.policy = IndexPolicy::kGain;
  so.total_time = horizon;
  so.tuner.sched.max_containers = 12;
  so.tuner.sched.skyline_cap = 3;
  so.sim.time_error = 0.1;
  so.sim.data_error = 0.1;
  so.seed = 5;
  so.admission.open_loop = true;
  return so;
}

ArrivalOptions Arrivals(double mean) {
  ArrivalOptions a;
  a.mean_interarrival = mean;
  return a;
}

TEST(PersistBreakerTest, OpensProbesAndCloses) {
  BreakerOptions o;
  o.open_after = 2;
  o.open_duration = 100;
  PersistBreaker b;
  EXPECT_EQ(b.Admit(0, 4), 4);
  // Two consecutive faults open it until t + open_duration.
  EXPECT_FALSE(b.Fault(o, 10));
  EXPECT_EQ(b.state, BreakerState::kClosed);
  EXPECT_TRUE(b.Fault(o, 10));
  EXPECT_EQ(b.state, BreakerState::kOpen);
  EXPECT_EQ(b.open_until, 110);
  // The gate skips every persist before open_until.
  EXPECT_TRUE(b.OpenAt(50));
  EXPECT_EQ(b.Admit(50, 4), -1);
  EXPECT_EQ(b.Admit(109.5, 4), -1);
  EXPECT_EQ(b.state, BreakerState::kOpen);
  // Then one probe, with no retries.
  EXPECT_EQ(b.Admit(110, 4), 0);
  EXPECT_EQ(b.state, BreakerState::kHalfOpen);
  EXPECT_FALSE(b.OpenAt(110));
  // A failed probe re-opens it with a fresh open_until.
  EXPECT_TRUE(b.Fault(o, 130));
  EXPECT_EQ(b.state, BreakerState::kOpen);
  EXPECT_EQ(b.open_until, 230);
  EXPECT_EQ(b.Admit(200, 4), -1);
  // A landed probe closes it and resets the count: a fault on either side
  // of a landing does not open it.
  EXPECT_EQ(b.Admit(230, 4), 0);
  b.Landed();
  EXPECT_EQ(b.state, BreakerState::kClosed);
  EXPECT_EQ(b.Admit(235, 4), 4);
  EXPECT_FALSE(b.Fault(o, 240));
  b.Landed();
  EXPECT_EQ(b.faults, 0);
  EXPECT_FALSE(b.Fault(o, 250));
  EXPECT_EQ(b.state, BreakerState::kClosed);
}

TEST(PersistBreakerTest, ZeroOpenAfterIsInert) {
  BreakerOptions o;  // open_after = 0: breaker off
  PersistBreaker b;
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(b.Fault(o, i));
  EXPECT_EQ(b.state, BreakerState::kClosed);
  EXPECT_EQ(b.faults, 0);
  EXPECT_FALSE(b.OpenAt(5));
  EXPECT_EQ(b.Admit(5, 4), 4);
}

TEST(OverloadTest, ClosedLoopDefaultsKeepOverloadCountersZero) {
  // With admission.open_loop false (the default) nothing overload-related
  // may fire: the paper's closed-loop path is untouched.
  ServiceOptions so = BaseOptions();
  so.admission = AdmissionOptions{};
  OverloadFixture f(so);
  PhaseWorkloadClient client(f.gen.get(), 60.0, {{AppType::kMontage, 1e9}}, 5);
  auto m = f.service->Run(&client);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->dataflows_finished, 0);
  EXPECT_EQ(m->dataflows_shed, 0);
  EXPECT_EQ(m->deadlines_missed, 0);
  EXPECT_EQ(m->builds_shed, 0);
  EXPECT_EQ(m->breaker_opens, 0);
  EXPECT_EQ(m->retries_denied, 0);
  EXPECT_EQ(m->queue_delay_quanta, 0);
  EXPECT_EQ(m->peak_queue_len, 0);
  EXPECT_EQ(m->storage_clock_clamps, 0);
}

TEST(OverloadTest, OpenLoopAccountsEveryArrivalExactly) {
  // Overloaded (arrivals much faster than service) with an unbounded queue:
  // nothing is shed at admission, but horizon-stranded entries still count,
  // and the identity holds with zero slack.
  OverloadFixture f(BaseOptions());
  ServiceMetrics m = f.Run(Arrivals(15.0));
  EXPECT_GT(m.dataflows_arrived, 0);
  EXPECT_GT(m.dataflows_finished, 0);
  EXPECT_EQ(m.shed_queue_full, 0);  // unbounded queue
  EXPECT_GT(m.peak_queue_len, 0);
  EXPECT_GT(m.queue_delay_quanta, 0);
}

TEST(OverloadTest, OpenLoopIsDeterministic) {
  auto run = [] {
    OverloadFixture f(BaseOptions());
    return f.Run(Arrivals(20.0));
  };
  ServiceMetrics a = run();
  ServiceMetrics b = run();
  EXPECT_EQ(a.dataflows_arrived, b.dataflows_arrived);
  EXPECT_EQ(a.dataflows_finished, b.dataflows_finished);
  EXPECT_EQ(a.dataflows_shed, b.dataflows_shed);
  EXPECT_EQ(a.total_vm_quanta, b.total_vm_quanta);
  EXPECT_EQ(a.queue_delay_quanta, b.queue_delay_quanta);  // bit-identical
  EXPECT_EQ(a.storage_cost, b.storage_cost);
}

TEST(OverloadTest, BoundedQueueShedsAndRespectsCapacity) {
  ServiceOptions so = BaseOptions();
  so.admission.max_queue = 4;
  so.admission.shed = ShedPolicy::kRejectNewest;
  OverloadFixture f(so);
  ServiceMetrics m = f.Run(Arrivals(10.0));
  EXPECT_GT(m.shed_queue_full, 0);
  EXPECT_LE(m.peak_queue_len, 4);
}

TEST(OverloadTest, AllShedPoliciesKeepTheIdentity) {
  for (ShedPolicy policy :
       {ShedPolicy::kRejectNewest, ShedPolicy::kDeadlineInfeasible}) {
    ServiceOptions so = BaseOptions();
    so.admission.max_queue = 3;
    so.admission.shed = policy;
    so.admission.slo_factor = 2.0;
    OverloadFixture f(so);
    ServiceMetrics m = f.Run(Arrivals(10.0));
    EXPECT_GT(m.dataflows_shed, 0) << ShedPolicyToString(policy);
    // The shed reasons are subsets of all sheds.
    EXPECT_GE(m.dataflows_shed, m.shed_queue_full + m.shed_infeasible);
  }
}

TEST(OverloadTest, DeadlinesMissedCountedUnderOverload) {
  ServiceOptions so = BaseOptions();
  so.admission.slo_factor = 2.0;  // tight: queue delay blows deadlines
  OverloadFixture f(so);
  ServiceMetrics m = f.Run(Arrivals(15.0));
  EXPECT_GT(m.deadlines_missed, 0);
  // Misses still count as finished: goodput is the difference.
  EXPECT_LE(m.deadlines_missed, m.dataflows_finished);
}

TEST(OverloadTest, InfeasibleEntriesDroppedEarly) {
  ServiceOptions so = BaseOptions();
  so.admission.shed = ShedPolicy::kDeadlineInfeasible;
  so.admission.slo_factor = 1.0;  // any queue delay makes entries infeasible
  OverloadFixture f(so);
  ServiceMetrics m = f.Run(Arrivals(15.0));
  EXPECT_GT(m.shed_infeasible, 0);
}

TEST(OverloadTest, BrownoutShedsBuildsUnderPressure) {
  ServiceOptions base = BaseOptions();
  OverloadFixture plain(base);
  ServiceMetrics without = plain.Run(Arrivals(15.0));

  ServiceOptions so = BaseOptions();
  so.brownout.pressure_lo_quanta = 0.5;
  so.brownout.pressure_hi_quanta = 3.0;
  OverloadFixture f(so);
  ServiceMetrics with = f.Run(Arrivals(15.0));

  EXPECT_EQ(without.builds_shed, 0);
  EXPECT_GT(with.builds_shed, 0);
  // Shedding builds can only reduce index-building work.
  EXPECT_LE(with.index_partitions_built, without.index_partitions_built);
}

TEST(OverloadTest, BreakerOpensAndCutsRetryTraffic) {
  // storage_fault_rate = 1.0: every Put attempt faults, so without the
  // breaker every build burns the full retry ladder (max_retries + 1 draws);
  // with it, the ladder trips at open_after and later builds are skipped
  // outright while open, so far fewer retries are burned.
  auto run = [](int open_after) {
    ServiceOptions so = BaseOptions();
    so.faults.storage_fault_rate = 1.0;
    so.faults.seed = 13;
    so.breaker.open_after = open_after;
    so.breaker.open_duration = 240.0;
    OverloadFixture f(so);
    ServiceMetrics m = f.Run(Arrivals(30.0));
    return m;
  };
  ServiceMetrics without = run(0);
  ServiceMetrics with = run(3);
  EXPECT_EQ(without.breaker_opens, 0);
  EXPECT_GT(without.builds_discarded, 0);
  EXPECT_GT(with.breaker_opens, 0);
  EXPECT_GT(with.builds_discarded, 0);
  // Nothing ever persists at rate 1.0 either way.
  EXPECT_EQ(without.index_partitions_built, 0);
  EXPECT_EQ(with.index_partitions_built, 0);
  EXPECT_LT(with.storage_retries, without.storage_retries);
}

TEST(OverloadTest, RetryBudgetCapsFleetWideRecovery) {
  auto run = [](int budget) {
    ServiceOptions so = BaseOptions(60.0 * 60.0);
    so.faults.crash_rate = 0.3;
    so.faults.seed = 21;
    so.admission.retry_budget = budget;
    OverloadFixture f(so);
    ServiceMetrics m = f.Run(Arrivals(60.0));
    return m;
  };
  ServiceMetrics unlimited = run(-1);
  ServiceMetrics capped = run(2);
  EXPECT_EQ(unlimited.retries_denied, 0);
  EXPECT_GT(capped.retries_denied, 0);
  EXPECT_LE(capped.recovery_quanta, unlimited.recovery_quanta);
}

}  // namespace
}  // namespace dfim
