#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/sharded_service.h"
#include "core/service.h"
#include "dataflow/workload.h"

namespace dfim {
namespace {

/// One tenant's world: a catalog plus the database populated into it.
/// Every tenant gets an identically-populated (deterministic) copy.
struct TenantWorld {
  TenantWorld() {
    FileDatabaseOptions fdo;
    fdo.montage_files = 4;
    fdo.ligo_files = 4;
    fdo.cybershake_files = 4;
    db = std::make_unique<FileDatabase>(&catalog, fdo);
    EXPECT_TRUE(db->Populate().ok());
  }
  Catalog catalog;
  std::unique_ptr<FileDatabase> db;
};

struct ShardFixture {
  explicit ShardFixture(int num_tenants) {
    for (int t = 0; t < num_tenants; ++t) {
      worlds.push_back(std::make_unique<TenantWorld>());
      catalogs.push_back(&worlds.back()->catalog);
    }
    gen = std::make_unique<DataflowGenerator>(worlds.front()->db.get(), 5);
  }

  OpenLoopWorkloadClient Client(double mean_interarrival, int num_tenants) {
    ArrivalOptions a;
    a.mean_interarrival = mean_interarrival;
    OpenLoopWorkloadClient client(gen.get(), a, {{AppType::kMontage, 1e9}},
                                  5);
    client.set_num_tenants(num_tenants);
    return client;
  }

  std::vector<std::unique_ptr<TenantWorld>> worlds;
  std::vector<Catalog*> catalogs;
  std::unique_ptr<DataflowGenerator> gen;
};

ServiceOptions BaseOptions(Seconds horizon = 20.0 * 60.0) {
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

/// Bit-identity over everything observable: every mirrored counter, the
/// non-mirrored numeric fields, and the whole timeline.
void ExpectMetricsIdentical(const ServiceMetrics& a, const ServiceMetrics& b) {
#define DFIM_EXPECT_COUNTER(type, name) EXPECT_EQ(a.name, b.name) << #name;
  DFIM_MIRRORED_COUNTERS(DFIM_EXPECT_COUNTER)
#undef DFIM_EXPECT_COUNTER
  EXPECT_EQ(a.storage_cost, b.storage_cost);
  EXPECT_EQ(a.queue_delay_quanta, b.queue_delay_quanta);
  EXPECT_EQ(a.storage_clock_clamps, b.storage_clock_clamps);
  EXPECT_EQ(a.corruptions_injected, b.corruptions_injected);
  EXPECT_EQ(a.corruptions_dead, b.corruptions_dead);
  EXPECT_EQ(a.corruptions_latent, b.corruptions_latent);
  EXPECT_EQ(a.quarantine_evicted, b.quarantine_evicted);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].t, b.timeline[i].t) << "point " << i;
    EXPECT_EQ(a.timeline[i].indexes_built, b.timeline[i].indexes_built);
    EXPECT_EQ(a.timeline[i].index_mb, b.timeline[i].index_mb);
    EXPECT_EQ(a.timeline[i].storage_cost, b.timeline[i].storage_cost);
    EXPECT_EQ(a.timeline[i].queue_delay_quanta,
              b.timeline[i].queue_delay_quanta);
    EXPECT_EQ(a.timeline[i].makespan_quanta, b.timeline[i].makespan_quanta);
  }
}

// ---------------------------------------------------------------------------
// Knob validation (satellite 1).

TEST(ShardValidationTest, RejectsBadShardKnobs) {
  ShardOptions so;
  so.num_shards = 0;
  EXPECT_FALSE(ValidateShardOptions(so).ok());
  so.num_shards = 4;
  EXPECT_TRUE(ValidateShardOptions(so).ok());
}

TEST(ShardValidationTest, RejectsBadBatchKnobs) {
  BatchOptions bo;
  EXPECT_TRUE(ValidateBatchOptions(bo).ok());
  bo.max_batch = 0;
  EXPECT_FALSE(ValidateBatchOptions(bo).ok());
  bo.max_batch = 4;
  bo.window_quanta = -1.0;
  EXPECT_FALSE(ValidateBatchOptions(bo).ok());
  bo.window_quanta = 2.0;
  EXPECT_TRUE(ValidateBatchOptions(bo).ok());
}

TEST(ShardValidationTest, BatchedAdmissionRequiresOpenLoop) {
  ShardFixture f(1);
  ServiceOptions so = BaseOptions();
  so.admission.open_loop = false;
  so.batch.max_batch = 4;
  QaasService svc(f.catalogs[0], so);
  PhaseWorkloadClient client(f.gen.get(), 60.0, {{AppType::kMontage, 1e9}},
                             5);
  auto m = svc.Run(&client);
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsInvalidArgument()) << m.status().ToString();
}

TEST(ShardValidationTest, ShardedServiceRequiresOpenLoop) {
  ShardFixture f(1);
  ServiceOptions so = BaseOptions();
  so.admission.open_loop = false;
  ShardedQaasService svc(f.catalogs, so, ShardOptions{});
  auto client = f.Client(60.0, 1);
  auto m = svc.Run(&client);
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsInvalidArgument());
}

TEST(ShardValidationTest, ShardedServiceRejectsBadKnobsAtEntry) {
  ShardFixture f(1);
  ShardOptions bad;
  bad.num_shards = -2;
  ShardedQaasService svc(f.catalogs, BaseOptions(), bad);
  auto client = f.Client(60.0, 1);
  auto m = svc.Run(&client);
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Tenant identity plumbing.

TEST(TenantStampingTest, OpenLoopClientRoundRobinsTenants) {
  ShardFixture f(1);
  auto client = f.Client(30.0, 3);
  for (int i = 0; i < 9; ++i) {
    auto df = client.Next(0, 20.0 * 60.0);
    ASSERT_TRUE(df.has_value());
    EXPECT_EQ(df->tenant, i % 3);
  }
}

TEST(TenantStampingTest, DefaultClientLeavesTenantZero) {
  ShardFixture f(1);
  ArrivalOptions a;
  a.mean_interarrival = 30.0;
  OpenLoopWorkloadClient client(f.gen.get(), a, {{AppType::kMontage, 1e9}},
                                5);
  for (int i = 0; i < 5; ++i) {
    auto df = client.Next(0, 20.0 * 60.0);
    ASSERT_TRUE(df.has_value());
    EXPECT_EQ(df->tenant, 0);
  }
}

TEST(TenantStampingTest, ReplayClientYieldsTheDrainedStream) {
  ShardFixture f(1);
  auto client = f.Client(30.0, 2);
  std::vector<Dataflow> drained;
  while (auto df = client.Next(0, 20.0 * 60.0)) drained.push_back(*df);
  ASSERT_FALSE(drained.empty());
  ReplayWorkloadClient replay(drained);
  for (const auto& want : drained) {
    auto got = replay.Next(0, 20.0 * 60.0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->id, want.id);
    EXPECT_EQ(got->issued_at, want.issued_at);
    EXPECT_EQ(got->tenant, want.tenant);
  }
  EXPECT_FALSE(replay.Next(0, 20.0 * 60.0).has_value());
}

// ---------------------------------------------------------------------------
// Shard-count invariance and monolithic equivalence (satellite 3).

TEST(ShardingTest, SingleTenantSingleShardMatchesMonolithicService) {
  ServiceOptions so = BaseOptions();
  // Monolithic arm.
  ShardFixture mono(1);
  QaasService svc(mono.catalogs[0], so);
  auto mono_client = mono.Client(30.0, 1);
  auto mm = svc.Run(&mono_client);
  ASSERT_TRUE(mm.ok()) << mm.status().ToString();
  // Sharded arm: one tenant, one shard, batch off.
  ShardFixture sharded(1);
  ShardedQaasService ssvc(sharded.catalogs, so, ShardOptions{});
  auto shard_client = sharded.Client(30.0, 1);
  auto sm = ssvc.Run(&shard_client);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  ASSERT_EQ(ssvc.per_tenant().size(), 1u);
  EXPECT_EQ(ssvc.per_tenant()[0].tenant, 0);
  ExpectMetricsIdentical(*mm, ssvc.per_tenant()[0]);
  EXPECT_GT(mm->dataflows_finished, 0);
}

std::vector<ServiceMetrics> RunSharded(int num_tenants, int num_shards) {
  ShardFixture f(num_tenants);
  ShardOptions so;
  so.num_shards = num_shards;
  ShardedQaasService svc(f.catalogs, BaseOptions(), so);
  auto client = f.Client(20.0, num_tenants);
  auto m = svc.Run(&client);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return svc.per_tenant();
}

TEST(ShardingTest, ShardCountInvariancePerTenantMetrics) {
  // The tenant is the isolation unit; the shard is only a thread grouping.
  // Per-tenant metrics must be bit-identical at 1, 2 and 4 shards.
  auto one = RunSharded(4, 1);
  auto two = RunSharded(4, 2);
  auto four = RunSharded(4, 4);
  ASSERT_EQ(one.size(), 4u);
  ASSERT_EQ(two.size(), 4u);
  ASSERT_EQ(four.size(), 4u);
  int finished = 0;
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(one[t].tenant, t);
    ExpectMetricsIdentical(one[t], two[t]);
    ExpectMetricsIdentical(one[t], four[t]);
    finished += one[t].dataflows_finished;
  }
  EXPECT_GT(finished, 0);
}

TEST(ShardingTest, RerunReproducibilityWithThreads) {
  auto a = RunSharded(4, 4);
  auto b = RunSharded(4, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) ExpectMetricsIdentical(a[t], b[t]);
}

// ---------------------------------------------------------------------------
// Zero-slack aggregation identity (satellite 2).

TEST(ShardingTest, AggregateIdentityZeroSlack) {
  ShardFixture f(3);
  ShardOptions shards;
  shards.num_shards = 3;
  ShardedQaasService svc(f.catalogs, BaseOptions(), shards);
  auto client = f.Client(20.0, 3);
  auto agg = svc.Run(&client);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_EQ(agg->tenant, -1);
  EXPECT_TRUE(agg->timeline.empty());
  const auto& per = svc.per_tenant();
  ASSERT_EQ(per.size(), 3u);
  // For every mirrored counter: sum over tenants == aggregate, exactly.
#define DFIM_CHECK_SUM(type, name)                          \
  {                                                         \
    type sum = 0;                                           \
    for (const auto& m : per) sum += m.name;                \
    EXPECT_EQ(sum, agg->name) << #name;                     \
  }
  DFIM_MIRRORED_COUNTERS(DFIM_CHECK_SUM)
#undef DFIM_CHECK_SUM
  double cost = 0;
  for (const auto& m : per) cost += m.storage_cost;
  EXPECT_EQ(cost, agg->storage_cost);
}

// ---------------------------------------------------------------------------
// Batched admission (tentpole a).

TEST(BatchingTest, MaxBatchOneIsBitIdenticalToUnbatched) {
  ServiceOptions plain = BaseOptions();
  ShardFixture a(1);
  QaasService sa(a.catalogs[0], plain);
  auto ca = a.Client(20.0, 1);
  auto ma = sa.Run(&ca);
  ASSERT_TRUE(ma.ok());

  ServiceOptions batched = BaseOptions();
  batched.batch.max_batch = 1;     // explicit off
  batched.batch.window_quanta = 8; // irrelevant at max_batch 1
  ShardFixture b(1);
  QaasService sb(b.catalogs[0], batched);
  auto cb = b.Client(20.0, 1);
  auto mb = sb.Run(&cb);
  ASSERT_TRUE(mb.ok());
  ExpectMetricsIdentical(*ma, *mb);
  EXPECT_EQ(ma->dataflow_batches, 0);
  EXPECT_EQ(ma->batched_dataflows, 0);
}

TEST(BatchingTest, BatchedAccountingIdentityAndFormation) {
  // Overload the open loop so a queue builds, then merge up to 4 pending
  // arrivals per admission window. `Run` fails unless every batch member is
  // accounted for exactly once.
  ServiceOptions so = BaseOptions(30.0 * 60.0);
  so.batch.max_batch = 4;
  so.batch.window_quanta = 10.0;
  ShardFixture f(1);
  QaasService svc(f.catalogs[0], so);
  auto client = f.Client(8.0, 1);
  auto m = svc.Run(&client);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_GT(m->dataflow_batches, 0);
  EXPECT_GE(m->batched_dataflows, 2 * m->dataflow_batches);
  EXPECT_LE(m->batched_dataflows,
            m->dataflows_finished + m->dataflows_failed +
                m->dataflows_overran);
  // One timeline point per executed dataflow, batch members included.
  EXPECT_EQ(static_cast<int>(m->timeline.size()),
            m->dataflows_finished + m->dataflows_failed +
                m->dataflows_overran);
}

TEST(BatchingTest, BatchedServiceKeepsUpAtLeastAsWell) {
  // At the same arrival pressure, merging pending arrivals through one
  // skyline pass must not reduce throughput: the batch holds the server
  // for one merged makespan instead of the sum of members'.
  ServiceOptions plain = BaseOptions(30.0 * 60.0);
  ShardFixture a(1);
  QaasService sa(a.catalogs[0], plain);
  auto ca = a.Client(8.0, 1);
  auto ma = sa.Run(&ca);
  ASSERT_TRUE(ma.ok());

  ServiceOptions batched = plain;
  batched.batch.max_batch = 4;
  batched.batch.window_quanta = 10.0;
  ShardFixture b(1);
  QaasService sb(b.catalogs[0], batched);
  auto cb = b.Client(8.0, 1);
  auto mb = sb.Run(&cb);
  ASSERT_TRUE(mb.ok());
  EXPECT_GE(mb->dataflows_finished + mb->dataflows_overran,
            ma->dataflows_finished + ma->dataflows_overran);
}

}  // namespace
}  // namespace dfim
