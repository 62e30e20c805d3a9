/// Golden outcome digests: "every counter bit-identical" as a tier-1 check.
///
/// Six short fixed-seed configurations, one per subsystem, each reduced to
/// an FNV-1a digest over the same fields `bench/e2e` digests: every mirrored
/// counter, `storage_cost`, `queue_delay_quanta` and every timeline point.
/// The digests are compared with the committed `tests/golden/digests.txt`.
/// A change that moves a digest is a behaviour change: the failure prints
/// the replacement line, and the change that commits it says which digest
/// moved and why.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/service.h"
#include "core/sharded_service.h"
#include "dataflow/workload.h"

namespace dfim {
namespace {

/// FNV-1a over the bit patterns of the run's observable outcome.
uint64_t Digest(const ServiceMetrics& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](auto v) {
    unsigned char bytes[sizeof(v)];
    std::memcpy(bytes, &v, sizeof(v));
    for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  };
#define DFIM_GOLDEN_ADD(type, name) add(m.name);
  DFIM_MIRRORED_COUNTERS(DFIM_GOLDEN_ADD)
#undef DFIM_GOLDEN_ADD
  add(m.storage_cost);
  add(m.queue_delay_quanta);
  for (const TimelinePoint& pt : m.timeline) {
    add(pt.t);
    add(pt.indexes_built);
    add(pt.index_mb);
    add(pt.queue_delay_quanta);
    add(pt.makespan_quanta);
  }
  return h;
}

/// One tenant's world: a small deterministic database in its own catalog.
struct World {
  World() {
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

ServiceOptions BaseOptions(uint64_t seed) {
  ServiceOptions so;
  so.policy = IndexPolicy::kGain;
  so.total_time = 25.0 * 60.0;
  so.tuner.sched.max_containers = 12;
  so.tuner.sched.skyline_cap = 3;
  so.sim.time_error = 0.1;
  so.sim.data_error = 0.1;
  so.seed = seed;
  return so;
}

/// Closed loop over three application phases, long enough for the phase
/// shifts to make earlier indexes non-beneficial.
ServiceMetrics RunClosed(ServiceOptions so) {
  so.total_time = 60.0 * 60.0;
  so.deletion_grace_quanta = 5.0;
  World w;
  DataflowGenerator gen(w.db.get(), so.seed);
  PhaseWorkloadClient client(&gen, 60.0,
                             {{AppType::kMontage, 1200.0},
                              {AppType::kLigo, 1200.0},
                              {AppType::kCybershake, 1e9}},
                             so.seed);
  QaasService service(&w.catalog, so);
  Result<ServiceMetrics> m = service.Run(&client);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return m.ok() ? *m : ServiceMetrics{};
}

/// Open loop of Montage arrivals.
ServiceMetrics RunOpen(const ServiceOptions& so,
                       const ArrivalOptions& arrivals) {
  World w;
  DataflowGenerator gen(w.db.get(), so.seed);
  OpenLoopWorkloadClient client(&gen, arrivals, {{AppType::kMontage, 1e9}},
                                so.seed * 7 + 1);
  QaasService service(&w.catalog, so);
  Result<ServiceMetrics> m = service.Run(&client);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return m.ok() ? *m : ServiceMetrics{};
}

/// Machine faults, corruption with verify/scrub/repair, speculation,
/// hedging and the storage breaker, all live; the journal is on.
ServiceOptions StressedOptions(uint64_t seed) {
  ServiceOptions so = BaseOptions(seed);
  so.faults.crash_rate = 0.02;
  so.faults.storage_fault_rate = 0.2;
  so.faults.straggler_rate = 0.1;
  so.faults.torn_write_rate = 0.2;
  so.faults.bitrot_rate = 0.002;
  so.faults.seed = 31;
  so.integrity.verify_reads = true;
  so.integrity.verify_latency = 1.0;
  so.integrity.scrub_objects_per_quantum = 2.0;
  so.integrity.repair = true;
  so.speculation.speculate = true;
  so.speculation.spec_slowdown_threshold = 1.5;
  so.speculation.hedge_reads = true;
  so.speculation.hedge_after = 10.0;
  so.breaker.open_after = 2;
  so.breaker.open_duration = 300.0;
  so.admission.open_loop = true;
  so.admission.max_queue = 8;
  so.journal.enabled = true;
  so.total_time = 40.0 * 60.0;
  return so;
}

ArrivalOptions SteadyArrivals() {
  ArrivalOptions a;
  a.mean_interarrival = 120.0;
  return a;
}

constexpr int kTenants = 8;

/// Every configuration's outcome, keyed by golden-file name.
std::map<std::string, ServiceMetrics> RunAll() {
  std::map<std::string, ServiceMetrics> out;

  ServiceOptions lp = BaseOptions(3);
  lp.tuner.mode = InterleaveMode::kLp;
  out["phase_closed_gain_lp"] = RunClosed(lp);

  ServiceOptions online = BaseOptions(5);
  online.policy = IndexPolicy::kGainNoDelete;
  online.tuner.mode = InterleaveMode::kOnline;
  out["gain_no_delete_online"] = RunClosed(online);

  out["stressed_open_journal"] = RunOpen(StressedOptions(7), SteadyArrivals());

  ServiceOptions crashes = StressedOptions(9);
  crashes.faults.ctl_crash_rate = 0.1;
  out["journal_ctl_crashes"] = RunOpen(crashes, SteadyArrivals());

  ServiceOptions elastic = BaseOptions(11);
  elastic.total_time = 60.0 * 60.0;
  elastic.admission.open_loop = true;
  elastic.autoscaler.enabled = true;
  elastic.autoscaler.min_containers = 2;
  elastic.autoscaler.max_containers = 8;
  elastic.autoscaler.initial_containers = 6;
  elastic.faults.acquire_fail_rate = 0.25;
  elastic.faults.boot_delay_max = 30.0;
  elastic.faults.preempt_rate = 0.02;
  elastic.faults.preempt_notice = 30.0;
  elastic.faults.seed = 5;
  ArrivalOptions bursty;
  bursty.mean_interarrival = 600.0;
  bursty.burst_mean_interarrival = 120.0;
  bursty.mean_baseline_duration = 600.0;
  bursty.mean_burst_duration = 180.0;
  out["elastic_fleet_faults"] = RunOpen(elastic, bursty);

  std::vector<std::unique_ptr<World>> worlds;
  std::vector<Catalog*> catalogs;
  for (int t = 0; t < kTenants; ++t) {
    worlds.push_back(std::make_unique<World>());
    catalogs.push_back(&worlds.back()->catalog);
  }
  ServiceOptions tenants = BaseOptions(13);
  tenants.total_time = 15.0 * 60.0;
  tenants.admission.open_loop = true;
  tenants.batch.max_batch = 4;
  tenants.batch.window_quanta = 10.0;
  DataflowGenerator gen(worlds.front()->db.get(), 13);
  ArrivalOptions dense;
  dense.mean_interarrival = 10.0;
  OpenLoopWorkloadClient client(&gen, dense, {{AppType::kMontage, 1e9}}, 13);
  client.set_num_tenants(kTenants);
  ShardedQaasService sharded(catalogs, tenants, ShardOptions{4});
  Result<ServiceMetrics> m = sharded.Run(&client);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  for (size_t t = 0; t < sharded.per_tenant().size(); ++t) {
    out["tenants_batched.t" + std::to_string(t)] = sharded.per_tenant()[t];
  }
  return out;
}

/// RunAll, once per process; both tests read it.
const std::map<std::string, ServiceMetrics>& Outcomes() {
  static const std::map<std::string, ServiceMetrics> outcomes = RunAll();
  return outcomes;
}

/// Reads `name digest` lines; `#` starts a comment line.
std::map<std::string, uint64_t> ReadGolden(const std::string& path) {
  std::map<std::string, uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string hex;
    if (fields >> name >> hex) out[name] = std::stoull(hex, nullptr, 16);
  }
  return out;
}

std::string GoldenLine(const std::string& name, uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  return name + " " + hex;
}

TEST(GoldenTest, OutcomeDigestsMatchCommitted) {
  const std::map<std::string, uint64_t> golden = ReadGolden(DFIM_GOLDEN_FILE);
  ASSERT_FALSE(golden.empty()) << "no digests read from " << DFIM_GOLDEN_FILE;
  for (const auto& [name, metrics] : Outcomes()) {
    const uint64_t digest = Digest(metrics);
    auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden digest for " << name
                    << "; add the line:\n  " << GoldenLine(name, digest);
      continue;
    }
    EXPECT_EQ(it->second, digest)
        << name << " moved; if the change is intended, replace its line with:"
        << "\n  " << GoldenLine(name, digest);
  }
  for (const auto& [name, digest] : golden) {
    EXPECT_TRUE(Outcomes().count(name) > 0)
        << "golden digest " << name << " names no configuration";
  }
}

// A digest pins only what its run exercises.
TEST(GoldenTest, EveryConfigurationExercisesItsSubsystem) {
  const std::map<std::string, ServiceMetrics>& o = Outcomes();
  EXPECT_GT(o.at("phase_closed_gain_lp").indexes_deleted, 0);
  EXPECT_GT(o.at("gain_no_delete_online").index_partitions_built, 0);
  const ServiceMetrics& stressed = o.at("stressed_open_journal");
  EXPECT_GT(stressed.containers_failed, 0);
  EXPECT_GT(stressed.spec_wins, 0);
  EXPECT_GT(stressed.hedge_wins, 0);
  EXPECT_GT(stressed.repairs_completed, 0);
  EXPECT_GT(stressed.journal_records, 0);
  EXPECT_GT(o.at("journal_ctl_crashes").ctl_crashes, 0);
  EXPECT_GT(o.at("journal_ctl_crashes").breaker_opens, 0);
  const ServiceMetrics& elastic = o.at("elastic_fleet_faults");
  EXPECT_GT(elastic.containers_preempted, 0);
  EXPECT_GT(elastic.acquires_denied_quota, 0);
  EXPECT_GT(elastic.fleet_grow_events, 0);
  EXPECT_GT(elastic.fleet_shrink_events, 0);
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_GT(o.at("tenants_batched.t" + std::to_string(t)).dataflow_batches,
              0);
  }
}

}  // namespace
}  // namespace dfim
