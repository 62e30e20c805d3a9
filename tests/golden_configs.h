// The six fixed-seed service configurations that `test_golden` digests,
// shared with `test_what_if`, which watches the same runs through a client
// hook.

#ifndef DFIM_TESTS_GOLDEN_CONFIGS_H_
#define DFIM_TESTS_GOLDEN_CONFIGS_H_

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/service.h"
#include "core/sharded_service.h"
#include "dataflow/workload.h"

namespace dfim::golden {

/// FNV-1a over the bit patterns of the run's observable outcome.
inline uint64_t Digest(const ServiceMetrics& m) {
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

inline ServiceOptions BaseOptions(uint64_t seed) {
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

/// Interposes on one service run's workload client. Called with the run's
/// catalog, service and options before `Run`; returns the client the
/// service reads instead of `inner`, or null to keep `inner`.
using ClientHook = std::function<std::unique_ptr<WorkloadClient>(
    WorkloadClient* inner, Catalog* catalog, const QaasService& service,
    const ServiceOptions& options)>;

/// Runs one service on `catalog` over `client`, through `hook` when set.
inline ServiceMetrics RunService(Catalog* catalog, const ServiceOptions& so,
                                 WorkloadClient* client,
                                 const ClientHook& hook) {
  QaasService service(catalog, so);
  std::unique_ptr<WorkloadClient> hooked =
      hook ? hook(client, catalog, service, so) : nullptr;
  Result<ServiceMetrics> m = service.Run(hooked ? hooked.get() : client);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return m.ok() ? *m : ServiceMetrics{};
}

/// Closed loop over three application phases, long enough for the phase
/// shifts to make earlier indexes non-beneficial.
inline ServiceMetrics RunClosed(ServiceOptions so, const ClientHook& hook) {
  so.total_time = 60.0 * 60.0;
  so.deletion_grace_quanta = 5.0;
  World w;
  DataflowGenerator gen(w.db.get(), so.seed);
  PhaseWorkloadClient client(&gen, 60.0,
                             {{AppType::kMontage, 1200.0},
                              {AppType::kLigo, 1200.0},
                              {AppType::kCybershake, 1e9}},
                             so.seed);
  return RunService(&w.catalog, so, &client, hook);
}

/// Open loop of Montage arrivals.
inline ServiceMetrics RunOpen(const ServiceOptions& so,
                              const ArrivalOptions& arrivals,
                              const ClientHook& hook) {
  World w;
  DataflowGenerator gen(w.db.get(), so.seed);
  OpenLoopWorkloadClient client(&gen, arrivals, {{AppType::kMontage, 1e9}},
                                so.seed * 7 + 1);
  return RunService(&w.catalog, so, &client, hook);
}

/// Machine faults, corruption with verify/scrub/repair, speculation,
/// hedging and the storage breaker, all live; the journal is on.
inline ServiceOptions StressedOptions(uint64_t seed) {
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

inline ArrivalOptions SteadyArrivals() {
  ArrivalOptions a;
  a.mean_interarrival = 120.0;
  return a;
}

inline constexpr int kTenants = 8;

/// Every configuration's outcome, keyed by golden-file name. The tenants
/// run on a 4-shard `ShardedQaasService`. With a hook each tenant instead
/// runs on its own `QaasService` over its share of the arrivals, which is
/// what its shard runs, so the hook sees each tenant's catalog and service.
inline std::map<std::string, ServiceMetrics> RunAll(
    const ClientHook& hook = {}) {
  std::map<std::string, ServiceMetrics> out;

  ServiceOptions lp = BaseOptions(3);
  lp.tuner.mode = InterleaveMode::kLp;
  out["phase_closed_gain_lp"] = RunClosed(lp, hook);

  ServiceOptions online = BaseOptions(5);
  online.policy = IndexPolicy::kGainNoDelete;
  online.tuner.mode = InterleaveMode::kOnline;
  out["gain_no_delete_online"] = RunClosed(online, hook);

  out["stressed_open_journal"] =
      RunOpen(StressedOptions(7), SteadyArrivals(), hook);

  ServiceOptions crashes = StressedOptions(9);
  crashes.faults.ctl_crash_rate = 0.1;
  out["journal_ctl_crashes"] = RunOpen(crashes, SteadyArrivals(), hook);

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
  out["elastic_fleet_faults"] = RunOpen(elastic, bursty, hook);

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
  if (!hook) {
    ShardedQaasService sharded(catalogs, tenants, ShardOptions{4});
    Result<ServiceMetrics> m = sharded.Run(&client);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    for (size_t t = 0; t < sharded.per_tenant().size(); ++t) {
      out["tenants_batched.t" + std::to_string(t)] = sharded.per_tenant()[t];
    }
    return out;
  }
  // ShardedQaasService::Run's split: arrivals by tenant, tenant t seeded
  // with seed ^ t * 0x9e3779b97f4a7c15.
  std::vector<std::vector<Dataflow>> streams(kTenants);
  while (std::optional<Dataflow> df = client.Next(0, tenants.total_time)) {
    streams[static_cast<size_t>(df->tenant % kTenants)].push_back(
        *std::move(df));
  }
  for (int t = 0; t < kTenants; ++t) {
    ServiceOptions o = tenants;
    o.seed = tenants.seed ^ (static_cast<uint64_t>(t) * 0x9e3779b97f4a7c15ULL);
    ReplayWorkloadClient replay(std::move(streams[static_cast<size_t>(t)]));
    out["tenants_batched.t" + std::to_string(t)] =
        RunService(catalogs[static_cast<size_t>(t)], o, &replay, hook);
  }
  return out;
}

/// Reads `name digest` lines; `#` starts a comment line.
inline std::map<std::string, uint64_t> ReadGolden(const std::string& path) {
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

inline std::string GoldenLine(const std::string& name, uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  return name + " " + hex;
}

}  // namespace dfim::golden

#endif  // DFIM_TESTS_GOLDEN_CONFIGS_H_
