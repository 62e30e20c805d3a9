/// Chaos property fuzzer: sweeps seeds x fault profiles x admission/control
/// profiles x arrival processes through the open-loop QaaS service and
/// asserts the structural invariants that must hold under ANY combination:
///
///   1. Every zero-slack ledger balances (ServiceSlack: the arrival
///      identity, speculation, corruption, quarantine, both fleet
///      identities, the journal, catalog ⊆ storage). `Run` enforces these
///      itself, so every run here checks them by returning OK.
///   2. Counter sanity: sheds decompose, bounded queues never overflow,
///      storage settles in order.
///   3. Determinism spot check: one config per seed re-runs bit-identically.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/service.h"
#include "core/sharded_service.h"
#include "dataflow/workload.h"

namespace dfim {
namespace {

struct FaultProfile {
  std::string name;
  FaultOptions faults;
};

struct ControlProfile {
  std::string name;
  AdmissionOptions admission;
  BrownoutOptions brownout;
  BreakerOptions breaker;
};

struct ArrivalProfile {
  std::string name;
  ArrivalOptions arrivals;
};

struct SpecProfile {
  std::string name;
  SpeculationOptions spec;
};

std::vector<FaultProfile> FaultProfiles() {
  std::vector<FaultProfile> out;
  out.push_back({"clean", FaultOptions{}});
  FaultOptions mild;
  mild.crash_rate = 0.02;
  mild.storage_fault_rate = 0.05;
  mild.seed = 31;
  out.push_back({"mild", mild});
  FaultOptions harsh;
  harsh.crash_rate = 0.1;
  harsh.straggler_rate = 0.3;
  harsh.storage_fault_rate = 0.2;
  harsh.seed = 77;
  out.push_back({"harsh", harsh});
  return out;
}

std::vector<ControlProfile> ControlProfiles() {
  std::vector<ControlProfile> out;
  ControlProfile open;
  open.name = "uncontrolled";
  open.admission.open_loop = true;
  out.push_back(open);

  ControlProfile tail;
  tail.name = "tail-drop+slo+budget";
  tail.admission.open_loop = true;
  tail.admission.max_queue = 8;
  tail.admission.shed = ShedPolicy::kRejectNewest;
  tail.admission.slo_factor = 3.0;
  tail.admission.retry_budget = 4;
  out.push_back(tail);

  ControlProfile small;
  small.name = "short-queue+brownout+breaker";
  small.admission.open_loop = true;
  small.admission.max_queue = 4;
  small.admission.shed = ShedPolicy::kRejectNewest;
  small.brownout.pressure_lo_quanta = 0.5;
  small.brownout.pressure_hi_quanta = 3.0;
  small.breaker.open_after = 3;
  small.breaker.open_duration = 240.0;
  out.push_back(small);

  ControlProfile full;
  full.name = "deadline-drop+everything";
  full.admission.open_loop = true;
  full.admission.max_queue = 6;
  full.admission.shed = ShedPolicy::kDeadlineInfeasible;
  full.admission.slo_factor = 2.0;
  full.admission.retry_budget = 2;
  full.brownout.pressure_lo_quanta = 1.0;
  full.brownout.pressure_hi_quanta = 4.0;
  full.breaker.open_after = 4;
  out.push_back(full);
  return out;
}

std::vector<ArrivalProfile> ArrivalProfiles() {
  std::vector<ArrivalProfile> out;
  ArrivalProfile poisson;
  poisson.name = "poisson-30s";
  poisson.arrivals.mean_interarrival = 30.0;
  out.push_back(poisson);
  ArrivalProfile bursty;
  bursty.name = "mmpp-60s/6s";
  bursty.arrivals.mean_interarrival = 60.0;
  bursty.arrivals.burst_mean_interarrival = 6.0;
  bursty.arrivals.mean_baseline_duration = 600.0;
  bursty.arrivals.mean_burst_duration = 180.0;
  out.push_back(bursty);
  return out;
}

std::vector<SpecProfile> SpecProfiles() {
  std::vector<SpecProfile> out;
  out.push_back({"spec-off", SpeculationOptions{}});
  SpeculationOptions on;
  on.speculate = true;
  on.spec_slowdown_threshold = 1.5;
  on.hedge_reads = true;
  on.hedge_after = 10.0;
  out.push_back({"spec+hedge", on});
  return out;
}

struct IntegrityProfile {
  std::string name;
  /// Corruption sources (folded into the fault profile's FaultOptions).
  double torn_write_rate = 0;
  double bitrot_rate = 0;
  IntegrityOptions integrity;
};

std::vector<IntegrityProfile> IntegrityProfiles() {
  std::vector<IntegrityProfile> out;
  out.push_back({"integrity-off", 0, 0, IntegrityOptions{}});
  IntegrityProfile on;
  on.name = "corrupt+verify+scrub+repair";
  on.torn_write_rate = 0.2;
  on.bitrot_rate = 0.002;
  on.integrity.verify_reads = true;
  on.integrity.verify_latency = 1.0;
  on.integrity.scrub_objects_per_quantum = 2.0;
  on.integrity.repair = true;
  out.push_back(on);
  return out;
}

struct FleetProfile {
  std::string name;
  AutoscalerOptions autoscaler;
  /// Provider control-plane fault knobs (folded into FaultOptions).
  double acquire_fail_rate = 0;
  Seconds boot_delay_max = 0;
  double preempt_rate = 0;
  Seconds preempt_notice = 0;
};

std::vector<FleetProfile> FleetProfiles() {
  std::vector<FleetProfile> out;
  out.push_back({"fleet-fixed", AutoscalerOptions{}, 0, 0, 0, 0});
  FleetProfile elastic;
  elastic.name = "elastic+provider";
  elastic.autoscaler.enabled = true;
  elastic.autoscaler.min_containers = 1;
  elastic.autoscaler.max_containers = 8;
  elastic.autoscaler.initial_containers = 4;
  elastic.acquire_fail_rate = 0.2;
  elastic.boot_delay_max = 20.0;
  elastic.preempt_rate = 0.05;
  elastic.preempt_notice = 20.0;
  out.push_back(elastic);
  return out;
}

struct RecoveryProfile {
  std::string name;
  JournalOptions journal;
  /// Control-plane crash hazard per stage boundary (folded into faults).
  double ctl_crash_rate = 0;
};

std::vector<RecoveryProfile> RecoveryProfiles() {
  std::vector<RecoveryProfile> out;
  out.push_back({"journal-off", JournalOptions{}, 0});
  RecoveryProfile on;
  on.name = "journal+ctl-crashes";
  on.journal.enabled = true;
  // High enough that most configs of the recovery sweep crash: crash draws
  // are keyed by (fault seed, boundary index) only, so configs sharing a
  // fault profile share one crash sequence and a low rate crashes only the
  // longest runs.
  on.ctl_crash_rate = 0.1;
  out.push_back(on);
  return out;
}

struct ChaosRun {
  ServiceMetrics metrics;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<FileDatabase> db;
  std::unique_ptr<QaasService> service;
};

ChaosRun RunConfig(uint64_t seed, const FaultProfile& fp,
                   const ControlProfile& cp, const ArrivalProfile& ap,
                   const SpecProfile& sp = SpecProfile{},
                   const IntegrityProfile& ip = IntegrityProfile{},
                   const FleetProfile& ep = FleetProfile{},
                   const RecoveryProfile& rp = RecoveryProfile{}) {
  ChaosRun run;
  run.catalog = std::make_unique<Catalog>();
  FileDatabaseOptions fdo;
  fdo.montage_files = 4;
  fdo.ligo_files = 4;
  fdo.cybershake_files = 4;
  run.db = std::make_unique<FileDatabase>(run.catalog.get(), fdo);
  EXPECT_TRUE(run.db->Populate().ok());
  DataflowGenerator gen(run.db.get(), seed);

  ServiceOptions so;
  // Alternate the index policy too, for wider path coverage.
  so.policy = seed % 2 == 0 ? IndexPolicy::kGain : IndexPolicy::kGainNoDelete;
  so.total_time = 25.0 * 60.0;
  so.tuner.sched.max_containers = 12;
  so.tuner.sched.skyline_cap = 3;
  so.sim.time_error = 0.1;
  so.sim.data_error = 0.1;
  so.faults = fp.faults;
  so.faults.torn_write_rate = ip.torn_write_rate;
  so.faults.bitrot_rate = ip.bitrot_rate;
  so.admission = cp.admission;
  so.brownout = cp.brownout;
  so.breaker = cp.breaker;
  so.speculation = sp.spec;
  so.integrity = ip.integrity;
  so.autoscaler = ep.autoscaler;
  so.faults.acquire_fail_rate = ep.acquire_fail_rate;
  so.faults.boot_delay_max = ep.boot_delay_max;
  so.faults.preempt_rate = ep.preempt_rate;
  so.faults.preempt_notice = ep.preempt_notice;
  so.journal = rp.journal;
  so.faults.ctl_crash_rate = rp.ctl_crash_rate;
  so.seed = seed;
  run.service = std::make_unique<QaasService>(run.catalog.get(), so);

  OpenLoopWorkloadClient client(&gen, ap.arrivals, {}, seed * 7 + 1);
  auto m = run.service->Run(&client);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  if (m.ok()) run.metrics = *m;
  return run;
}

void CheckInvariants(const ChaosRun& run, const std::string& label,
                     const ControlProfile& cp,
                     const IntegrityProfile& ip = IntegrityProfile{}) {
  const ServiceMetrics& m = run.metrics;
  // (2) Counter sanity.
  EXPECT_GE(m.dataflows_shed, m.shed_queue_full + m.shed_infeasible) << label;
  EXPECT_GE(m.queue_delay_quanta, 0) << label;
  EXPECT_GE(m.builds_shed, 0) << label;
  EXPECT_GE(m.breaker_opens, 0) << label;
  EXPECT_GE(m.retries_denied, 0) << label;
  EXPECT_EQ(m.storage_clock_clamps, 0)
      << label << ": the service must settle storage in order";
  if (cp.admission.max_queue > 0) {
    EXPECT_LE(m.peak_queue_len, cp.admission.max_queue) << label;
  }
  // (2b) Tail-tolerance counters: hedge wins are a subset of hedges.
  EXPECT_LE(m.hedge_wins, m.hedged_reads) << label;
  EXPECT_GE(m.spec_cancelled_quanta, 0.0) << label;
  EXPECT_LE(m.storage_faults, m.storage_reads + m.storage_retries) << label;
  // (2c) Fleet: drains are a subset of idle releases, and no container
  // exits the fleet more than once.
  EXPECT_LE(m.containers_drained, m.containers_reaped) << label;
  EXPECT_LE(m.containers_reaped + m.containers_preempted, m.fleet_granted)
      << label;
  // (2d) Integrity: with the corruption knobs at zero the whole layer is
  // unobservable.
  if (ip.torn_write_rate == 0 && ip.bitrot_rate == 0 &&
      !ip.integrity.verify_reads &&
      ip.integrity.scrub_objects_per_quantum == 0) {
    EXPECT_EQ(m.corruptions_injected, 0) << label;
    EXPECT_EQ(m.partitions_quarantined, 0) << label;
    EXPECT_EQ(m.verified_reads, 0) << label;
    EXPECT_EQ(m.degraded_reads, 0) << label;
    EXPECT_EQ(m.scrub_reads, 0) << label;
    EXPECT_EQ(m.stale_reads, 0) << label;
  }
}

TEST(ChaosTest, InvariantsHoldAcrossTheConfigLattice) {
  const std::vector<uint64_t> seeds{1, 2, 3, 4, 5};
  const auto faults = FaultProfiles();
  const auto controls = ControlProfiles();
  const auto arrivals = ArrivalProfiles();
  const auto specs = SpecProfiles();
  const auto integs = IntegrityProfiles();
  int configs = 0;
  for (uint64_t seed : seeds) {
    for (const auto& fp : faults) {
      for (const auto& cp : controls) {
        for (const auto& ap : arrivals) {
          for (const auto& sp : specs) {
            for (const auto& ip : integs) {
              std::string label = "seed=" + std::to_string(seed) + " " +
                                  fp.name + " " + cp.name + " " + ap.name +
                                  " " + sp.name + " " + ip.name;
              ChaosRun run = RunConfig(seed, fp, cp, ap, sp, ip);
              CheckInvariants(run, label, cp, ip);
              ++configs;
            }
          }
        }
      }
    }
  }
  // The sweep is the point: 5 seeds x 3 fault x 4 control x 2 arrival x
  // 2 speculation x 2 integrity.
  EXPECT_GE(configs, 400);
}

TEST(ChaosTest, ElasticFleetInvariantsHoldAcrossSweep) {
  // The elastic + provider-fault axis, crossed with every fault and control
  // profile under bursty arrivals: autoscaling, quota throttles, cold
  // starts, and spot reclaims must not break any structural invariant.
  const auto faults = FaultProfiles();
  const auto controls = ControlProfiles();
  const auto ap = ArrivalProfiles()[1];  // bursty
  const auto ep = FleetProfiles()[1];    // elastic + provider faults
  int configs = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const auto& fp : faults) {
      for (const auto& cp : controls) {
        std::string label = "seed=" + std::to_string(seed) + " " + fp.name +
                            " " + cp.name + " " + ap.name + " " + ep.name;
        ChaosRun run = RunConfig(seed, fp, cp, ap, SpecProfile{},
                                 IntegrityProfile{}, ep);
        CheckInvariants(run, label, cp);
        ++configs;
      }
    }
  }
  EXPECT_EQ(configs, 60);
}

TEST(ChaosTest, ZeroRateFleetArmIsBitIdentical) {
  // A FleetProfile whose knobs are all zero must be arithmetically absent:
  // the run is bit-identical to one that never mentioned the fleet axis,
  // even with every other subsystem (faults, control, speculation,
  // integrity) stressed.
  const auto fp = FaultProfiles()[2];      // harsh
  const auto cp = ControlProfiles()[3];    // everything on
  const auto ap = ArrivalProfiles()[1];    // bursty
  const auto sp = SpecProfiles()[1];       // speculation + hedging on
  const auto ip = IntegrityProfiles()[1];  // corruption + verify/scrub/repair
  const auto off = FleetProfiles()[0];     // fleet-fixed, zero rates
  for (uint64_t seed : {21u, 22u}) {
    ChaosRun a = RunConfig(seed, fp, cp, ap, sp, ip);
    ChaosRun b = RunConfig(seed, fp, cp, ap, sp, ip, off);
    EXPECT_EQ(a.metrics.dataflows_arrived, b.metrics.dataflows_arrived);
    EXPECT_EQ(a.metrics.dataflows_finished, b.metrics.dataflows_finished);
    EXPECT_EQ(a.metrics.dataflows_shed, b.metrics.dataflows_shed);
    EXPECT_EQ(a.metrics.total_vm_quanta, b.metrics.total_vm_quanta);
    EXPECT_EQ(a.metrics.total_time_quanta, b.metrics.total_time_quanta);
    EXPECT_EQ(a.metrics.storage_cost, b.metrics.storage_cost);
    EXPECT_EQ(a.metrics.queue_delay_quanta, b.metrics.queue_delay_quanta);
    EXPECT_EQ(a.metrics.ops_speculated, b.metrics.ops_speculated);
    EXPECT_EQ(a.metrics.corruptions_injected, b.metrics.corruptions_injected);
    EXPECT_EQ(a.metrics.fleet_acquire_requests,
              b.metrics.fleet_acquire_requests);
    EXPECT_EQ(a.metrics.fleet_granted, b.metrics.fleet_granted);
    EXPECT_EQ(a.metrics.fleet_quanta_charged, b.metrics.fleet_quanta_charged);
    // The provider never bites when its rates are zero.
    EXPECT_EQ(b.metrics.acquires_denied_quota, 0);
    EXPECT_EQ(b.metrics.containers_preempted, 0);
    EXPECT_EQ(b.metrics.containers_drained, 0);
    EXPECT_EQ(b.metrics.acquire_backoffs, 0);
    EXPECT_DOUBLE_EQ(b.metrics.boot_wait_quanta, 0.0);
  }
}

TEST(ChaosTest, RecoveryAxisInvariantsHoldAcrossSweep) {
  // The control-plane crash axis (DESIGN.md §15): journaled runs that crash
  // and recover mid-iteration must uphold every structural invariant the
  // uncrashed lattice does — the accounting identities are over the final
  // metrics, which replay reconstructs exactly-once — and must equal their
  // journal-off twin on everything but the six recovery counters.
  const auto faults = FaultProfiles();
  const auto controls = ControlProfiles();
  const auto ap = ArrivalProfiles()[0];      // poisson
  const auto ip = IntegrityProfiles()[1];    // corruption + verify/scrub
  const auto rp = RecoveryProfiles()[1];     // journal + ctl crashes
  const auto twin_rp = RecoveryProfiles()[0];  // journal off
  const std::set<std::string> recovery_counters = {
      "ctl_crashes",      "journal_records",  "journal_bytes",
      "replayed_records", "persists_deduped", "recovery_replay_quanta"};
  int configs = 0;
  int crashed_configs = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& fp : faults) {
      for (const auto& cp : controls) {
        std::string label = "seed=" + std::to_string(seed) + " " + fp.name +
                            " " + cp.name + " " + ap.name + " " + rp.name;
        ChaosRun run = RunConfig(seed, fp, cp, ap, SpecProfile{}, ip,
                                 FleetProfile{}, rp);
        CheckInvariants(run, label, cp, ip);
        // `Run` checked the journal's record and generation ledgers; the
        // recovery counters must also agree with each other.
        EXPECT_EQ(run.metrics.ctl_crashes, run.metrics.replayed_records)
            << label << ": every crash consumes exactly one snapshot";
        const ChaosRun twin = RunConfig(seed, fp, cp, ap, SpecProfile{}, ip,
                                        FleetProfile{}, twin_rp);
        const ServiceMetrics& a = twin.metrics;
        const ServiceMetrics& b = run.metrics;
#define DFIM_CHAOS_TWIN(type, name)                       \
  if (recovery_counters.count(#name) == 0) {              \
    EXPECT_EQ(a.name, b.name) << label << " " << #name;   \
  }
        DFIM_MIRRORED_COUNTERS(DFIM_CHAOS_TWIN)
#undef DFIM_CHAOS_TWIN
        EXPECT_EQ(a.storage_cost, b.storage_cost) << label;
        EXPECT_EQ(a.queue_delay_quanta, b.queue_delay_quanta) << label;
        EXPECT_EQ(a.corruptions_injected, b.corruptions_injected) << label;
        EXPECT_EQ(a.corruptions_dead, b.corruptions_dead) << label;
        EXPECT_EQ(a.corruptions_latent, b.corruptions_latent) << label;
        if (run.metrics.ctl_crashes > 0) ++crashed_configs;
        ++configs;
      }
    }
  }
  EXPECT_EQ(configs, 36);
  // The axis is live: the hazard crashed most of the control planes.
  EXPECT_GE(crashed_configs, configs / 2);
}

TEST(ChaosTest, EachSeedReproducesBitIdentically) {
  const auto fp = FaultProfiles()[2];     // harsh
  const auto cp = ControlProfiles()[3];   // everything on
  const auto ap = ArrivalProfiles()[1];   // bursty
  const auto sp = SpecProfiles()[1];      // speculation + hedging on
  const auto ip = IntegrityProfiles()[1];  // corruption + verify/scrub/repair
  for (uint64_t seed : {11u, 12u, 13u}) {
    ChaosRun a = RunConfig(seed, fp, cp, ap, sp, ip);
    ChaosRun b = RunConfig(seed, fp, cp, ap, sp, ip);
    EXPECT_EQ(a.metrics.dataflows_arrived, b.metrics.dataflows_arrived);
    EXPECT_EQ(a.metrics.dataflows_finished, b.metrics.dataflows_finished);
    EXPECT_EQ(a.metrics.dataflows_shed, b.metrics.dataflows_shed);
    EXPECT_EQ(a.metrics.builds_shed, b.metrics.builds_shed);
    EXPECT_EQ(a.metrics.breaker_opens, b.metrics.breaker_opens);
    EXPECT_EQ(a.metrics.total_vm_quanta, b.metrics.total_vm_quanta);
    EXPECT_EQ(a.metrics.total_time_quanta, b.metrics.total_time_quanta);
    EXPECT_EQ(a.metrics.storage_cost, b.metrics.storage_cost);
    EXPECT_EQ(a.metrics.queue_delay_quanta, b.metrics.queue_delay_quanta);
    EXPECT_EQ(a.metrics.ops_speculated, b.metrics.ops_speculated);
    EXPECT_EQ(a.metrics.spec_wins, b.metrics.spec_wins);
    EXPECT_EQ(a.metrics.hedged_reads, b.metrics.hedged_reads);
    EXPECT_EQ(a.metrics.hedge_wins, b.metrics.hedge_wins);
    EXPECT_EQ(a.metrics.corruptions_injected, b.metrics.corruptions_injected);
    EXPECT_EQ(a.metrics.corruptions_detected_on_read,
              b.metrics.corruptions_detected_on_read);
    EXPECT_EQ(a.metrics.corruptions_detected_by_scrub,
              b.metrics.corruptions_detected_by_scrub);
    EXPECT_EQ(a.metrics.partitions_quarantined,
              b.metrics.partitions_quarantined);
    EXPECT_EQ(a.metrics.repairs_completed, b.metrics.repairs_completed);
    EXPECT_EQ(a.metrics.scrub_reads, b.metrics.scrub_reads);
  }
}


// ---------------------------------------------------------------------------
// Shard axis (DESIGN.md §14): multi-tenant sharded runs crossed with the
// fault and control lattices. Per-tenant invariants must hold tenant by
// tenant, and the aggregate must equal the per-tenant sum with zero slack.

struct ShardProfile {
  std::string name;
  int num_tenants = 1;
  ShardOptions shards;
  BatchOptions batch;
};

std::vector<ShardProfile> ShardProfiles() {
  std::vector<ShardProfile> out;
  ShardProfile flat;
  flat.name = "2-tenants-1-shard";
  flat.num_tenants = 2;
  out.push_back(flat);

  ShardProfile batched;
  batched.name = "4-tenants-2-shards-batched";
  batched.num_tenants = 4;
  batched.shards.num_shards = 2;
  batched.batch.max_batch = 3;
  batched.batch.window_quanta = 5.0;
  out.push_back(batched);

  ShardProfile wide;
  wide.name = "4-tenants-4-shards";
  wide.num_tenants = 4;
  wide.shards.num_shards = 4;
  out.push_back(wide);
  return out;
}

TEST(ChaosTest, ShardedInvariantsHoldAcrossSweep) {
  const auto faults = FaultProfiles();
  const auto controls = ControlProfiles();
  const auto ap = ArrivalProfiles()[0];  // poisson
  const auto sprofiles = ShardProfiles();
  int configs = 0;
  for (uint64_t seed : {1u, 2u}) {
    for (const auto& fp : faults) {
      for (const auto& cp : controls) {
        for (const auto& shp : sprofiles) {
          const std::string label = "seed=" + std::to_string(seed) + " " +
                                    fp.name + " " + cp.name + " " + shp.name;
          // One identically-populated world per tenant.
          std::vector<std::unique_ptr<Catalog>> catalogs;
          std::vector<std::unique_ptr<FileDatabase>> dbs;
          std::vector<Catalog*> cptrs;
          for (int t = 0; t < shp.num_tenants; ++t) {
            catalogs.push_back(std::make_unique<Catalog>());
            FileDatabaseOptions fdo;
            fdo.montage_files = 4;
            fdo.ligo_files = 4;
            fdo.cybershake_files = 4;
            dbs.push_back(std::make_unique<FileDatabase>(catalogs.back().get(),
                                                         fdo));
            ASSERT_TRUE(dbs.back()->Populate().ok()) << label;
            cptrs.push_back(catalogs.back().get());
          }
          DataflowGenerator gen(dbs.front().get(), seed);
          ServiceOptions so;
          so.policy =
              seed % 2 == 0 ? IndexPolicy::kGain : IndexPolicy::kGainNoDelete;
          so.total_time = 25.0 * 60.0;
          so.tuner.sched.max_containers = 12;
          so.tuner.sched.skyline_cap = 3;
          so.sim.time_error = 0.1;
          so.sim.data_error = 0.1;
          so.faults = fp.faults;
          so.admission = cp.admission;
          so.brownout = cp.brownout;
          so.breaker = cp.breaker;
          so.batch = shp.batch;
          so.seed = seed;
          ShardedQaasService svc(cptrs, so, shp.shards);
          OpenLoopWorkloadClient client(&gen, ap.arrivals, {}, seed * 7 + 1);
          client.set_num_tenants(shp.num_tenants);
          auto agg = svc.Run(&client);
          ASSERT_TRUE(agg.ok()) << label << ": " << agg.status().ToString();
          const auto& per = svc.per_tenant();
          ASSERT_EQ(per.size(), static_cast<size_t>(shp.num_tenants)) << label;
          for (const auto& m : per) {
            EXPECT_GE(m.dataflows_shed, m.shed_queue_full + m.shed_infeasible)
                << label;
            EXPECT_EQ(m.storage_clock_clamps, 0) << label;
            if (cp.admission.max_queue > 0) {
              EXPECT_LE(m.peak_queue_len, cp.admission.max_queue) << label;
            }
          }
          // Zero-slack aggregation identity over every mirrored counter.
#define DFIM_CHAOS_SUM(type, name)                      \
  {                                                     \
    type sum = 0;                                       \
    for (const auto& m : per) sum += m.name;            \
    EXPECT_EQ(sum, agg->name) << label << " " << #name; \
  }
          DFIM_MIRRORED_COUNTERS(DFIM_CHAOS_SUM)
#undef DFIM_CHAOS_SUM
          ++configs;
        }
      }
    }
  }
  EXPECT_EQ(configs, 72);
}

}  // namespace
}  // namespace dfim
