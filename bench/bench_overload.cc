// Overload sweep: drives the open-loop QaaS service across rising arrival
// rates (x a fault level), with admission control, deadline SLOs, brownout
// and the storage circuit breaker on, and writes BENCH_overload.json. The
// point is GRACEFUL degradation: as load grows the service sheds optional
// index builds first, then whole dataflows; goodput (finished minus
// deadline misses) never collapses below the no-index baseline; and every
// arrival stays accounted for with zero slack (QaasService::Run returns an
// error on any ledger slack, which exits the bench with status 1).
//
// An elastic-fleet sweep rides along: bursty MMPP arrivals against a
// pinned fleet and a pressure-driven autoscaled fleet through the same
// fleet authority, at equal-or-less dollar spend. Both fleet ledgers must
// balance to zero slack, the elastic arm must win p99 queue delay or
// goodput without outspending the pinned fleet, and a spot-preemption arm
// must degrade gracefully (builds shed before dataflows fail).
//
// Usage: bench_overload [output.json]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/sharded_service.h"

namespace dfim {
namespace {

struct Arm {
  std::string name;
  IndexPolicy policy = IndexPolicy::kGain;
  double mean_interarrival = 60.0;
  FaultOptions faults;
};

struct ArmResult {
  ServiceMetrics m;
  ServiceSlack slack;
  int goodput = 0;
};

ServiceOptions OverloadOptions(IndexPolicy policy, Seconds horizon,
                               uint64_t seed) {
  ServiceOptions so = bench::PaperServiceOptions(policy);
  so.total_time = horizon;
  so.seed = seed;
  so.admission.open_loop = true;
  so.admission.max_queue = 32;
  so.admission.shed = ShedPolicy::kDeadlineInfeasible;
  so.admission.slo_factor = 4.0;
  so.admission.retry_budget = 64;
  so.brownout.pressure_lo_quanta = 1.0;
  so.brownout.pressure_hi_quanta = 8.0;
  so.breaker.open_after = 4;
  so.breaker.open_duration = 300.0;
  return so;
}

ArmResult RunArm(const Arm& arm, Seconds horizon, uint64_t seed) {
  bench::PaperSetup setup(seed);
  ServiceOptions so = OverloadOptions(arm.policy, horizon, seed);
  so.faults = arm.faults;
  QaasService service(&setup.catalog, so);
  ArrivalOptions arrivals;
  arrivals.mean_interarrival = arm.mean_interarrival;
  OpenLoopWorkloadClient client(setup.generator.get(), arrivals,
                                {{AppType::kMontage, 1e9}}, seed);
  auto m = service.Run(&client);
  if (!m.ok()) {
    std::fprintf(stderr, "arm %s failed: %s\n", arm.name.c_str(),
                 m.status().ToString().c_str());
    std::exit(1);
  }
  ArmResult r;
  r.m = *m;
  r.slack = service.CheckInvariants(*m);
  r.goodput = m->dataflows_finished - m->deadlines_missed;
  return r;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double idx = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

struct FleetArm {
  std::string name;
  /// Pinned: min == max == initial (the autoscaler tops the fleet up to a
  /// constant target and never moves it). Elastic: pressure-driven.
  bool elastic = false;
  FaultOptions faults;
};

struct FleetArmResult {
  ServiceMetrics m;
  ServiceSlack slack;
  int goodput = 0;
  double p99_qdelay = 0;
  Dollars vm_cost = 0;
};

FleetArmResult RunFleetArm(const FleetArm& arm, int fleet_n, Seconds horizon,
                           uint64_t seed, const ArrivalOptions& arrivals) {
  bench::PaperSetup setup(seed);
  ServiceOptions so = OverloadOptions(IndexPolicy::kGain, horizon, seed);
  so.faults = arm.faults;
  so.autoscaler.enabled = true;
  if (arm.elastic) {
    so.autoscaler.min_containers = 1;
    so.autoscaler.max_containers = 2 * fleet_n - 1;
    so.autoscaler.initial_containers = fleet_n;
  } else {
    so.autoscaler.min_containers = fleet_n;
    so.autoscaler.max_containers = fleet_n;
    so.autoscaler.initial_containers = fleet_n;
    // The fixed baseline is a statically provisioned always-on fleet: it
    // pays for its idle lulls, which is exactly what elasticity removes.
    so.autoscaler.keep_alive = true;
  }
  QaasService service(&setup.catalog, so);
  OpenLoopWorkloadClient client(setup.generator.get(), arrivals,
                                {{AppType::kMontage, 1e9}}, seed);
  auto m = service.Run(&client);
  if (!m.ok()) {
    std::fprintf(stderr, "fleet arm %s failed: %s\n", arm.name.c_str(),
                 m.status().ToString().c_str());
    std::exit(1);
  }
  FleetArmResult r;
  r.m = *m;
  r.slack = service.CheckInvariants(*m);
  r.goodput = m->dataflows_finished - m->deadlines_missed;
  std::vector<double> qdelays;
  qdelays.reserve(m->timeline.size());
  for (const auto& pt : m->timeline) qdelays.push_back(pt.queue_delay_quanta);
  r.p99_qdelay = Percentile(qdelays, 0.99);
  r.vm_cost = service.fleet().total_vm_cost();
  return r;
}

// ---- Sharded tenant-scaling sweep --------------------------------------

struct ShardArm {
  std::string name;
  int num_shards = 1;
  bool batched = false;
};

struct ShardArmResult {
  ServiceMetrics agg;
  std::vector<ServiceMetrics> per_tenant;
  bool sum_identity = true;  // aggregate == sum of per-tenant, every counter
  int goodput = 0;
};

ShardArmResult RunShardArm(const ShardArm& arm, int num_tenants,
                           Seconds horizon, uint64_t seed) {
  // One full paper world per tenant: tenants are the isolation unit, so
  // each gets its own catalog/database/storage underneath its service.
  std::vector<std::unique_ptr<bench::PaperSetup>> setups;
  std::vector<Catalog*> catalogs;
  for (int t = 0; t < num_tenants; ++t) {
    setups.push_back(std::make_unique<bench::PaperSetup>(seed));
    catalogs.push_back(&setups.back()->catalog);
  }
  ServiceOptions so = OverloadOptions(IndexPolicy::kGain, horizon, seed);
  // Tenants lease from slim per-tenant fleet slices (the global budget is
  // split eight ways), so a single dataflow takes several quanta and
  // co-arrivals genuinely wait together — the regime batching is for.
  so.tuner.sched.max_containers = 12;
  so.tuner.sched.skyline_cap = 3;
  if (arm.batched) {
    so.batch.max_batch = 4;
    so.batch.window_quanta = 10.0;
  }
  ShardOptions sh;
  sh.num_shards = arm.num_shards;
  ShardedQaasService service(catalogs, so, sh);
  ArrivalOptions arrivals;
  // Per-tenant interarrival is num_tenants x this (round-robin stamping),
  // sized so each tenant runs overloaded and queues actually form — batched
  // admission only matters when co-arrived dataflows are waiting together.
  arrivals.mean_interarrival = 10.0;
  OpenLoopWorkloadClient client(setups.front()->generator.get(), arrivals,
                                {{AppType::kMontage, 1e9}}, seed);
  client.set_num_tenants(num_tenants);
  auto m = service.Run(&client);
  if (!m.ok()) {
    std::fprintf(stderr, "sharded arm %s failed: %s\n", arm.name.c_str(),
                 m.status().ToString().c_str());
    std::exit(1);
  }
  ShardArmResult r;
  r.agg = *m;
  r.per_tenant = service.per_tenant();
  // Zero-slack aggregation identity over every mirrored counter (float
  // counters get a last-ULP allowance; sums are associative-only on paper).
#define DFIM_BENCH_SUM(type, name)                                        \
  {                                                                       \
    double sum = 0;                                                       \
    for (const auto& pt : r.per_tenant) sum += static_cast<double>(pt.name); \
    const double agg = static_cast<double>(r.agg.name);                   \
    if (std::abs(sum - agg) > 1e-6 * std::max(1.0, std::abs(agg))) {      \
      r.sum_identity = false;                                             \
    }                                                                     \
  }
  DFIM_MIRRORED_COUNTERS(DFIM_BENCH_SUM)
#undef DFIM_BENCH_SUM
  r.goodput = m->dataflows_finished - m->deadlines_missed;
  return r;
}

/// Every mirrored counter of every tenant must match the shards=1 reference
/// bit for bit: tenants are isolated, so shard grouping is pure threading.
bool TenantsBitIdentical(const ShardArmResult& ref, const ShardArmResult& r) {
  if (ref.per_tenant.size() != r.per_tenant.size()) return false;
  for (size_t t = 0; t < ref.per_tenant.size(); ++t) {
    bool same = true;
#define DFIM_BENCH_CMP(type, name) \
  same = same && ref.per_tenant[t].name == r.per_tenant[t].name;
    DFIM_MIRRORED_COUNTERS(DFIM_BENCH_CMP)
#undef DFIM_BENCH_CMP
    if (!same) return false;
  }
  return true;
}

}  // namespace
}  // namespace dfim

int main(int argc, char** argv) {
  using namespace dfim;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_overload.json";
  const bool fast = bench::FastMode();
  const Seconds horizon = (fast ? 60.0 : 720.0) * 60.0;
  const uint64_t seed = 7;

  // Load sweep, light to heavy, at two fault levels; each load level gets a
  // Gain arm (all overload controls on) and a no-index goodput floor.
  std::vector<double> rates = fast
                                  ? std::vector<double>{120.0, 60.0, 20.0}
                                  : std::vector<double>{240.0, 120.0, 60.0,
                                                        30.0, 15.0};
  std::vector<FaultOptions> fault_levels(2);
  fault_levels[1].crash_rate = 0.02;
  fault_levels[1].storage_fault_rate = 0.05;
  fault_levels[1].seed = 17;

  std::vector<Arm> arms;
  for (size_t fl = 0; fl < fault_levels.size(); ++fl) {
    for (double rate : rates) {
      for (IndexPolicy policy : {IndexPolicy::kGain, IndexPolicy::kNoIndex}) {
        Arm a;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s_ia%03d_f%zu",
                      policy == IndexPolicy::kGain ? "gain" : "noindex",
                      static_cast<int>(rate), fl);
        a.name = buf;
        a.policy = policy;
        a.mean_interarrival = rate;
        a.faults = fault_levels[fl];
        arms.push_back(a);
      }
    }
  }

  bench::Header("Overload sweep (open loop, Montage, " +
                std::to_string(static_cast<int>(horizon / 60.0)) + " quanta)");
  std::printf("%-18s %8s %8s %8s %8s %8s %8s %9s %8s %7s\n", "arm", "arrived",
              "finished", "shed", "ddl.miss", "goodput", "b.shed", "qdelay.q",
              "peak.q", "ok?");

  std::string json = "{\n  \"bench\": \"overload\",\n";
  json += "  \"workload\": \"montage\",\n  \"horizon_quanta\": " +
          std::to_string(static_cast<int>(horizon / 60.0)) + ",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n  \"arms\": [\n";

  bool all_ok = true;
  std::vector<ArmResult> results;
  for (size_t i = 0; i < arms.size(); ++i) {
    ArmResult r = RunArm(arms[i], horizon, seed);
    results.push_back(r);
    const ServiceMetrics& m = r.m;
    bool ok = r.slack.ok();
    all_ok = all_ok && ok;
    std::printf("%-18s %8d %8d %8d %8d %8d %8d %9.1f %8d %7s\n",
                arms[i].name.c_str(), m.dataflows_arrived,
                m.dataflows_finished, m.dataflows_shed, m.deadlines_missed,
                r.goodput, m.builds_shed, m.queue_delay_quanta,
                m.peak_queue_len, ok ? "yes" : "NO");

    char buf[800];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"arm\": \"%s\", \"policy\": \"%s\", "
        "\"mean_interarrival\": %.0f, \"crash_rate\": %.4f, "
        "\"storage_fault_rate\": %.4f,\n"
        "     \"dataflows_arrived\": %d, \"dataflows_finished\": %d, "
        "\"dataflows_failed\": %d, \"dataflows_overran\": %d, "
        "\"dataflows_shed\": %d,\n"
        "     \"shed_queue_full\": %d, \"shed_infeasible\": %d, "
        "\"deadlines_missed\": %d, \"goodput\": %d, \"builds_shed\": %d,\n"
        "     \"breaker_opens\": %d, \"retries_denied\": %d, "
        "\"queue_delay_quanta\": %.2f, \"peak_queue_len\": %d,\n"
        "     \"total_vm_quanta\": %lld, \"index_partitions_built\": %d, "
        "\"storage_clock_clamps\": %lld,\n"
        "     \"accounting_slack\": %d, \"catalog_storage_consistent\": %s}",
        arms[i].name.c_str(),
        arms[i].policy == IndexPolicy::kGain ? "gain" : "noindex",
        arms[i].mean_interarrival, arms[i].faults.crash_rate,
        arms[i].faults.storage_fault_rate, m.dataflows_arrived,
        m.dataflows_finished, m.dataflows_failed, m.dataflows_overran,
        m.dataflows_shed, m.shed_queue_full, m.shed_infeasible,
        m.deadlines_missed, r.goodput, m.builds_shed, m.breaker_opens,
        m.retries_denied, m.queue_delay_quanta, m.peak_queue_len,
        static_cast<long long>(m.total_vm_quanta), m.index_partitions_built,
        static_cast<long long>(m.storage_clock_clamps),
        static_cast<int>(r.slack.accounting),
        r.slack.unstored_partitions == 0 ? "true" : "false");
    json += buf;
    json += (i + 1 < arms.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";

  // Graceful-degradation checks over the per-fault-level Gain sweeps
  // (arms alternate gain/noindex per rate, rates light to heavy).
  const size_t per_level = rates.size() * 2;
  for (size_t fl = 0; fl < fault_levels.size(); ++fl) {
    int first_policy_shed = -1;  // load index where admission starts dropping
    int first_build_shed = -1;   // load index where brownout starts
    for (size_t j = 0; j < rates.size(); ++j) {
      const ArmResult& gain = results[fl * per_level + j * 2];
      const ArmResult& noindex = results[fl * per_level + j * 2 + 1];
      if (first_policy_shed < 0 &&
          gain.m.shed_queue_full + gain.m.shed_infeasible > 0) {
        first_policy_shed = static_cast<int>(j);
      }
      if (first_build_shed < 0 && gain.m.builds_shed > 0) {
        first_build_shed = static_cast<int>(j);
      }
      // Goodput floor: indexes + shedding must not do worse than just
      // running everything with no index management at all.
      if (gain.goodput < noindex.goodput) {
        std::printf("DEGRADATION VIOLATION: fault level %zu, interarrival "
                    "%.0f s: gain goodput %d < noindex %d\n",
                    fl, rates[j], gain.goodput, noindex.goodput);
        all_ok = false;
      }
    }
    // Brownout before load shedding: if admission ever dropped dataflows,
    // builds must have been shed at that load level or a lighter one.
    if (first_policy_shed >= 0 &&
        (first_build_shed < 0 || first_build_shed > first_policy_shed)) {
      std::printf("DEGRADATION VIOLATION: fault level %zu: dataflows shed "
                  "(load idx %d) before any builds shed (idx %d)\n",
                  fl, first_policy_shed, first_build_shed);
      all_ok = false;
    }
  }

  // ---- Elastic fleet sweep: pinned vs autoscaled at equal dollar spend,
  // plus a hostile-provider arm (quota throttle + cold starts + spot
  // preemption with a notice window).
  // Lulls matter: the baseline phase must be light enough for the queue to
  // actually drain, or the autoscaler never shrinks and elasticity cannot
  // pay for its bursts. Baseline is underloaded (~0.4 utilization), bursts
  // are transiently ~5x overloaded.
  ArrivalOptions bursty;
  bursty.mean_interarrival = 480.0;
  bursty.burst_mean_interarrival = 45.0;
  bursty.mean_baseline_duration = 900.0;
  bursty.mean_burst_duration = 300.0;
  // Size the pinned fleet off the long-run arrival rate (arrivals per
  // quantum x a nominal Montage service time of ~5 quanta on a small
  // fleet).
  const double quantum = 60.0;
  int fleet_n = static_cast<int>(
      std::ceil(bursty.MeanArrivalRate() * quantum * 5.0));
  fleet_n = std::max(2, std::min(fleet_n, 16));

  FaultOptions hostile;
  hostile.acquire_fail_rate = 0.2;
  hostile.boot_delay_max = 20.0;
  hostile.preempt_rate = 0.1;
  hostile.preempt_notice = 20.0;
  hostile.seed = 23;

  std::vector<FleetArm> fleet_arms;
  fleet_arms.push_back({"fleet_pinned", false, FaultOptions{}});
  fleet_arms.push_back({"fleet_elastic", true, FaultOptions{}});
  fleet_arms.push_back({"fleet_elastic_preempt", true, hostile});

  bench::Header("Elastic fleet sweep (bursty MMPP, pinned n=" +
                std::to_string(fleet_n) + " vs autoscaled)");
  std::printf("%-22s %8s %8s %8s %8s %9s %9s %8s %7s\n", "arm", "arrived",
              "finished", "goodput", "b.shed", "p99.qd.q", "vm.cost",
              "preempt", "ok?");

  json += "  \"elastic\": [\n";
  std::vector<FleetArmResult> fleet_results;
  for (size_t i = 0; i < fleet_arms.size(); ++i) {
    FleetArmResult r =
        RunFleetArm(fleet_arms[i], fleet_n, horizon, seed, bursty);
    fleet_results.push_back(r);
    const ServiceMetrics& m = r.m;
    // Self-check: both fleet ledger identities balance to zero slack, and
    // the open-loop accounting identity is exact.
    bool ok = r.slack.ok();
    all_ok = all_ok && ok;
    std::printf("%-22s %8d %8d %8d %8d %9.2f %9.2f %8d %7s\n",
                fleet_arms[i].name.c_str(), m.dataflows_arrived,
                m.dataflows_finished, r.goodput, m.builds_shed, r.p99_qdelay,
                r.vm_cost, m.containers_preempted, ok ? "yes" : "NO");

    char buf[900];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"arm\": \"%s\", \"fleet_n\": %d, \"elastic\": %s, "
        "\"preempt_rate\": %.4f, \"acquire_fail_rate\": %.4f,\n"
        "     \"dataflows_arrived\": %d, \"dataflows_finished\": %d, "
        "\"dataflows_failed\": %d, \"dataflows_shed\": %d, \"goodput\": %d, "
        "\"builds_shed\": %d,\n"
        "     \"p99_queue_delay_quanta\": %.4f, \"total_vm_cost\": %.4f, "
        "\"fleet_quanta_charged\": %lld,\n"
        "     \"fleet_acquire_requests\": %lld, \"fleet_granted\": %lld, "
        "\"acquires_denied_quota\": %lld, \"acquires_denied_capacity\": "
        "%lld,\n"
        "     \"containers_reaped\": %d, \"containers_drained\": %d, "
        "\"containers_preempted\": %d, \"acquire_backoffs\": %d, "
        "\"boot_wait_quanta\": %.4f,\n"
        "     \"request_slack\": %lld, \"grant_slack\": %lld, "
        "\"accounting_slack\": %d}",
        fleet_arms[i].name.c_str(), fleet_n,
        fleet_arms[i].elastic ? "true" : "false",
        fleet_arms[i].faults.preempt_rate,
        fleet_arms[i].faults.acquire_fail_rate, m.dataflows_arrived,
        m.dataflows_finished, m.dataflows_failed, m.dataflows_shed, r.goodput,
        m.builds_shed, r.p99_qdelay, r.vm_cost,
        static_cast<long long>(m.fleet_quanta_charged),
        static_cast<long long>(m.fleet_acquire_requests),
        static_cast<long long>(m.fleet_granted),
        static_cast<long long>(m.acquires_denied_quota),
        static_cast<long long>(m.acquires_denied_capacity),
        m.containers_reaped, m.containers_drained, m.containers_preempted,
        m.acquire_backoffs, m.boot_wait_quanta,
        static_cast<long long>(r.slack.fleet_requests),
        static_cast<long long>(r.slack.fleet_grants),
        static_cast<int>(r.slack.accounting));
    json += buf;
    json += (i + 1 < fleet_arms.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";

  // Equal-dollar win: the autoscaled fleet must beat the pinned fleet on
  // p99 queue delay or goodput without outspending it.
  {
    const FleetArmResult& pinned = fleet_results[0];
    const FleetArmResult& elastic = fleet_results[1];
    if (elastic.vm_cost > pinned.vm_cost + 1e-9) {
      std::printf("ELASTIC VIOLATION: autoscaled fleet spent $%.2f > pinned "
                  "$%.2f\n",
                  elastic.vm_cost, pinned.vm_cost);
      all_ok = false;
    }
    if (!(elastic.p99_qdelay < pinned.p99_qdelay ||
          elastic.goodput > pinned.goodput)) {
      std::printf("ELASTIC VIOLATION: no strict win (p99 qdelay %.2f vs "
                  "%.2f, goodput %d vs %d)\n",
                  elastic.p99_qdelay, pinned.p99_qdelay, elastic.goodput,
                  pinned.goodput);
      all_ok = false;
    }
    // Hostile provider: the service keeps serving through throttles and
    // reclaims, and sheds optional builds before whole dataflows fail.
    const FleetArmResult& preempt = fleet_results[2];
    if (preempt.m.dataflows_finished == 0) {
      std::printf("ELASTIC VIOLATION: preemption arm finished nothing\n");
      all_ok = false;
    }
    if (preempt.m.dataflows_failed > 0 && preempt.m.builds_shed == 0) {
      std::printf("ELASTIC VIOLATION: dataflows failed (%d) with no builds "
                  "shed first\n",
                  preempt.m.dataflows_failed);
      all_ok = false;
    }
  }

  // ---- Sharded tenant-scaling sweep: 8 tenants across 1/2/4/8 shards,
  // batched admission off and on, every arm at the same per-tenant fleet
  // budget (identical service options modulo the batch knobs). Self-checks:
  // the open-loop accounting identity is exact per tenant AND in aggregate,
  // the aggregate equals the per-tenant sum on every mirrored counter, the
  // per-tenant metrics are bit-identical across shard counts (shards are
  // pure threading), and batched goodput keeps up with one-at-a-time.
  const int num_tenants = 8;
  const Seconds shard_horizon = (fast ? 60.0 : 240.0) * 60.0;
  std::vector<ShardArm> shard_arms;
  for (bool batched : {false, true}) {
    for (int s : {1, 2, 4, 8}) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "sharded_s%d_%s", s,
                    batched ? "batched" : "plain");
      shard_arms.push_back({buf, s, batched});
    }
  }

  bench::Header("Sharded tenant scaling (8 tenants, " +
                std::to_string(static_cast<int>(shard_horizon / 60.0)) +
                " quanta)");
  std::printf("%-18s %8s %8s %8s %8s %8s %8s %9s %7s\n", "arm", "arrived",
              "finished", "shed", "goodput", "batches", "b.flows", "vm.q",
              "ok?");

  json += "  \"sharded\": [\n";
  std::vector<ShardArmResult> shard_results;
  for (size_t i = 0; i < shard_arms.size(); ++i) {
    ShardArmResult r =
        RunShardArm(shard_arms[i], num_tenants, shard_horizon, seed);
    shard_results.push_back(r);
    const ShardArmResult& cur = shard_results.back();
    const ServiceMetrics& m = cur.agg;
    // Reference for bit-identity: the shards=1 arm of the same batch mode.
    const ShardArmResult& ref = shard_results[(i / 4) * 4];
    const bool invariant = TenantsBitIdentical(ref, cur);
    bool ok = cur.sum_identity && invariant;
    if (!invariant) {
      std::printf("SHARDING VIOLATION: %s per-tenant metrics differ from "
                  "%s\n",
                  shard_arms[i].name.c_str(),
                  shard_arms[(i / 4) * 4].name.c_str());
    }
    all_ok = all_ok && ok;
    std::printf("%-18s %8d %8d %8d %8d %8lld %8lld %9lld %7s\n",
                shard_arms[i].name.c_str(), m.dataflows_arrived,
                m.dataflows_finished, m.dataflows_shed, cur.goodput,
                static_cast<long long>(m.dataflow_batches),
                static_cast<long long>(m.batched_dataflows),
                static_cast<long long>(m.total_vm_quanta), ok ? "yes" : "NO");

    char buf[800];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"arm\": \"%s\", \"num_shards\": %d, \"batched\": %s, "
        "\"num_tenants\": %d, \"horizon_quanta\": %d,\n"
        "     \"dataflows_arrived\": %d, \"dataflows_finished\": %d, "
        "\"dataflows_failed\": %d, \"dataflows_overran\": %d, "
        "\"dataflows_shed\": %d,\n"
        "     \"goodput\": %d, \"builds_shed\": %d, "
        "\"dataflow_batches\": %lld, \"batched_dataflows\": %lld,\n"
        // Run fails on any tenant's ledger slack, so both slacks are zero.
        "     \"total_vm_quanta\": %lld, \"queue_delay_quanta\": %.2f, "
        "\"accounting_slack\": 0, \"tenant_slack\": 0,\n"
        "     \"sum_identity\": %s, \"tenants_bit_identical\": %s}",
        shard_arms[i].name.c_str(), shard_arms[i].num_shards,
        shard_arms[i].batched ? "true" : "false", num_tenants,
        static_cast<int>(shard_horizon / 60.0), m.dataflows_arrived,
        m.dataflows_finished, m.dataflows_failed, m.dataflows_overran,
        m.dataflows_shed, cur.goodput, m.builds_shed,
        static_cast<long long>(m.dataflow_batches),
        static_cast<long long>(m.batched_dataflows),
        static_cast<long long>(m.total_vm_quanta), m.queue_delay_quanta,
        cur.sum_identity ? "true" : "false", invariant ? "true" : "false");
    json += buf;
    json += (i + 1 < shard_arms.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  // Batched admission must keep up: merging co-arrived dataflows through a
  // single skyline pass may not cost aggregate goodput at shards=1.
  {
    const ShardArmResult& plain = shard_results[0];
    const ShardArmResult& batched = shard_results[4];
    if (batched.goodput < plain.goodput) {
      std::printf("SHARDING VIOLATION: batched goodput %d < one-at-a-time "
                  "%d at shards=1\n",
                  batched.goodput, plain.goodput);
      all_ok = false;
    }
  }

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s (all checks %s)\n", out_path,
              all_ok ? "passed" : "FAILED");
  return all_ok ? 0 : 1;
}
