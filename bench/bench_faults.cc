// Fault-injection sweep: runs the Gain policy on the paper's Montage
// workload under increasing container crash rates (plus a straggler-heavy
// and a storage-fault-heavy arm), and writes BENCH_faults.json recording
// throughput, failure counters, and recovery cost per arm. The point is
// graceful degradation: rising fault rates may slow the service and fail
// some dataflows, but every dataflow stays accounted for and the catalog
// never references an unpersisted partition (QaasService::Run returns an
// error on any ledger slack, which exits the bench with status 1).
//
// A second sweep measures tail tolerance (DESIGN.md §9): speculation
// on/off across straggler rates, plus a hedged-reads pair, on a
// fixed-count workload so both arms of each pair run the exact same
// dataflow sequence. Self-checked: speculation/hedging must cut the p50
// and p99 makespan at non-trivial fault rates while `total_vm_quanta`
// stays identical — tail latency bought with quanta already paid for.
//
// Usage: bench_faults [output.json]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"

namespace dfim {
namespace {

struct Arm {
  std::string name;
  FaultOptions faults;
};

struct ArmResult {
  ServiceMetrics m;
  ServiceSlack slack;
};

ArmResult RunArm(const Arm& arm, Seconds horizon, uint64_t seed) {
  bench::PaperSetup setup(seed);
  ServiceOptions so = bench::PaperServiceOptions(IndexPolicy::kGain);
  so.total_time = horizon;
  so.faults = arm.faults;
  so.seed = seed;
  QaasService service(&setup.catalog, so);
  PhaseWorkloadClient client(setup.generator.get(), 60.0,
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
  return r;
}

// ---- Corruption / integrity sweep -------------------------------------------

struct IntegrityArm {
  std::string name;
  double torn = 0;
  double bitrot = 0;
  bool repair = false;
};

struct IntegrityResult {
  ServiceMetrics m;
  ServiceSlack slack;
  int still_quarantined = 0;
};

IntegrityResult RunIntegrityArm(const IntegrityArm& arm, Seconds horizon,
                                uint64_t seed) {
  bench::PaperSetup setup(seed);
  ServiceOptions so = bench::PaperServiceOptions(IndexPolicy::kGain);
  so.total_time = horizon;
  so.faults.torn_write_rate = arm.torn;
  so.faults.bitrot_rate = arm.bitrot;
  so.faults.seed = 17;
  so.integrity.verify_reads = true;
  so.integrity.verify_latency = 1.0;
  so.integrity.scrub_objects_per_quantum = 2.0;
  so.integrity.repair = arm.repair;
  so.seed = seed;
  QaasService service(&setup.catalog, so);
  PhaseWorkloadClient client(setup.generator.get(), 60.0,
                             {{AppType::kMontage, 1e9}}, seed);
  auto m = service.Run(&client);
  if (!m.ok()) {
    std::fprintf(stderr, "integrity arm %s failed: %s\n", arm.name.c_str(),
                 m.status().ToString().c_str());
    std::exit(1);
  }
  IntegrityResult r;
  r.m = *m;
  r.still_quarantined = static_cast<int>(setup.catalog.quarantined().size());
  r.slack = service.CheckInvariants(*m);
  return r;
}

// ---- Control-plane recovery sweep (DESIGN.md §15) ---------------------------

struct RecoveryArmResult {
  ServiceMetrics m;
  ServiceSlack slack;
};

RecoveryArmResult RunRecoveryArm(bool journal, double ctl_rate,
                                 Seconds horizon, uint64_t seed) {
  bench::PaperSetup setup(seed);
  ServiceOptions so = bench::PaperServiceOptions(IndexPolicy::kGain);
  so.total_time = horizon;
  so.faults.seed = 17;
  so.journal.enabled = journal;
  so.faults.ctl_crash_rate = ctl_rate;
  so.seed = seed;
  QaasService service(&setup.catalog, so);
  PhaseWorkloadClient client(setup.generator.get(), 60.0,
                             {{AppType::kMontage, 1e9}}, seed);
  auto m = service.Run(&client);
  if (!m.ok()) {
    std::fprintf(stderr, "recovery arm (journal=%d rate=%.3f) failed: %s\n",
                 journal ? 1 : 0, ctl_rate, m.status().ToString().c_str());
    std::exit(1);
  }
  RecoveryArmResult r;
  r.m = *m;
  r.slack = service.CheckInvariants(*m);
  return r;
}

// ---- Tail-tolerance sweep ---------------------------------------------------

/// Issues exactly `count` dataflows, ignoring the service horizon: both arms
/// of a speculation on/off pair then execute the identical dataflow
/// sequence, which is what makes the vm-quanta equality check exact.
class FixedCountClient : public WorkloadClient {
 public:
  FixedCountClient(DataflowGenerator* gen, int count, uint64_t seed)
      : inner_(gen, 60.0, {{AppType::kMontage, 1e9}}, seed), left_(count) {}

  std::optional<Dataflow> Next(Seconds not_before, Seconds) override {
    if (left_ <= 0) return std::nullopt;
    --left_;
    return inner_.Next(not_before, std::numeric_limits<double>::max());
  }

 private:
  PhaseWorkloadClient inner_;
  int left_;
};

struct TailArm {
  std::string name;
  FaultOptions faults;
  SpeculationOptions spec;
};

struct TailResult {
  ServiceMetrics m;
  double p50 = 0;
  double p99 = 0;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

TailResult RunTailArm(const TailArm& arm, int count, uint64_t seed) {
  bench::PaperSetup setup(seed);
  // kNoIndex keeps the planner feedback-free: per-dataflow plans depend
  // only on the dataflow itself, so speculation cannot change what is
  // scheduled — only how fast it finishes.
  ServiceOptions so = bench::PaperServiceOptions(IndexPolicy::kNoIndex);
  so.total_time = 1e12;  // the fixed-count client decides when to stop
  // Cache-less containers: cache warmth otherwise couples one dataflow's
  // finish time to the next one's read volume (container reuse is
  // wall-clock based), which would blur the per-pair vm-quanta equality
  // this sweep asserts exactly.
  so.container.disk = 0;
  so.faults = arm.faults;
  so.speculation = arm.spec;
  so.seed = seed;
  QaasService service(&setup.catalog, so);
  FixedCountClient client(setup.generator.get(), count, seed);
  auto m = service.Run(&client);
  if (!m.ok()) {
    std::fprintf(stderr, "tail arm %s failed: %s\n", arm.name.c_str(),
                 m.status().ToString().c_str());
    std::exit(1);
  }
  TailResult r;
  r.m = *m;
  std::vector<double> makespans;
  makespans.reserve(m->timeline.size());
  for (const auto& pt : m->timeline) makespans.push_back(pt.makespan_quanta);
  r.p50 = Percentile(makespans, 0.5);
  r.p99 = Percentile(makespans, 0.99);
  return r;
}

}  // namespace
}  // namespace dfim

int main(int argc, char** argv) {
  using namespace dfim;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_faults.json";
  const bool fast = bench::FastMode();
  // Fast mode shrinks the horizon so the whole sweep runs in seconds.
  const Seconds horizon = (fast ? 120.0 : 720.0) * 60.0;
  const uint64_t seed = 7;

  std::vector<Arm> arms;
  for (double rate : {0.0, 0.005, 0.01, 0.02, 0.05}) {
    Arm a;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "crash_%.3f", rate);
    a.name = buf;
    a.faults.crash_rate = rate;
    a.faults.seed = 17;
    arms.push_back(a);
  }
  {
    Arm a;
    a.name = "stragglers_0.3";
    a.faults.straggler_rate = 0.3;
    a.faults.seed = 17;
    arms.push_back(a);
    Arm b;
    b.name = "storage_0.1";
    b.faults.storage_fault_rate = 0.1;
    b.faults.seed = 17;
    arms.push_back(b);
  }

  bench::Header("Fault-injection sweep (Gain policy, Montage, " +
                std::to_string(static_cast<int>(horizon / 60.0)) + " quanta)");
  std::printf("%-16s %8s %8s %8s %8s %10s %10s %10s %9s %6s\n", "arm",
              "finished", "failed", "crashes", "reexec", "rec.quanta",
              "vm.quanta", "avg.tq/df", "slack", "ok?");

  std::string json = "{\n  \"bench\": \"faults\",\n";
  json += "  \"policy\": \"gain\",\n  \"workload\": \"montage\",\n";
  json += "  \"horizon_quanta\": " +
          std::to_string(static_cast<int>(horizon / 60.0)) + ",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n  \"arms\": [\n";

  bool all_ok = true;
  ServiceMetrics fault_free;  // the crash_0.000 arm, kept as ground truth
  for (size_t i = 0; i < arms.size(); ++i) {
    ArmResult r = RunArm(arms[i], horizon, seed);
    if (i == 0) fault_free = r.m;
    const ServiceMetrics& m = r.m;
    bool ok = r.slack.ok();
    all_ok = all_ok && ok;
    std::printf("%-16s %8d %8d %8d %8d %10lld %10lld %10.2f %9d %6s\n",
                arms[i].name.c_str(), m.dataflows_finished, m.dataflows_failed,
                m.containers_failed, m.ops_reexecuted,
                static_cast<long long>(m.recovery_quanta),
                static_cast<long long>(m.total_vm_quanta),
                m.AvgTimeQuantaPerDataflow(),
                static_cast<int>(r.slack.accounting), ok ? "yes" : "NO");

    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"arm\": \"%s\", \"crash_rate\": %.4f, "
        "\"straggler_rate\": %.4f, \"storage_fault_rate\": %.4f,\n"
        "     \"dataflows_arrived\": %d, \"dataflows_finished\": %d, "
        "\"dataflows_failed\": %d, \"dataflows_overran\": %d,\n"
        "     \"containers_failed\": %d, \"ops_reexecuted\": %d, "
        "\"recovery_quanta\": %lld, \"storage_retries\": %d, "
        "\"storage_faults\": %d, \"builds_discarded\": %d,\n"
        "     \"total_vm_quanta\": %lld, \"avg_time_quanta_per_dataflow\": "
        "%.4f, \"index_partitions_built\": %d,\n"
        "     \"accounting_slack\": %d, \"catalog_storage_consistent\": %s}",
        arms[i].name.c_str(), arms[i].faults.crash_rate,
        arms[i].faults.straggler_rate, arms[i].faults.storage_fault_rate,
        m.dataflows_arrived, m.dataflows_finished, m.dataflows_failed,
        m.dataflows_overran, m.containers_failed, m.ops_reexecuted,
        static_cast<long long>(m.recovery_quanta), m.storage_retries,
        m.storage_faults, m.builds_discarded,
        static_cast<long long>(m.total_vm_quanta),
        m.AvgTimeQuantaPerDataflow(), m.index_partitions_built,
        static_cast<int>(r.slack.accounting),
        r.slack.unstored_partitions == 0 ? "true" : "false");
    json += buf;
    json += (i + 1 < arms.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";

  // ---- Tail-tolerance sweep: speculation/hedging on vs off. ----------------
  const int tail_count = fast ? 30 : 80;
  std::vector<std::pair<TailArm, TailArm>> pairs;
  for (double rate : {0.0, 0.1, 0.2, 0.3}) {
    TailArm off;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "straggler_%.1f", rate);
    off.name = buf;
    off.faults.straggler_rate = rate;
    off.faults.straggler_slowdown_min = 2.0;
    off.faults.straggler_slowdown_max = 3.0;
    off.faults.seed = 17;
    TailArm on = off;
    on.spec.speculate = true;
    on.spec.spec_slowdown_threshold = 1.5;
    pairs.emplace_back(off, on);
  }
  {
    TailArm off;
    off.name = "storage_hedge_0.2";
    off.faults.storage_fault_rate = 0.2;
    off.faults.storage_fault_latency = 30.0;
    off.faults.seed = 17;
    TailArm on = off;
    on.spec.hedge_reads = true;
    on.spec.hedge_after = 5.0;
    pairs.emplace_back(off, on);
  }

  bench::Header("Tail tolerance: speculation/hedging, " +
                std::to_string(tail_count) + " fixed dataflows (kNoIndex)");
  std::printf("%-18s %9s %9s %9s %9s %10s %6s %6s %7s %7s\n", "pair",
              "p50.off", "p50.on", "p99.off", "p99.on", "vm.quanta", "spec",
              "wins", "hedges", "equal?");

  json += "  \"speculation\": [\n";
  for (size_t i = 0; i < pairs.size(); ++i) {
    TailResult off = RunTailArm(pairs[i].first, tail_count, seed);
    TailResult on = RunTailArm(pairs[i].second, tail_count, seed);
    const bool stragglers = pairs[i].second.spec.speculate;
    const double rate = stragglers ? pairs[i].first.faults.straggler_rate
                                   : pairs[i].first.faults.storage_fault_rate;
    // The contract: tail tolerance may never cost a single extra quantum,
    // and must not hurt the tail; at non-trivial fault rates it must help.
    bool ok = on.m.total_vm_quanta == off.m.total_vm_quanta &&
              on.p50 <= off.p50 + 1e-9 && on.p99 <= off.p99 + 1e-9;
    if (rate >= 0.1) {
      ok = ok && on.p99 < off.p99 - 1e-9 &&
           (stragglers ? on.m.spec_wins > 0 : on.m.hedge_wins > 0);
    } else {
      // Nothing to speculate on: bit-identical, with idle counters.
      ok = ok && on.p50 == off.p50 && on.p99 == off.p99 &&
           on.m.ops_speculated == 0 && on.m.hedged_reads == 0;
    }
    all_ok = all_ok && ok;
    std::printf("%-18s %9.2f %9.2f %9.2f %9.2f %10lld %6d %6d %7d %7s\n",
                pairs[i].first.name.c_str(), off.p50, on.p50, off.p99, on.p99,
                static_cast<long long>(on.m.total_vm_quanta),
                on.m.ops_speculated, on.m.spec_wins, on.m.hedged_reads,
                ok ? "yes" : "NO");
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"pair\": \"%s\", \"rate\": %.2f, \"dataflows\": %d,\n"
        "     \"p50_off\": %.4f, \"p50_on\": %.4f, \"p99_off\": %.4f, "
        "\"p99_on\": %.4f,\n"
        "     \"vm_quanta_off\": %lld, \"vm_quanta_on\": %lld, "
        "\"ops_speculated\": %d, \"spec_wins\": %d, \"spec_cancelled\": %d,\n"
        "     \"hedged_reads\": %d, \"hedge_wins\": %d, \"ok\": %s}",
        pairs[i].first.name.c_str(), rate, tail_count, off.p50, on.p50,
        off.p99, on.p99, static_cast<long long>(off.m.total_vm_quanta),
        static_cast<long long>(on.m.total_vm_quanta), on.m.ops_speculated,
        on.m.spec_wins, on.m.spec_cancelled, on.m.hedged_reads,
        on.m.hedge_wins, ok ? "true" : "false");
    json += buf;
    json += (i + 1 < pairs.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";

  // ---- Corruption sweep: repair off vs on at each corruption rate. ---------
  std::vector<std::pair<IntegrityArm, IntegrityArm>> ipairs;
  for (double torn : {0.0, 0.2, 0.4}) {
    IntegrityArm off;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "corrupt_%.1f", torn);
    off.name = buf;
    off.torn = torn;
    off.bitrot = torn > 0 ? 0.002 : 0.0;
    off.repair = false;
    IntegrityArm on = off;
    on.repair = true;
    ipairs.emplace_back(off, on);
  }

  bench::Header("Integrity: corruption sweep, repair off vs on (Gain)");
  std::printf("%-14s %8s %8s %8s %8s %8s %9s %9s %6s\n", "pair", "inject",
              "quarant", "repairs", "fin.off", "fin.on", "vm.off", "vm.on",
              "ok?");

  json += "  \"integrity\": [\n";
  for (size_t i = 0; i < ipairs.size(); ++i) {
    IntegrityResult off = RunIntegrityArm(ipairs[i].first, horizon, seed);
    IntegrityResult on = RunIntegrityArm(ipairs[i].second, horizon, seed);
    // Both arms must balance their ledgers exactly and keep the catalog a
    // subset of storage — corruption degrades, it never lies.
    bool ok = off.slack.ok() && on.slack.ok();
    if (ipairs[i].first.torn > 0) {
      // Corruption actually flows: injections, quarantines, and (repair-on
      // only) completed repair builds.
      ok = ok && off.m.corruptions_injected > 0 &&
           off.m.partitions_quarantined > 0 && on.m.repairs_completed > 0 &&
           off.m.repairs_scheduled == 0;
      // Repair must pay for itself: goodput per vm-quantum with repair on is
      // at least the repair-off rate (repair builds ride already-paid idle
      // slots, and healed partitions serve index reads again). Full horizon
      // only — the 120-quantum fast smoke is too short to amortize a
      // rebuild, exactly like index builds themselves (§5 calibration).
      if (!fast) {
        ok = ok && static_cast<double>(on.m.dataflows_finished) *
                           static_cast<double>(off.m.total_vm_quanta) >=
                       static_cast<double>(off.m.dataflows_finished) *
                           static_cast<double>(on.m.total_vm_quanta);
      }
    } else {
      // Nothing to corrupt: the repair knob must be arithmetically
      // invisible — both arms bit-identical, all corruption counters zero.
      ok = ok && off.m.corruptions_injected == 0 &&
           off.m.partitions_quarantined == 0 &&
           on.m.dataflows_finished == off.m.dataflows_finished &&
           on.m.total_vm_quanta == off.m.total_vm_quanta &&
           on.m.total_time_quanta == off.m.total_time_quanta &&
           on.m.storage_cost == off.m.storage_cost;
    }
    all_ok = all_ok && ok;
    std::printf("%-14s %8lld %8d %8d %8d %8d %9lld %9lld %6s\n",
                ipairs[i].first.name.c_str(),
                static_cast<long long>(on.m.corruptions_injected),
                on.m.partitions_quarantined, on.m.repairs_completed,
                off.m.dataflows_finished, on.m.dataflows_finished,
                static_cast<long long>(off.m.total_vm_quanta),
                static_cast<long long>(on.m.total_vm_quanta),
                ok ? "yes" : "NO");
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"pair\": \"%s\", \"torn_write_rate\": %.2f, "
        "\"bitrot_rate\": %.4f,\n"
        "     \"injected_off\": %lld, \"injected_on\": %lld, "
        "\"detected_on_read_on\": %d, \"detected_by_scrub_on\": %d, "
        "\"dead_on\": %lld, \"latent_on\": %lld,\n"
        "     \"quarantined_off\": %d, \"quarantined_on\": %d, "
        "\"repairs_completed_on\": %d, \"still_quarantined_off\": %d, "
        "\"still_quarantined_on\": %d,\n"
        "     \"finished_off\": %d, \"finished_on\": %d, "
        "\"vm_quanta_off\": %lld, \"vm_quanta_on\": %lld, "
        "\"scrub_reads_on\": %lld,\n"
        "     \"ledger_slack\": %lld, \"quarantine_slack\": %lld, "
        "\"catalog_storage_consistent\": %s, \"ok\": %s}",
        ipairs[i].first.name.c_str(), ipairs[i].first.torn,
        ipairs[i].first.bitrot,
        static_cast<long long>(off.m.corruptions_injected),
        static_cast<long long>(on.m.corruptions_injected),
        on.m.corruptions_detected_on_read, on.m.corruptions_detected_by_scrub,
        static_cast<long long>(on.m.corruptions_dead),
        static_cast<long long>(on.m.corruptions_latent),
        off.m.partitions_quarantined, on.m.partitions_quarantined,
        on.m.repairs_completed, off.still_quarantined, on.still_quarantined,
        off.m.dataflows_finished, on.m.dataflows_finished,
        static_cast<long long>(off.m.total_vm_quanta),
        static_cast<long long>(on.m.total_vm_quanta),
        static_cast<long long>(on.m.scrub_reads),
        static_cast<long long>(off.slack.corruption + on.slack.corruption),
        static_cast<long long>(off.slack.quarantine + on.slack.quarantine),
        off.slack.unstored_partitions + on.slack.unstored_partitions == 0
            ? "true"
            : "false",
        ok ? "true" : "false");
    json += buf;
    json += (i + 1 < ipairs.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";

  // ---- Control-plane recovery: journal off / on / on + crashes. ------------
  // MTTR and journal overhead, self-checked: the off arm is bit-identical to
  // the fault-free baseline (the journal must be arithmetically absent when
  // disabled), both journaled arms balance the record ledger with zero
  // slack, and the crashed arm reproduces the uncrashed arm's results on
  // every pre-existing counter — recovery replay is exactly-once.
  const double ctl_rate = 0.01;
  RecoveryArmResult joff = RunRecoveryArm(false, 0.0, horizon, seed);
  RecoveryArmResult jon = RunRecoveryArm(true, 0.0, horizon, seed);
  RecoveryArmResult jcrash = RunRecoveryArm(true, ctl_rate, horizon, seed);

  const bool off_identical =
      joff.m.dataflows_finished == fault_free.dataflows_finished &&
      joff.m.dataflows_failed == fault_free.dataflows_failed &&
      joff.m.total_vm_quanta == fault_free.total_vm_quanta &&
      joff.m.total_time_quanta == fault_free.total_time_quanta &&
      joff.m.storage_cost == fault_free.storage_cost &&
      joff.m.index_partitions_built == fault_free.index_partitions_built &&
      joff.m.journal_records == 0 && joff.m.journal_bytes == 0;
  const bool on_balanced = jon.slack.ok() && jon.m.ctl_crashes == 0 &&
                           jon.m.journal_records > 0;
  const bool crash_exact =
      jcrash.slack.ok() && jcrash.m.ctl_crashes > 0 &&
      jcrash.m.dataflows_finished == jon.m.dataflows_finished &&
      jcrash.m.dataflows_failed == jon.m.dataflows_failed &&
      jcrash.m.total_vm_quanta == jon.m.total_vm_quanta &&
      jcrash.m.total_time_quanta == jon.m.total_time_quanta &&
      jcrash.m.storage_cost == jon.m.storage_cost &&
      jcrash.m.index_partitions_built == jon.m.index_partitions_built;
  all_ok = all_ok && off_identical && on_balanced && crash_exact;

  const double mttr = jcrash.m.ctl_crashes > 0
                          ? jcrash.m.recovery_replay_quanta /
                                static_cast<double>(jcrash.m.ctl_crashes)
                          : 0.0;
  bench::Header("Control-plane recovery: journal off / on / on + crashes");
  std::printf("%-14s %8s %9s %10s %8s %8s %9s %6s\n", "arm", "finished",
              "jrecords", "jbytes", "crashes", "deduped", "replay.q", "ok?");
  auto print_rec = [&](const char* name, const RecoveryArmResult& r, bool ok) {
    std::printf("%-14s %8d %9lld %10lld %8lld %8lld %9.2f %6s\n", name,
                r.m.dataflows_finished,
                static_cast<long long>(r.m.journal_records),
                static_cast<long long>(r.m.journal_bytes),
                static_cast<long long>(r.m.ctl_crashes),
                static_cast<long long>(r.m.persists_deduped),
                r.m.recovery_replay_quanta, ok ? "yes" : "NO");
  };
  print_rec("journal_off", joff, off_identical);
  print_rec("journal_on", jon, on_balanced);
  print_rec("ctl_crash_0.01", jcrash, crash_exact);
  std::printf("mean replay cost per crash: %.2f quanta\n", mttr);

  json += "  \"recovery\": [\n";
  const RecoveryArmResult* recs[] = {&joff, &jon, &jcrash};
  const char* rec_names[] = {"journal_off", "journal_on", "ctl_crash_0.01"};
  const bool rec_ok[] = {off_identical, on_balanced, crash_exact};
  const double rec_rates[] = {0.0, 0.0, ctl_rate};
  for (int i = 0; i < 3; ++i) {
    const RecoveryArmResult& r = *recs[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"arm\": \"%s\", \"ctl_crash_rate\": %.3f,\n"
        "     \"dataflows_finished\": %d, \"dataflows_failed\": %d, "
        "\"total_vm_quanta\": %lld, \"index_partitions_built\": %d,\n"
        "     \"journal_records\": %lld, \"journal_bytes\": %lld, "
        "\"ctl_crashes\": %lld, \"replayed_records\": %lld, "
        "\"persists_deduped\": %lld,\n"
        "     \"recovery_replay_quanta\": %.4f, \"mttr_quanta\": %.4f, "
        "\"ledger_slack\": %lld, \"ok\": %s}",
        rec_names[i], rec_rates[i], r.m.dataflows_finished,
        r.m.dataflows_failed, static_cast<long long>(r.m.total_vm_quanta),
        r.m.index_partitions_built,
        static_cast<long long>(r.m.journal_records),
        static_cast<long long>(r.m.journal_bytes),
        static_cast<long long>(r.m.ctl_crashes),
        static_cast<long long>(r.m.replayed_records),
        static_cast<long long>(r.m.persists_deduped),
        r.m.recovery_replay_quanta,
        r.m.ctl_crashes > 0
            ? r.m.recovery_replay_quanta /
                  static_cast<double>(r.m.ctl_crashes)
            : 0.0,
        static_cast<long long>(r.slack.journal_records),
        rec_ok[i] ? "true" : "false");
    json += buf;
    json += (i + 1 < 3) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return all_ok ? 0 : 1;
}
