/// Crash-consistent control plane (DESIGN.md §15): exhaustive recovery
/// equivalence. A run that is crashed at ANY stage boundary and recovered
/// from its journal must be bit-identical to the uncrashed run on every
/// pre-existing mirrored counter — the only divergences allowed are the six
/// recovery counters themselves. On top of the boundary sweep: double
/// crashes, rate-driven crashes, the fail-open resume bound, idempotency-
/// token dedup across a reconstructed consumer, validation fail-fast, and
/// recovery through the sharded multi-tenant service. Every run that returns
/// OK has also balanced the journal's record and generation ledgers, which
/// `Run` checks itself.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/journal.h"
#include "core/service.h"
#include "core/sharded_service.h"
#include "dataflow/workload.h"

namespace dfim {
namespace {

// The six counters that legitimately differ between a crashed-and-recovered
// run and its uncrashed ground truth. Everything else must be bit-identical.
bool IsRecoveryCounter(const std::string& name) {
  static const std::set<std::string> kRecovery = {
      "ctl_crashes",      "journal_records",  "journal_bytes",
      "replayed_records", "persists_deduped", "recovery_replay_quanta"};
  return kRecovery.count(name) > 0;
}

struct RecoveryRun {
  Status status = Status::OK();
  ServiceMetrics metrics;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<FileDatabase> db;
  std::unique_ptr<QaasService> service;
};

/// A stressed open-loop config: machine faults, corruption + verify/scrub/
/// repair, speculation + hedging — every subsystem whose state the journal
/// must capture is live, so equivalence is meaningful.
ServiceOptions StressedOptions(uint64_t seed, bool open_loop) {
  ServiceOptions so;
  so.policy = IndexPolicy::kGain;
  so.total_time = 25.0 * 60.0;
  so.tuner.sched.max_containers = 12;
  so.tuner.sched.skyline_cap = 3;
  so.sim.time_error = 0.1;
  so.sim.data_error = 0.1;
  so.faults.crash_rate = 0.02;
  so.faults.storage_fault_rate = 0.05;
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
  so.admission.open_loop = open_loop;
  if (open_loop) {
    so.admission.max_queue = 8;
    so.admission.shed = ShedPolicy::kRejectNewest;
  }
  so.seed = seed;
  return so;
}

RecoveryRun RunWith(ServiceOptions so, uint64_t seed) {
  RecoveryRun run;
  run.catalog = std::make_unique<Catalog>();
  FileDatabaseOptions fdo;
  fdo.montage_files = 4;
  fdo.ligo_files = 4;
  fdo.cybershake_files = 4;
  run.db = std::make_unique<FileDatabase>(run.catalog.get(), fdo);
  EXPECT_TRUE(run.db->Populate().ok());
  DataflowGenerator gen(run.db.get(), seed);
  run.service = std::make_unique<QaasService>(run.catalog.get(), so);
  Result<ServiceMetrics> m = [&]() -> Result<ServiceMetrics> {
    if (so.admission.open_loop) {
      ArrivalOptions arrivals;
      arrivals.mean_interarrival = 30.0;  // ~50 iterations per horizon
      OpenLoopWorkloadClient client(&gen, arrivals, {}, seed * 7 + 1);
      return run.service->Run(&client);
    }
    PhaseWorkloadClient client(&gen, 60.0, {{AppType::kMontage, 1e9}}, seed);
    return run.service->Run(&client);
  }();
  run.status = m.status();
  if (m.ok()) run.metrics = *m;
  return run;
}

/// Every pre-existing mirrored counter bit-identical.
void ExpectEquivalent(const RecoveryRun& a, const RecoveryRun& b,
                      const std::string& label) {
  ASSERT_TRUE(a.status.ok()) << label << ": " << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << label << ": " << b.status.ToString();
#define DFIM_RECOVERY_EQ(type, name)                               \
  if (!IsRecoveryCounter(#name)) {                                 \
    EXPECT_EQ(a.metrics.name, b.metrics.name)                      \
        << label << ": mirrored counter " << #name << " diverged"; \
  }
  DFIM_MIRRORED_COUNTERS(DFIM_RECOVERY_EQ)
#undef DFIM_RECOVERY_EQ
  // Non-mirrored aggregates must match too: the bill, the queueing, the
  // corruption ledger, and the per-execution timeline shape.
  EXPECT_EQ(a.metrics.storage_cost, b.metrics.storage_cost) << label;
  EXPECT_EQ(a.metrics.queue_delay_quanta, b.metrics.queue_delay_quanta)
      << label;
  EXPECT_EQ(a.metrics.corruptions_injected, b.metrics.corruptions_injected)
      << label;
  EXPECT_EQ(a.metrics.corruptions_latent, b.metrics.corruptions_latent)
      << label;
  EXPECT_EQ(a.metrics.corruptions_dead, b.metrics.corruptions_dead) << label;
  EXPECT_EQ(a.metrics.storage_clock_clamps, b.metrics.storage_clock_clamps)
      << label;
  EXPECT_EQ(a.metrics.timeline.size(), b.metrics.timeline.size()) << label;
}

// ---- Validation: fail fast at the service front door -----------------------

TEST(RecoveryValidationTest, FaultOptionsRejectBadCtlKnobs) {
  FaultOptions fo;
  fo.ctl_crash_rate = -0.1;
  EXPECT_TRUE(ValidateFaultOptions(fo).IsInvalidArgument());
  fo.ctl_crash_rate = 1.5;
  EXPECT_TRUE(ValidateFaultOptions(fo).IsInvalidArgument());
  fo.ctl_crash_rate = 0.5;
  EXPECT_TRUE(ValidateFaultOptions(fo).ok());
  fo.crash_at_boundary = -2;
  EXPECT_TRUE(ValidateFaultOptions(fo).IsInvalidArgument());
  fo.crash_at_boundary = 3;
  fo.crash_at_boundary_2 = -7;
  EXPECT_TRUE(ValidateFaultOptions(fo).IsInvalidArgument());
  fo.crash_at_boundary_2 = 9;
  EXPECT_TRUE(ValidateFaultOptions(fo).ok());
}

TEST(RecoveryValidationTest, ServiceRejectsCtlCrashesWithoutJournal) {
  ServiceOptions so = StressedOptions(1, /*open_loop=*/true);
  so.faults.ctl_crash_rate = 0.1;  // journal left disabled
  RecoveryRun run = RunWith(so, 1);
  EXPECT_TRUE(run.status.IsInvalidArgument()) << run.status.ToString();
}

// ---- Journal off: arithmetically absent ------------------------------------

TEST(RecoveryTest, JournalOffWritesNothing) {
  RecoveryRun run = RunWith(StressedOptions(3, true), 3);
  ASSERT_TRUE(run.status.ok());
  EXPECT_EQ(run.metrics.ctl_crashes, 0);
  EXPECT_EQ(run.metrics.journal_records, 0);
  EXPECT_EQ(run.metrics.journal_bytes, 0);
  EXPECT_EQ(run.metrics.replayed_records, 0);
  EXPECT_EQ(run.metrics.persists_deduped, 0);
  EXPECT_DOUBLE_EQ(run.metrics.recovery_replay_quanta, 0.0);
  EXPECT_EQ(run.service->journal().ledger().records_written, 0);
  EXPECT_EQ(run.service->journal().live_records(), 0);
}

// ---- Journal on, no crashes: overhead visible, ledger exact ----------------

TEST(RecoveryTest, UncrashedJournalBalancesAndReproduces) {
  ServiceOptions so = StressedOptions(3, true);
  so.journal.enabled = true;
  RecoveryRun a = RunWith(so, 3);
  ASSERT_TRUE(a.status.ok());
  EXPECT_GT(a.metrics.journal_records, 0);
  EXPECT_GT(a.metrics.journal_bytes, 0);
  EXPECT_EQ(a.metrics.ctl_crashes, 0);
  EXPECT_EQ(a.metrics.replayed_records, 0);
  EXPECT_EQ(a.metrics.persists_deduped, 0);
  const JournalLedger& lg = a.service->journal().ledger();
  EXPECT_GT(lg.commits, 0);
  EXPECT_EQ(lg.tail_discarded, 0);
  // Same config, same seed: the journal layer is deterministic too.
  RecoveryRun b = RunWith(so, 3);
#define DFIM_RECOVERY_SAME(type, name) \
  EXPECT_EQ(a.metrics.name, b.metrics.name) << #name;
  DFIM_MIRRORED_COUNTERS(DFIM_RECOVERY_SAME)
#undef DFIM_RECOVERY_SAME
  // Transparency: an uncrashed journaled run equals its journal-off twin on
  // everything but the journal's own record and byte counts.
  for (uint64_t seed : {3u, 5u, 7u}) {
    for (bool open_loop : {true, false}) {
      const std::string label = "seed=" + std::to_string(seed) +
                                (open_loop ? " open" : " closed");
      ServiceOptions off = StressedOptions(seed, open_loop);
      ServiceOptions on = off;
      on.journal.enabled = true;
      RecoveryRun journal_off = RunWith(off, seed);
      RecoveryRun journal_on = RunWith(on, seed);
      ExpectEquivalent(journal_off, journal_on, label);
      EXPECT_EQ(journal_on.metrics.ctl_crashes, 0) << label;
      EXPECT_EQ(journal_on.metrics.replayed_records, 0) << label;
      EXPECT_EQ(journal_on.metrics.persists_deduped, 0) << label;
      EXPECT_EQ(journal_on.metrics.recovery_replay_quanta, 0.0) << label;
    }
  }
}

// ---- The acceptance sweep: crash at EVERY boundary -------------------------

TEST(RecoveryTest, OpenLoopCrashAtEveryBoundaryMatchesUncrashed) {
  ServiceOptions base = StressedOptions(5, true);
  base.journal.enabled = true;
  RecoveryRun truth = RunWith(base, 5);
  ASSERT_TRUE(truth.status.ok());
  // Exhaustive: the uncrashed run passes 5 boundaries per iteration and
  // commits 2 snapshots per iteration, so the ledger tells us exactly how
  // many boundaries exist to crash at.
  const int64_t boundaries =
      5 * truth.service->journal().ledger().commits / 2;
  ASSERT_GE(boundaries, 15) << "config too small to exercise recovery";
  int64_t total_deduped = 0;
  double total_replay_quanta = 0;
  for (int64_t k = 0; k < boundaries; ++k) {
    ServiceOptions so = base;
    so.faults.crash_at_boundary = k;
    RecoveryRun crashed = RunWith(so, 5);
    const std::string label = "crash_at_boundary=" + std::to_string(k);
    ExpectEquivalent(truth, crashed, label);
    EXPECT_EQ(crashed.metrics.ctl_crashes, 1) << label;
    EXPECT_EQ(crashed.metrics.replayed_records, 1) << label;
    total_deduped += crashed.metrics.persists_deduped;
    total_replay_quanta += crashed.metrics.recovery_replay_quanta;
  }
  // Crashes after ExecuteDecision force replays whose already-landed
  // persists resolve by token, and post-pre-execute crashes re-spend
  // execution quanta: across the whole sweep both must show up.
  EXPECT_GT(total_deduped, 0);
  EXPECT_GT(total_replay_quanta, 0.0);
}

TEST(RecoveryTest, ClosedLoopCrashSweepMatchesUncrashed) {
  ServiceOptions base = StressedOptions(7, /*open_loop=*/false);
  base.journal.enabled = true;
  RecoveryRun truth = RunWith(base, 7);
  ASSERT_TRUE(truth.status.ok());
  const int64_t boundaries = std::min<int64_t>(
      30, 5 * truth.service->journal().ledger().commits / 2);
  ASSERT_GE(boundaries, 10) << "config too small to exercise recovery";
  for (int64_t k = 0; k < boundaries; ++k) {
    ServiceOptions so = base;
    so.faults.crash_at_boundary = k;
    RecoveryRun crashed = RunWith(so, 7);
    const std::string label = "closed crash_at_boundary=" + std::to_string(k);
    ExpectEquivalent(truth, crashed, label);
    EXPECT_EQ(crashed.metrics.ctl_crashes, 1) << label;
  }
}

TEST(RecoveryTest, DoubleCrashMatchesUncrashed) {
  ServiceOptions base = StressedOptions(5, true);
  base.journal.enabled = true;
  RecoveryRun truth = RunWith(base, 5);
  ServiceOptions so = base;
  so.faults.crash_at_boundary = 6;
  so.faults.crash_at_boundary_2 = 13;
  RecoveryRun crashed = RunWith(so, 5);
  ExpectEquivalent(truth, crashed, "double crash");
  EXPECT_EQ(crashed.metrics.ctl_crashes, 2);
  EXPECT_EQ(crashed.metrics.replayed_records, 2);
  EXPECT_EQ(crashed.service->journal().generation(), 2);
}

TEST(RecoveryTest, RateDrivenCrashesMatchAndReproduce) {
  ServiceOptions base = StressedOptions(9, true);
  base.journal.enabled = true;
  RecoveryRun truth = RunWith(base, 9);
  ServiceOptions so = base;
  so.faults.ctl_crash_rate = 0.03;
  RecoveryRun a = RunWith(so, 9);
  ExpectEquivalent(truth, a, "ctl_crash_rate=0.03");
  EXPECT_GT(a.metrics.ctl_crashes, 0);
  // Counter-based draws: the crash schedule itself reproduces bit-for-bit,
  // recovery counters included.
  RecoveryRun b = RunWith(so, 9);
#define DFIM_RECOVERY_SAME(type, name) \
  EXPECT_EQ(a.metrics.name, b.metrics.name) << #name;
  DFIM_MIRRORED_COUNTERS(DFIM_RECOVERY_SAME)
#undef DFIM_RECOVERY_SAME
}

TEST(RecoveryTest, ResumeBoundFailsOpenUnderPermanentCrashes) {
  ServiceOptions base = StressedOptions(3, true);
  base.journal.enabled = true;
  RecoveryRun truth = RunWith(base, 3);
  ServiceOptions so = base;
  so.faults.ctl_crash_rate = 1.0;  // every boundary draw crashes
  RecoveryRun crashed = RunWith(so, 3);
  // Fail open: after kMaxResumeAttempts consecutive recoveries the
  // iteration completes uncrashed instead of looping forever — and replay
  // exactness still holds.
  ExpectEquivalent(truth, crashed, "ctl_crash_rate=1.0 fail-open");
  EXPECT_GT(crashed.metrics.ctl_crashes, 0);
}

// ---- Idempotency tokens across a reconstructed consumer --------------------

TEST(RecoveryTest, StorageTokenDedupesAcrossReconstructedConsumer) {
  // The store outlives the control plane. A persist landed with a token
  // before the crash must dedupe when a recovered (reconstructed) service
  // replays it: same generation, no re-billing, stamps ignored.
  StorageService store((PricingModel()));
  PutStamp stamp;
  stamp.token = 0x9001;
  int64_t gen = store.Put("idx/p0", 100.0, 60.0, stamp);
  EXPECT_TRUE(store.TokenMatches("idx/p0", 0x9001));
  store.AdvanceTo(600.0);
  const Dollars billed = store.accrued_cost();
  // The replaying consumer knows nothing beyond the token it re-derives.
  PutStamp replay;
  replay.token = 0x9001;
  replay.torn = true;  // a divergent replay-side stamp must be ignored
  int64_t gen2 = store.Put("idx/p0", 100.0, 600.0, replay);
  EXPECT_EQ(gen2, gen) << "token replay must not bump the generation";
  EXPECT_EQ(store.accrued_cost(), billed) << "token replay must not re-bill";
  EXPECT_EQ(store.VerifyRead("idx/p0", 600.0), VerifyResult::kClean)
      << "the ignored torn stamp leaked into the stored object";
  // A different token is a real overwrite.
  PutStamp fresh;
  fresh.token = 0x9003;
  EXPECT_GT(store.Put("idx/p0", 100.0, 600.0, fresh), gen);
}

// ---- Sharded service: per-tenant journals recover independently ------------

TEST(RecoveryTest, ShardedRecoveryMatchesUncrashedAggregate) {
  auto run_sharded = [](double ctl_rate) {
    const int num_tenants = 4;
    std::vector<std::unique_ptr<Catalog>> catalogs;
    std::vector<std::unique_ptr<FileDatabase>> dbs;
    std::vector<Catalog*> cptrs;
    for (int t = 0; t < num_tenants; ++t) {
      catalogs.push_back(std::make_unique<Catalog>());
      FileDatabaseOptions fdo;
      fdo.montage_files = 4;
      fdo.ligo_files = 4;
      fdo.cybershake_files = 4;
      dbs.push_back(
          std::make_unique<FileDatabase>(catalogs.back().get(), fdo));
      EXPECT_TRUE(dbs.back()->Populate().ok());
      cptrs.push_back(catalogs.back().get());
    }
    DataflowGenerator gen(dbs.front().get(), 5);
    ServiceOptions so = StressedOptions(5, true);
    so.journal.enabled = true;
    so.faults.ctl_crash_rate = ctl_rate;
    ShardOptions shards;
    shards.num_shards = 2;
    ShardedQaasService svc(cptrs, so, shards);
    OpenLoopWorkloadClient client(&gen, ArrivalOptions{}, {}, 5 * 7 + 1);
    client.set_num_tenants(num_tenants);
    auto agg = svc.Run(&client);
    EXPECT_TRUE(agg.ok()) << agg.status().ToString();
    struct Out {
      ServiceMetrics agg;
      std::vector<ServiceMetrics> per;
    } out;
    if (agg.ok()) out.agg = *agg;
    out.per = svc.per_tenant();
    return out;
  };

  auto truth = run_sharded(0.0);
  auto crashed = run_sharded(0.05);
  EXPECT_GT(crashed.agg.ctl_crashes, 0)
      << "the rate should crash at least one tenant's control plane";
  // Crashed-and-recovered tenants aggregate bit-identically to the
  // uncrashed fleet on every pre-existing counter...
#define DFIM_RECOVERY_EQ(type, name)                                        \
  if (!IsRecoveryCounter(#name)) {                                          \
    EXPECT_EQ(truth.agg.name, crashed.agg.name) << #name << " diverged";    \
  }
  DFIM_MIRRORED_COUNTERS(DFIM_RECOVERY_EQ)
#undef DFIM_RECOVERY_EQ
  // ...and the aggregate still equals the per-tenant sum with zero slack.
#define DFIM_RECOVERY_SUM(type, name)                         \
  {                                                           \
    type sum = 0;                                             \
    for (const auto& m : crashed.per) sum += m.name;          \
    EXPECT_EQ(sum, crashed.agg.name) << #name << " leaked";   \
  }
  DFIM_MIRRORED_COUNTERS(DFIM_RECOVERY_SUM)
#undef DFIM_RECOVERY_SUM
}

}  // namespace
}  // namespace dfim
