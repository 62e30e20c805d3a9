/// End-to-end index integrity (DESIGN.md §12): corruption injection
/// (torn writes, latent bit-rot), checksummed persists with generations and
/// idempotency tokens, verified reads, quarantine, background scrub and
/// self-healing repair builds.
///
/// The structural claims under test:
///   1. Corruption draws are deterministic per seed (bit-identical traces).
///   2. Zero-slack corruption ledger:
///      injected == detected_on_read + detected_by_scrub + dead + latent.
///   3. Zero-slack quarantine ledger:
///      quarantined == repairs_completed + evicted + still-quarantined.
///   4. Catalog subset of storage survives corruption: a quarantined
///      partition is marked not built, so nothing built points at a dropped
///      or corrupt object.
///   5. With every knob at zero, all integrity counters are exactly zero
///      (the bit-identity claim is enforced end-to-end by bench_faults'
///      committed-JSON reproduction; here we pin the observable proxy).

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "cloud/fault_model.h"
#include "cloud/storage_service.h"
#include "core/service.h"

namespace dfim {
namespace {

// ---- StorageService: stamps, generations, tokens, rot ----------------------

TEST(StorageIntegrityTest, GenerationBumpsAndTokenReplayIsNoOp) {
  StorageService s{PricingModel{}, /*quantum=*/60};
  EXPECT_EQ(s.Generation("a"), 0);  // absent
  EXPECT_EQ(s.Put("a", 10, 0.0), 1);
  EXPECT_EQ(s.Put("a", 10, 1.0), 2);  // overwrite bumps
  PutStamp tok;
  tok.token = 0x5eed;
  EXPECT_EQ(s.Put("a", 10, 2.0, tok), 3);
  // A replay of an already-landed persist: same token, no bump,
  // no billing or ledger side effects.
  EXPECT_EQ(s.Put("a", 10, 3.0, tok), 3);
  EXPECT_EQ(s.Generation("a"), 3);
  EXPECT_EQ(s.object_count(), 1u);
  EXPECT_EQ(s.VerifyRead("a", 4.0), VerifyResult::kClean);
  EXPECT_EQ(s.corruptions_injected(), 0);
}

TEST(StorageIntegrityTest, TornWriteDetectedExactlyOnce) {
  StorageService s{PricingModel{}, /*quantum=*/60};
  PutStamp torn;
  torn.torn = true;
  s.Put("idx/p.0", 64, 0.0, torn);
  EXPECT_EQ(s.corruptions_injected(), 1);
  EXPECT_EQ(s.corruptions_detected(), 0);
  EXPECT_EQ(s.LatentCorrupt(0.0), 1);
  EXPECT_EQ(s.VerifyRead("idx/p.0", 1.0), VerifyResult::kCorrupt);
  EXPECT_EQ(s.corruptions_detected(), 1);
  // Re-verification must not double count the same corruption.
  EXPECT_EQ(s.VerifyRead("idx/p.0", 2.0), VerifyResult::kAlreadyDetected);
  EXPECT_EQ(s.corruptions_detected(), 1);
  EXPECT_EQ(s.LatentCorrupt(2.0), 0);  // detected, no longer latent
  EXPECT_EQ(s.VerifyRead("nope", 2.0), VerifyResult::kMissing);
}

TEST(StorageIntegrityTest, RotRealizesAtItsOnsetInstant) {
  StorageService s{PricingModel{}, /*quantum=*/60};
  PutStamp rot;
  rot.rot_at = 100.0;
  s.Put("a", 10, 0.0, rot);
  // Before the onset the checksum verifies and nothing is injected.
  EXPECT_EQ(s.VerifyRead("a", 50.0), VerifyResult::kClean);
  EXPECT_EQ(s.corruptions_injected(), 0);
  // Crossing the onset (any settle does it) realizes the corruption.
  EXPECT_EQ(s.VerifyRead("a", 150.0), VerifyResult::kCorrupt);
  EXPECT_EQ(s.corruptions_injected(), 1);
  EXPECT_EQ(s.corruptions_detected(), 1);
}

TEST(StorageIntegrityTest, OverwriteInvalidatesPendingRot) {
  StorageService s{PricingModel{}, /*quantum=*/60};
  PutStamp rot;
  rot.rot_at = 100.0;
  s.Put("a", 10, 0.0, rot);
  // Overwritten before the onset: the generation the rot was drawn for no
  // longer exists, so the event must not fire against the new write.
  s.Put("a", 10, 50.0);
  s.AdvanceTo(200.0);
  EXPECT_EQ(s.VerifyRead("a", 200.0), VerifyResult::kClean);
  EXPECT_EQ(s.corruptions_injected(), 0);
  EXPECT_EQ(s.corruptions_dead(), 0);  // was never corrupt when replaced
}

TEST(StorageIntegrityTest, DeleteThenPutContinuesTheGeneration) {
  StorageService s{PricingModel{}, /*quantum=*/60};
  PutStamp rot;
  rot.rot_at = 100.0;
  EXPECT_EQ(s.NextGeneration("a"), 1);
  EXPECT_EQ(s.Put("a", 10, 0.0, rot), 1);
  EXPECT_EQ(s.NextGeneration("a"), 2);
  // Deleted before its onset, then re-created: the new object is a new
  // generation, so it draws fresh rot and the old event cannot fire on it.
  s.Delete("a", 50.0);
  EXPECT_EQ(s.Generation("a"), 0);
  EXPECT_EQ(s.NextGeneration("a"), 2);
  EXPECT_EQ(s.Put("a", 10, 60.0), 2);
  s.AdvanceTo(200.0);
  EXPECT_EQ(s.VerifyRead("a", 200.0), VerifyResult::kClean);
  EXPECT_EQ(s.corruptions_injected(), 0);
}

TEST(StorageIntegrityTest, UndetectedCorruptionDiesOnOverwriteOrDelete) {
  StorageService s{PricingModel{}, /*quantum=*/60};
  PutStamp torn;
  torn.torn = true;
  s.Put("a", 10, 0.0, torn);
  s.Put("a", 10, 1.0);  // overwritten before anyone verified it
  EXPECT_EQ(s.corruptions_dead(), 1);
  s.Put("b", 10, 2.0, torn);
  s.Delete("b", 3.0);  // deleted before anyone verified it
  EXPECT_EQ(s.corruptions_dead(), 2);
  // A *detected* corruption deleted later stays in the detected bucket.
  s.Put("c", 10, 4.0, torn);
  EXPECT_EQ(s.VerifyRead("c", 5.0), VerifyResult::kCorrupt);
  s.Delete("c", 6.0);
  EXPECT_EQ(s.corruptions_dead(), 2);
  // Unit-level ledger: injected == detected + dead + latent.
  EXPECT_EQ(s.corruptions_injected(),
            s.corruptions_detected() + s.corruptions_dead() +
                s.LatentCorrupt(6.0));
}

// ---- FaultModel: deterministic corruption draws ----------------------------

TEST(CorruptionDrawTest, TornWriteDeterministicAndRateScaled) {
  FaultOptions fo;
  fo.torn_write_rate = 0.2;
  fo.seed = 11;
  FaultModel a(fo);
  FaultModel b(fo);
  int plain = 0, crashed = 0;
  for (uint64_t k = 0; k < 500; ++k) {
    // Pure counter-based draw: bit-identical across model instances.
    EXPECT_EQ(a.TornWrite(3, k, false), b.TornWrite(3, k, false));
    EXPECT_EQ(a.TornWrite(3, k, true), b.TornWrite(3, k, true));
    plain += a.TornWrite(3, k, false) ? 1 : 0;
    crashed += a.TornWrite(3, k, true) ? 1 : 0;
  }
  EXPECT_GT(plain, 0);
  // Crash-interrupted persists are strictly more likely to land torn.
  EXPECT_GT(crashed, plain);

  FaultOptions zero;
  FaultModel z(zero);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_FALSE(z.TornWrite(3, k, false));
    EXPECT_FALSE(z.TornWrite(3, k, true));
  }
  FaultOptions certain;
  certain.torn_write_rate = 1.0;
  FaultModel c(certain);
  EXPECT_TRUE(c.TornWrite(3, 1, false));
}

TEST(CorruptionDrawTest, BitRotOnsetDeterministicAndBounded) {
  FaultOptions fo;
  fo.bitrot_rate = 0.05;
  fo.seed = 7;
  FaultModel a(fo);
  FaultModel b(fo);
  int onsets = 0;
  for (uint64_t obj = 0; obj < 200; ++obj) {
    Seconds oa = a.BitRotOnset(obj, 1, 100.0, 60.0, 50);
    EXPECT_EQ(oa, b.BitRotOnset(obj, 1, 100.0, 60.0, 50));  // bit-identical
    // A different generation of the same object re-draws independently.
    Seconds og = a.BitRotOnset(obj, 2, 100.0, 60.0, 50);
    if (oa < kNeverFails) {
      ++onsets;
      EXPECT_GE(oa, 100.0);
      EXPECT_LE(oa, 100.0 + 50 * 60.0);
      EXPECT_NE(oa, og);  // same instant across generations is a draw bug
    }
  }
  EXPECT_GT(onsets, 0);

  FaultOptions zero;
  FaultModel z(zero);
  EXPECT_EQ(z.BitRotOnset(1, 1, 0.0, 60.0, 1000), kNeverFails);
  FaultOptions certain;
  certain.bitrot_rate = 1.0;
  FaultModel c(certain);
  Seconds onset = c.BitRotOnset(1, 1, 0.0, 60.0, 1000);
  EXPECT_GE(onset, 0.0);
  EXPECT_LE(onset, 60.0);  // hazard 1 fires within the first quantum
}

// ---- Knob validation -------------------------------------------------------

TEST(IntegrityValidationTest, RejectsBadCorruptionKnobs) {
  EXPECT_TRUE(ValidateFaultOptions(FaultOptions{}).ok());

  FaultOptions neg;
  neg.torn_write_rate = -0.1;
  EXPECT_TRUE(ValidateFaultOptions(neg).IsInvalidArgument());

  FaultOptions over;
  over.torn_write_rate = 1.5;
  EXPECT_TRUE(ValidateFaultOptions(over).IsInvalidArgument());

  FaultOptions rot_over;
  rot_over.bitrot_rate = 2.0;
  EXPECT_TRUE(ValidateFaultOptions(rot_over).IsInvalidArgument());
}

TEST(IntegrityValidationTest, RejectsBadIntegrityKnobs) {
  EXPECT_TRUE(ValidateIntegrityOptions(IntegrityOptions{}).ok());

  IntegrityOptions on;
  on.verify_reads = true;
  EXPECT_TRUE(ValidateIntegrityOptions(on).ok());

  // A free verify would silently skip the charge path.
  IntegrityOptions free_verify;
  free_verify.verify_reads = true;
  free_verify.verify_latency = 0.0;
  EXPECT_TRUE(ValidateIntegrityOptions(free_verify).IsInvalidArgument());

  IntegrityOptions neg_latency;
  neg_latency.verify_latency = -1.0;
  EXPECT_TRUE(ValidateIntegrityOptions(neg_latency).IsInvalidArgument());

  IntegrityOptions nan_scrub;
  nan_scrub.scrub_objects_per_quantum = std::nan("");
  EXPECT_TRUE(ValidateIntegrityOptions(nan_scrub).IsInvalidArgument());

  IntegrityOptions neg_scrub;
  neg_scrub.scrub_objects_per_quantum = -1.0;
  EXPECT_TRUE(ValidateIntegrityOptions(neg_scrub).IsInvalidArgument());
}

// ---- Catalog: quarantine bookkeeping ---------------------------------------

Catalog SmallCatalog() {
  Catalog catalog;
  Schema schema({Column::Int32("k"), Column::Char("pad", 90.0)});
  Table t("t", schema);
  t.AddPartition(100000);
  t.AddPartition(100000);
  t.AddPartition(100000);
  EXPECT_TRUE(catalog.AddTable(std::move(t)).ok());
  IndexDef def;
  def.id = "t_k";
  def.table = "t";
  def.columns = {"k"};
  EXPECT_TRUE(catalog.DefineIndex(def).ok());
  return catalog;
}

TEST(CatalogQuarantineTest, QuarantineMarksNotBuiltAndRepairLifts) {
  Catalog catalog = SmallCatalog();
  // Quarantining an unbuilt partition is a no-op (nothing to protect).
  EXPECT_FALSE(catalog.QuarantinePartition("t_k", 0));
  ASSERT_TRUE(catalog.MarkIndexPartitionBuilt("t_k", 0, 10.0).ok());
  ASSERT_TRUE(catalog.SetPartitionGeneration("t_k", 0, 7).ok());
  EXPECT_EQ((*catalog.GetIndexState("t_k"))->part(0).generation, 7);

  EXPECT_TRUE(catalog.QuarantinePartition("t_k", 0));
  EXPECT_TRUE(catalog.IsQuarantined("t_k", 0));
  EXPECT_FALSE((*catalog.GetIndexState("t_k"))->part(0).built);
  // Idempotent: the partition is no longer built, so a second call fails.
  EXPECT_FALSE(catalog.QuarantinePartition("t_k", 0));
  // Generations are only recordable on built partitions.
  EXPECT_TRUE(catalog.SetPartitionGeneration("t_k", 0, 8).IsInvalidArgument());

  // A completed (re)build lifts the quarantine and resets the generation
  // (unknown until the new persist lands).
  ASSERT_TRUE(catalog.MarkIndexPartitionBuilt("t_k", 0, 20.0).ok());
  EXPECT_FALSE(catalog.IsQuarantined("t_k", 0));
  EXPECT_EQ((*catalog.GetIndexState("t_k"))->part(0).generation, 0);
  EXPECT_EQ(catalog.quarantine_evictions(), 0);  // repaired, not evicted
}

TEST(CatalogQuarantineTest, DropAndInvalidationEvictQuarantine) {
  Catalog catalog = SmallCatalog();
  ASSERT_TRUE(catalog.MarkIndexPartitionBuilt("t_k", 0, 10.0).ok());
  ASSERT_TRUE(catalog.MarkIndexPartitionBuilt("t_k", 1, 10.0).ok());
  EXPECT_TRUE(catalog.QuarantinePartition("t_k", 0));
  EXPECT_TRUE(catalog.QuarantinePartition("t_k", 1));
  ASSERT_EQ(catalog.quarantined().size(), 2u);

  // A batch update supersedes the pending repair for partition 0.
  ASSERT_TRUE(catalog.ApplyBatchUpdate("t", {0}).ok());
  EXPECT_FALSE(catalog.IsQuarantined("t_k", 0));
  EXPECT_EQ(catalog.quarantine_evictions(), 1);

  // Dropping the index evicts the remaining entry.
  ASSERT_TRUE(catalog.DropIndex("t_k").ok());
  EXPECT_FALSE(catalog.IsQuarantined("t_k", 1));
  EXPECT_EQ(catalog.quarantine_evictions(), 2);
  EXPECT_TRUE(catalog.quarantined().empty());
}

// ---- QaasService: end-to-end corruption, quarantine, scrub, repair ---------

struct IntegrityFixture {
  IntegrityFixture(const FaultOptions& faults, const IntegrityOptions& integ,
                   SpeculationOptions spec = SpeculationOptions{},
                   uint64_t seed = 5, Seconds horizon = 60.0 * 60.0) {
    FileDatabaseOptions fdo;
    fdo.montage_files = 4;
    fdo.ligo_files = 4;
    fdo.cybershake_files = 4;
    db = std::make_unique<FileDatabase>(&catalog, fdo);
    EXPECT_TRUE(db->Populate().ok());
    gen = std::make_unique<DataflowGenerator>(db.get(), seed);

    ServiceOptions so;
    so.policy = IndexPolicy::kGain;
    so.total_time = horizon;
    so.tuner.sched.max_containers = 12;
    so.tuner.sched.skyline_cap = 3;
    so.sim.time_error = 0.1;
    so.sim.data_error = 0.1;
    so.faults = faults;
    so.integrity = integ;
    so.speculation = spec;
    so.seed = seed;
    service = std::make_unique<QaasService>(&catalog, so);
  }

  /// Runs the closed loop. `Run` fails unless the corruption and
  /// quarantine ledgers balance and the catalog stays a subset of storage.
  ServiceMetrics RunMontage(uint64_t seed = 5) {
    PhaseWorkloadClient client(gen.get(), 60.0, {{AppType::kMontage, 1e9}},
                               seed);
    auto m = service->Run(&client);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? *m : ServiceMetrics{};
  }

  Catalog catalog;
  std::unique_ptr<FileDatabase> db;
  std::unique_ptr<DataflowGenerator> gen;
  std::unique_ptr<QaasService> service;
};

FaultOptions CorruptionFaults(double torn, double rot, uint64_t seed = 17) {
  FaultOptions fo;
  fo.torn_write_rate = torn;
  fo.bitrot_rate = rot;
  fo.seed = seed;
  return fo;
}

IntegrityOptions FullIntegrity() {
  IntegrityOptions io;
  io.verify_reads = true;
  io.verify_latency = 1.0;
  io.scrub_objects_per_quantum = 2.0;
  io.repair = true;
  return io;
}

TEST(ServiceIntegrityTest, ZeroKnobsLeaveEveryIntegrityCounterZero) {
  // Non-corruption faults on, corruption and integrity off: the integrity
  // layer must be unobservable (its end-to-end bit-identity is enforced by
  // bench_faults reproducing the committed BENCH_faults.json).
  FaultOptions fo;
  fo.crash_rate = 0.05;
  fo.seed = 21;
  IntegrityFixture f(fo, IntegrityOptions{});
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  EXPECT_EQ(m.corruptions_injected, 0);
  EXPECT_EQ(m.corruptions_detected_on_read, 0);
  EXPECT_EQ(m.corruptions_detected_by_scrub, 0);
  EXPECT_EQ(m.corruptions_dead, 0);
  EXPECT_EQ(m.corruptions_latent, 0);
  EXPECT_EQ(m.stale_reads, 0);
  EXPECT_EQ(m.verified_reads, 0);
  EXPECT_EQ(m.degraded_reads, 0);
  EXPECT_EQ(m.partitions_quarantined, 0);
  EXPECT_EQ(m.quarantine_evicted, 0);
  EXPECT_EQ(m.repairs_scheduled, 0);
  EXPECT_EQ(m.repairs_completed, 0);
  EXPECT_EQ(m.scrub_reads, 0);
  EXPECT_TRUE(f.catalog.quarantined().empty());
}

TEST(ServiceIntegrityTest, CorruptionTraceDeterministicPerSeed) {
  auto run = [](uint64_t fault_seed) {
    IntegrityFixture f(CorruptionFaults(0.3, 0.001, fault_seed),
                       FullIntegrity());
    return f.RunMontage();
  };
  ServiceMetrics a = run(17);
  ServiceMetrics b = run(17);
  // Same seed: bit-identical corruption trace and downstream metrics.
  EXPECT_EQ(a.corruptions_injected, b.corruptions_injected);
  EXPECT_EQ(a.corruptions_detected_on_read, b.corruptions_detected_on_read);
  EXPECT_EQ(a.corruptions_detected_by_scrub, b.corruptions_detected_by_scrub);
  EXPECT_EQ(a.partitions_quarantined, b.partitions_quarantined);
  EXPECT_EQ(a.repairs_scheduled, b.repairs_scheduled);
  EXPECT_EQ(a.repairs_completed, b.repairs_completed);
  EXPECT_EQ(a.verified_reads, b.verified_reads);
  EXPECT_EQ(a.degraded_reads, b.degraded_reads);
  EXPECT_EQ(a.scrub_reads, b.scrub_reads);
  EXPECT_EQ(a.total_vm_quanta, b.total_vm_quanta);
  EXPECT_EQ(a.total_time_quanta, b.total_time_quanta);  // bit-identical
  EXPECT_EQ(a.storage_cost, b.storage_cost);

  // A different fault seed draws a different corruption trace.
  ServiceMetrics c = run(18);
  EXPECT_TRUE(a.corruptions_injected != c.corruptions_injected ||
              a.corruptions_detected_on_read != c.corruptions_detected_on_read ||
              a.partitions_quarantined != c.partitions_quarantined ||
              a.total_time_quanta != c.total_time_quanta);
}

TEST(ServiceIntegrityTest, TornWritesAreDetectedQuarantinedAndRepaired) {
  IntegrityFixture f(CorruptionFaults(0.4, 0.0), FullIntegrity());
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  // A 40% torn rate against dozens of persists must inject corruption, and
  // verification must catch at least some of it at bind time.
  EXPECT_GT(m.corruptions_injected, 0);
  EXPECT_GT(m.verified_reads, 0);
  EXPECT_GT(m.corruptions_detected_on_read + m.corruptions_detected_by_scrub,
            0);
  EXPECT_GT(m.partitions_quarantined, 0);
  // Self-healing: the repair path rebuilt at least one quarantined
  // partition inside idle slots.
  EXPECT_GT(m.repairs_scheduled, 0);
  EXPECT_GT(m.repairs_completed, 0);
}

TEST(ServiceIntegrityTest, ScrubCatchesLatentRotBeforeReadersDo) {
  // Bit-rot only (no torn writes): corruption arises *after* persists land,
  // so the scrub is the defence that matters.
  FaultOptions fo = CorruptionFaults(0.0, 0.01);
  IntegrityOptions io = FullIntegrity();
  io.scrub_objects_per_quantum = 8.0;
  IntegrityFixture f(fo, io);
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.scrub_reads, 0);
  EXPECT_GT(m.corruptions_injected, 0);

  // Without any scrub, the same fault universe leaves detection to bind
  // time only — scrub_reads stays zero and `Run` still finds the ledger
  // balanced.
  IntegrityOptions no_scrub = FullIntegrity();
  no_scrub.scrub_objects_per_quantum = 0.0;
  IntegrityFixture g(fo, no_scrub);
  ServiceMetrics n = g.RunMontage();
  EXPECT_EQ(n.scrub_reads, 0);
  EXPECT_EQ(n.corruptions_detected_by_scrub, 0);
}

TEST(ServiceIntegrityTest, QuarantineWithoutRepairDegradesButStaysHonest) {
  IntegrityOptions io = FullIntegrity();
  io.repair = false;
  IntegrityFixture f(CorruptionFaults(0.4, 0.0), io);
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.partitions_quarantined, 0);
  EXPECT_EQ(m.repairs_scheduled, 0);
  // Repairs-completed can still tick: the tuner may *naturally* rebuild a
  // quarantined partition it finds beneficial; the quarantine ledger `Run`
  // checks counts any build that lifts a quarantine.
}

TEST(ServiceIntegrityTest, ServiceRejectsBadKnobsAtEntry) {
  auto run_with = [](const FaultOptions& faults, const IntegrityOptions& io) {
    IntegrityFixture f(faults, io, SpeculationOptions{}, 5, 10.0 * 60.0);
    PhaseWorkloadClient client(f.gen.get(), 60.0, {{AppType::kMontage, 1e9}},
                               5);
    return f.service->Run(&client).status();
  };
  FaultOptions bad_torn;
  bad_torn.torn_write_rate = 1.5;
  EXPECT_TRUE(run_with(bad_torn, IntegrityOptions{}).IsInvalidArgument());

  FaultOptions bad_rot;
  bad_rot.bitrot_rate = -0.1;
  EXPECT_TRUE(run_with(bad_rot, IntegrityOptions{}).IsInvalidArgument());

  IntegrityOptions free_verify;
  free_verify.verify_reads = true;
  free_verify.verify_latency = 0.0;
  EXPECT_TRUE(run_with(FaultOptions{}, free_verify).IsInvalidArgument());

  IntegrityOptions neg_scrub;
  neg_scrub.scrub_objects_per_quantum = -2.0;
  EXPECT_TRUE(run_with(FaultOptions{}, neg_scrub).IsInvalidArgument());
}

}  // namespace
}  // namespace dfim
