#include "core/journal.h"

#include <cstring>

namespace dfim {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvBits(uint64_t h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvMix(h, bits);
}

/// Deterministic canonical-encoding size of one snapshot: what a physical
/// log record of this state would roughly occupy. Only feeds journal_bytes
/// (and therefore the overhead benchmarks); recovery never parses it.
int64_t EstimateSnapshotBytes(const ServiceSnapshot& s) {
  int64_t b = 256;  // fixed scalar block (clocks, targets, breaker, rng)
  b += 64 * static_cast<int64_t>(s.control.history.size());
  for (const auto& [id, at] : s.control.last_useful) {
    b += 16 + static_cast<int64_t>(id.size());
  }
  b += 160 * static_cast<int64_t>(s.fleet.containers.size());
  b += 64 * static_cast<int64_t>(s.catalog.tables.size());
  b += 96 * static_cast<int64_t>(s.catalog.states.size());
  b += 24 * static_cast<int64_t>(s.catalog.quarantined.size());
  b += 48 * static_cast<int64_t>(s.control.build_progress.size());
  b += 24 * static_cast<int64_t>(s.control.repair_queue.size());
  b += 120 * static_cast<int64_t>(s.loop.queue.size());
  b += 120 * static_cast<int64_t>(s.loop.batch.size());
  b += static_cast<int64_t>(s.control.scrub_cursor.size());
  if (s.in_flight.has_value()) {
    b += 96 + 48 * static_cast<int64_t>(s.in_flight->decision.combined.num_ops());
  }
  return b;
}

/// Payload digest of a snapshot: a cheap deterministic fingerprint of the
/// state the record covers. Folded into the record checksum so a (modelled)
/// torn snapshot would fail verification at recovery.
uint64_t SnapshotDigest(const ServiceSnapshot& s) {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<uint64_t>(s.kind));
  h = FnvBits(h, s.loop.clock);
  h = FnvBits(h, s.loop.settled);
  h = FnvBits(h, s.loop.start);
  h = FnvMix(h, s.loop.queue.size());
  h = FnvMix(h, s.loop.batch.size());
  h = FnvMix(h, s.control.history.size());
  h = FnvMix(h, s.fleet.containers.size());
  h = FnvMix(h, static_cast<uint64_t>(s.fleet.next_id));
  h = FnvMix(h, s.catalog.states.size());
  h = FnvMix(h, s.catalog.quarantined.size());
  h = FnvMix(h, static_cast<uint64_t>(s.detection_watermark));
  h = FnvBits(h, s.control.storage_clock_mirror);
  h = FnvBits(h, s.control.next_update);
  h = FnvMix(h, static_cast<uint64_t>(s.metrics.dataflows_arrived));
  h = FnvMix(h, static_cast<uint64_t>(s.metrics.dataflows_finished));
  h = FnvMix(h, s.in_flight.has_value() ? 1ULL : 0ULL);
  return h;
}

uint64_t RecordChecksum(const JournalRecord& rec, uint64_t payload_digest) {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<uint64_t>(rec.lsn));
  h = FnvMix(h, static_cast<uint64_t>(rec.type));
  h = FnvMix(h, static_cast<uint64_t>(rec.stage));
  h = FnvMix(h, static_cast<uint64_t>(rec.generation));
  h = FnvMix(h, static_cast<uint64_t>(rec.bytes));
  h = FnvMix(h, payload_digest);
  return h;
}

}  // namespace

JournalRecord Journal::MakeRecord(JournalRecordType type, StageBoundary stage,
                                  int64_t bytes, uint64_t payload_digest) {
  JournalRecord rec;
  rec.lsn = next_lsn_++;
  rec.type = type;
  rec.stage = stage;
  rec.generation = generation_;
  rec.bytes = bytes;
  rec.checksum = RecordChecksum(rec, payload_digest);
  ++ledger_.records_written;
  ledger_.bytes_written += bytes;
  return rec;
}

void Journal::AppendStage(StageBoundary stage, Seconds at, int64_t items) {
  uint64_t digest = FnvBits(FnvMix(kFnvOffset, static_cast<uint64_t>(items)), at);
  records_.push_back(MakeRecord(JournalRecordType::kStage, stage,
                                32 + 8 * items, digest));
  ++open_records_;
}

void Journal::AppendArrival(int dataflow_id, Seconds at) {
  uint64_t digest =
      FnvBits(FnvMix(kFnvOffset, static_cast<uint64_t>(dataflow_id)), at);
  records_.push_back(MakeRecord(JournalRecordType::kArrival,
                                StageBoundary::kDecide, 48, digest));
  ++open_records_;
}

void Journal::CommitSnapshot(ServiceSnapshot snap) {
  // Group commit: every record since the previous snapshot — and that
  // snapshot itself — is superseded by the one being written.
  ledger_.truncated_by_snapshot +=
      open_records_ + (snapshot_ != nullptr ? 1 : 0);
  open_records_ = 0;
  records_.clear();
  const int64_t bytes = EstimateSnapshotBytes(snap);
  snapshot_record_ = MakeRecord(JournalRecordType::kSnapshot,
                                StageBoundary::kDecide, bytes,
                                SnapshotDigest(snap));
  records_.push_back(snapshot_record_);
  snapshot_ = std::make_shared<const ServiceSnapshot>(std::move(snap));
  ++ledger_.commits;
}

std::shared_ptr<const ServiceSnapshot> Journal::Recover() {
  if (snapshot_ == nullptr) return nullptr;
  // The open segment died with the crash.
  ledger_.tail_discarded += open_records_;
  open_records_ = 0;
  records_.clear();
  // Verify before trusting: a checksum mismatch means the snapshot record
  // itself is torn and there is nothing safe to restore.
  JournalRecord check = snapshot_record_;
  check.checksum = 0;
  if (RecordChecksum(check, SnapshotDigest(*snapshot_)) !=
      snapshot_record_.checksum) {
    return nullptr;
  }
  ++ledger_.replayed;
  std::shared_ptr<const ServiceSnapshot> snap = snapshot_;
  snapshot_ = nullptr;
  ++generation_;
  // Re-seat the restored state as a fresh snapshot under the new
  // generation: a second crash during replay recovers from the same point.
  CommitSnapshot(ServiceSnapshot(*snap));
  return snap;
}

}  // namespace dfim
