#include "core/journal.h"

#include <utility>

namespace dfim {

namespace {

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

}  // namespace

void Journal::Append(int64_t bytes) {
  if (!enabled_) return;
  ++ledger_.records_written;
  ledger_.bytes_written += bytes;
  ++open_records_;
}

void Journal::CommitSnapshot(ServiceSnapshot snap) {
  // Group commit: every record since the previous snapshot — and that
  // snapshot itself — is superseded by the one being written.
  ledger_.truncated_by_snapshot +=
      open_records_ + (snapshot_ != nullptr ? 1 : 0);
  open_records_ = 0;
  ++ledger_.records_written;
  ledger_.bytes_written += EstimateSnapshotBytes(snap);
  snapshot_ = std::make_shared<const ServiceSnapshot>(std::move(snap));
  ++ledger_.commits;
}

std::shared_ptr<const ServiceSnapshot> Journal::Recover() {
  if (snapshot_ == nullptr) return nullptr;
  // The open segment died with the crash.
  ledger_.tail_discarded += open_records_;
  open_records_ = 0;
  ++ledger_.replayed;
  std::shared_ptr<const ServiceSnapshot> snap = std::move(snapshot_);
  ++generation_;
  // Re-seat the restored state as a fresh snapshot under the new
  // generation: a second crash during replay recovers from the same point.
  CommitSnapshot(ServiceSnapshot(*snap));
  return snap;
}

}  // namespace dfim
