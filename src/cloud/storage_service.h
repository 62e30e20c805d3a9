#ifndef DFIM_CLOUD_STORAGE_SERVICE_H_
#define DFIM_CLOUD_STORAGE_SERVICE_H_

#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "cloud/fault_model.h"
#include "cloud/pricing.h"
#include "common/status.h"
#include "common/units.h"

namespace dfim {

/// \brief Outcome of one (possibly hedged) storage read.
///
/// Reads in the simulator are latency, not bytes: a transient fault delays
/// the response instead of failing it, and a hedge issues one duplicate
/// request whose response races the primary (first response wins).
struct ReadOutcome {
  /// Effective latency the reader observes.
  Seconds latency = 0;
  /// The primary request hit a transient fault (latency spike).
  bool primary_fault = false;
  /// A duplicate request was issued (the primary outlived hedge_after).
  bool hedged = false;
  /// The duplicate hit its own, independently drawn, transient fault.
  bool hedge_fault = false;
  /// The duplicate's response arrived before the primary's.
  bool hedge_won = false;
};

/// \brief Integrity stamp attached to a Put (DESIGN.md §12).
///
/// The default stamp (no corruption, no rot, no token) keeps the Put on the
/// pre-integrity arithmetic path exactly.
struct PutStamp {
  /// The write landed torn: its content checksum will never verify.
  bool torn = false;
  /// Pre-drawn latent bit-rot onset instant (kNeverFails = never). Once the
  /// simulated clock passes it, the object's checksum stops verifying.
  Seconds rot_at = kNeverFails;
  /// Idempotency token (0 = none): a Put replaying the token currently
  /// recorded on the object is a no-op at the same generation, so a
  /// journal replay of an already-landed persist never bumps the
  /// generation.
  uint64_t token = 0;
};

/// \brief Checksum-verification outcome for one stored object.
enum class VerifyResult {
  /// Checksum verifies: the object is intact at the queried instant.
  kClean,
  /// Corrupt, and this verification is the first to notice (the ledger's
  /// detected counter was incremented by this call).
  kCorrupt,
  /// Corrupt, but a previous verification already detected (and counted) it.
  kAlreadyDetected,
  /// No object at that path.
  kMissing,
};

/// \brief One stored object with its integrity stamps.
struct StoredObject {
  MegaBytes size = 0;
  /// Monotone per-path write counter, bumped by every non-replay Put and
  /// continued across a Delete (a re-created path never reuses a
  /// generation). The catalog records the generation it expects for each
  /// built index partition, so a stale overwrite (generation mismatch) is
  /// caught even when both contents checksum clean.
  int64_t generation = 0;
  /// Idempotency token of the last write (0 = none).
  uint64_t token = 0;
  /// Checksum is broken (torn write, or realized bit-rot).
  bool corrupt = false;
  /// The corruption was already counted by a verification.
  bool detected = false;
  /// Pending latent bit-rot onset (kNeverFails = none).
  Seconds rot_at = kNeverFails;
};

/// \brief The cloud's persistent object store (paper §3, Cloud Model).
///
/// Tracks named objects (table partitions, index partitions, intermediate
/// results) with sizes, and accrues the storage bill over simulated time:
/// the provider charges `Mst` dollars per MB per quantum for whatever is
/// stored. `AdvanceTo` integrates the bill; objects added/removed between
/// advances are charged for the fraction of time they were present.
///
/// Integrity layer (DESIGN.md §12): each object carries a content-checksum
/// verdict and a generation number. Puts may stamp a torn write or a
/// pre-drawn bit-rot onset; `VerifyRead` checks the stamp at a given
/// instant. A zero-slack corruption ledger tracks every injected corruption
/// until it is detected or provably dead (overwritten/deleted before any
/// verification saw it). With no stamps ever passed, the billing and object
/// arithmetic is bit-identical to the pre-integrity store.
class StorageService {
 public:
  explicit StorageService(PricingModel pricing) : pricing_(pricing) {}

  /// Stores (or replaces) an object of the given size at simulated `now`,
  /// applying the integrity stamp. Returns the object's generation: bumped
  /// on a real write, unchanged when `stamp.token` matches the recorded
  /// token (idempotent replay — the duplicate of an already-landed persist).
  int64_t Put(const std::string& path, MegaBytes size, Seconds now,
              const PutStamp& stamp = PutStamp{});

  /// Deletes an object; missing paths are ignored (idempotent).
  void Delete(const std::string& path, Seconds now);

  bool Exists(const std::string& path) const;

  /// Size of an object, or 0 when absent.
  MegaBytes SizeOf(const std::string& path) const;

  /// Generation of an object, or 0 when absent.
  int64_t Generation(const std::string& path) const;

  /// The generation the next real Put at `path` will create. Keys the
  /// bit-rot draw, so no two writes of one path share a draw.
  int64_t NextGeneration(const std::string& path) const;

  /// \brief Verifies an object's checksum at `now` (latent rot due by then
  /// is realized first). A corrupt object is marked detected so the ledger
  /// counts each corruption's discovery exactly once.
  VerifyResult VerifyRead(const std::string& path, Seconds now);

  /// Total MB currently stored.
  MegaBytes used() const { return used_; }

  size_t object_count() const { return objects_.size(); }

  /// Deterministically ordered object map (scrub cursors walk it).
  const std::map<std::string, StoredObject>& objects() const {
    return objects_;
  }

  /// \brief Advances the billing clock, accruing storage cost.
  ///
  /// Must be called with non-decreasing times; Put/Delete internally settle
  /// the bill up to their own timestamp first. A time regression is clamped
  /// to the last billed instant — logged as a caller bug here, silently for
  /// Put/Delete (object batches legitimately arrive slightly out of order) —
  /// rather than accruing negative MB·quanta. Every clamp, silent or
  /// logged, increments clock_clamps() so callers can surface regressions
  /// as a metric instead of losing them.
  void AdvanceTo(Seconds now);

  /// Number of time regressions clamped so far (Put/Delete/AdvanceTo).
  int64_t clock_clamps() const { return clock_clamps_; }

  /// \name Corruption ledger (zero-slack accounting, DESIGN.md §12)
  /// Every injected corruption ends in exactly one bucket:
  ///   injected == detected + dead + latent(now).
  /// @{
  /// Corruptions realized so far: torn Puts plus bit-rot onsets crossed by
  /// the billing clock.
  int64_t corruptions_injected() const { return corruptions_injected_; }
  /// Corruptions a VerifyRead discovered (each counted once).
  int64_t corruptions_detected() const { return corruptions_detected_; }
  /// Corrupt objects overwritten or deleted before any verification saw
  /// them — provably never served to a verified reader.
  int64_t corruptions_dead() const { return corruptions_dead_; }
  /// Corrupt-but-undetected objects present at `now` (settles rot first).
  int64_t LatentCorrupt(Seconds now);
  /// @}

  /// \name Detection watermark (journaled recovery, DESIGN.md §15)
  /// The store is the durable half of a control-plane crash: it keeps the
  /// pre-crash detections while the service's counters roll back to the
  /// last journal snapshot. Replay would then see kAlreadyDetected where
  /// the original run saw kCorrupt — a different verdict, a different
  /// counter. The detection log lets recovery *rewind* detections past the
  /// snapshot's watermark so the replayed verifications re-discover them
  /// identically. Off (zero overhead) until EnableDetectionLog().
  /// @{

  /// Starts recording first-detections; call before any VerifyRead when
  /// the control plane journals its state.
  void EnableDetectionLog() { record_detections_ = true; }

  /// Monotone sequence number of the latest first-detection (0 = none) —
  /// the watermark a journal snapshot captures.
  int64_t detection_seq() const { return detection_seq_; }

  /// Un-detects every logged detection with sequence > `seq` whose object
  /// still exists at the logged generation, decrementing the detected
  /// counter, and truncates the log. Returns how many were rewound.
  int64_t RewindDetectionsTo(int64_t seq);

  /// True when the object at `path` exists and carries exactly `token`
  /// (a pre-crash landed persist the replay must not re-bill).
  bool TokenMatches(const std::string& path, uint64_t token) const;
  /// @}

  /// \brief Latency semantics of one (possibly hedged) read — pure, the
  /// fault draws are the caller's (the execution simulator draws them
  /// deterministically per (run_key, op_key, attempt)).
  ///
  /// The primary takes `base_latency` plus `fault_latency` when
  /// `primary_fault`. With hedging on, a primary that outlives `hedge_after`
  /// triggers one duplicate (its independent fault draw passed in as
  /// `hedge_fault`), and the reader proceeds with whichever response lands
  /// first; ties go to the primary. With hedging off the arithmetic is
  /// bit-identical to the un-hedged read path (DESIGN.md §9).
  static ReadOutcome SimulateRead(Seconds base_latency, bool primary_fault,
                                  Seconds fault_latency, bool hedge_enabled,
                                  Seconds hedge_after, bool hedge_fault);

  /// Dollars accrued so far (up to the last AdvanceTo/Put/Delete).
  Dollars accrued_cost() const { return accrued_cost_; }

  /// MB·quanta integral accrued so far (unit used by the gain model).
  double accrued_mb_quanta() const { return accrued_mb_quanta_; }

  Seconds last_billed() const { return last_billed_; }

 private:
  /// A scheduled bit-rot onset; lazily invalidated by generation bumps.
  struct RotEvent {
    Seconds at = 0;
    int64_t generation = 0;
    std::string path;
    bool operator>(const RotEvent& o) const { return at > o.at; }
  };

  void Settle(Seconds now);
  /// Realizes every pending rot onset due by `now` (marks objects corrupt
  /// and counts them injected). No-op — zero branches beyond one empty
  /// check — while no rot was ever stamped.
  void RealizeRotUpTo(Seconds now);

  PricingModel pricing_;
  std::map<std::string, StoredObject> objects_;
  /// Last generation of each deleted path, so a re-created object continues
  /// the count: its rot draw is fresh, and a rot event pending for the
  /// deleted object can never match it.
  std::map<std::string, int64_t> retired_generation_;
  std::priority_queue<RotEvent, std::vector<RotEvent>, std::greater<RotEvent>>
      rot_queue_;
  MegaBytes used_ = 0;
  Seconds last_billed_ = 0;
  Dollars accrued_cost_ = 0;
  double accrued_mb_quanta_ = 0;
  int64_t clock_clamps_ = 0;
  int64_t corruptions_injected_ = 0;
  int64_t corruptions_detected_ = 0;
  int64_t corruptions_dead_ = 0;
  /// One logged first-detection (EnableDetectionLog only).
  struct Detection {
    int64_t seq = 0;
    int64_t generation = 0;
    std::string path;
  };
  bool record_detections_ = false;
  int64_t detection_seq_ = 0;
  std::vector<Detection> detection_log_;
};

}  // namespace dfim

#endif  // DFIM_CLOUD_STORAGE_SERVICE_H_
