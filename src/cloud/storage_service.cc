#include "cloud/storage_service.h"

#include "common/logging.h"

namespace dfim {

void StorageService::Settle(Seconds now) {
  // Billing time never runs backwards: a regression would accrue negative
  // MB·quanta. Clamp to the last billed instant — the mutation itself still
  // applies, billed from the high-water mark. (Put/Delete legitimately
  // arrive slightly out of order when callers register a batch of objects
  // grouped by container; only AdvanceTo treats a regression as a caller
  // bug worth logging.)
  if (now <= last_billed_) {
    if (now < last_billed_) ++clock_clamps_;
  } else {
    double quanta = (now - last_billed_) / quantum_;
    accrued_mb_quanta_ += used_ * quanta;
    accrued_cost_ += pricing_.StorageCost(used_, quanta);
    last_billed_ = now;
  }
  if (!rot_queue_.empty()) RealizeRotUpTo(last_billed_);
}

void StorageService::RealizeRotUpTo(Seconds now) {
  while (!rot_queue_.empty() && rot_queue_.top().at <= now) {
    const RotEvent& ev = rot_queue_.top();
    auto it = objects_.find(ev.path);
    // Stale events (object deleted or overwritten since the stamp) are
    // dropped: the generation the rot was drawn for no longer exists.
    if (it != objects_.end() && it->second.generation == ev.generation &&
        !it->second.corrupt) {
      it->second.corrupt = true;
      ++corruptions_injected_;
    }
    rot_queue_.pop();
  }
}

int64_t StorageService::Put(const std::string& path, MegaBytes size,
                            Seconds now, const PutStamp& stamp) {
  Settle(now);
  auto it = objects_.find(path);
  if (it != objects_.end()) {
    // Idempotent replay: the same logical write already landed (a journal
    // recovery re-issuing an in-flight persist). Nothing changes — same
    // generation, same content, same stamps.
    if (stamp.token != 0 && stamp.token == it->second.token) {
      return it->second.generation;
    }
    // A corrupt object overwritten before any verification saw it is
    // provably dead: no verified reader was ever served its bytes.
    if (it->second.corrupt && !it->second.detected) ++corruptions_dead_;
    used_ -= it->second.size;
    StoredObject& obj = it->second;
    obj.size = size;
    ++obj.generation;
    obj.token = stamp.token;
    obj.corrupt = stamp.torn;
    obj.detected = false;
    obj.rot_at = stamp.rot_at;
  } else {
    StoredObject obj;
    obj.size = size;
    obj.generation = NextGeneration(path);
    retired_generation_.erase(path);
    obj.token = stamp.token;
    obj.corrupt = stamp.torn;
    obj.rot_at = stamp.rot_at;
    it = objects_.emplace(path, obj).first;
  }
  used_ += size;
  if (stamp.torn) ++corruptions_injected_;
  if (stamp.rot_at < kNeverFails) {
    rot_queue_.push(RotEvent{stamp.rot_at, it->second.generation, path});
  }
  return it->second.generation;
}

void StorageService::Delete(const std::string& path, Seconds now) {
  Settle(now);
  auto it = objects_.find(path);
  if (it == objects_.end()) return;
  if (it->second.corrupt && !it->second.detected) ++corruptions_dead_;
  used_ -= it->second.size;
  retired_generation_[path] = it->second.generation;
  objects_.erase(it);
}

int64_t StorageService::NextGeneration(const std::string& path) const {
  auto it = objects_.find(path);
  if (it != objects_.end()) return it->second.generation + 1;
  auto retired = retired_generation_.find(path);
  return retired == retired_generation_.end() ? 1 : retired->second + 1;
}

bool StorageService::Exists(const std::string& path) const {
  return objects_.find(path) != objects_.end();
}

MegaBytes StorageService::SizeOf(const std::string& path) const {
  auto it = objects_.find(path);
  return it == objects_.end() ? 0 : it->second.size;
}

int64_t StorageService::Generation(const std::string& path) const {
  auto it = objects_.find(path);
  return it == objects_.end() ? 0 : it->second.generation;
}

VerifyResult StorageService::VerifyRead(const std::string& path, Seconds now) {
  // Realize any rot due by the read instant first — a verification is a
  // read, and it sees the object as it is *now*.
  Settle(now);
  auto it = objects_.find(path);
  if (it == objects_.end()) return VerifyResult::kMissing;
  if (!it->second.corrupt) return VerifyResult::kClean;
  if (it->second.detected) return VerifyResult::kAlreadyDetected;
  it->second.detected = true;
  ++corruptions_detected_;
  if (record_detections_) {
    detection_log_.push_back(
        Detection{++detection_seq_, it->second.generation, path});
  }
  return VerifyResult::kCorrupt;
}

int64_t StorageService::RewindDetectionsTo(int64_t seq) {
  int64_t rewound = 0;
  while (!detection_log_.empty() && detection_log_.back().seq > seq) {
    const Detection& d = detection_log_.back();
    auto it = objects_.find(d.path);
    // Generation-guarded: an overwrite since the detection replaced the
    // object — its detected flag belongs to the new write, leave it alone.
    if (it != objects_.end() && it->second.generation == d.generation &&
        it->second.detected) {
      it->second.detected = false;
      --corruptions_detected_;
      ++rewound;
    }
    detection_log_.pop_back();
  }
  detection_seq_ = seq;
  return rewound;
}

bool StorageService::TokenMatches(const std::string& path,
                                  uint64_t token) const {
  if (token == 0) return false;
  auto it = objects_.find(path);
  return it != objects_.end() && it->second.token == token;
}

int64_t StorageService::LatentCorrupt(Seconds now) {
  Settle(now);
  int64_t n = 0;
  for (const auto& [path, obj] : objects_) {
    if (obj.corrupt && !obj.detected) ++n;
  }
  return n;
}

ReadOutcome StorageService::SimulateRead(Seconds base_latency,
                                         bool primary_fault,
                                         Seconds fault_latency,
                                         bool hedge_enabled,
                                         Seconds hedge_after,
                                         bool hedge_fault) {
  ReadOutcome out;
  out.primary_fault = primary_fault;
  out.latency = base_latency;
  if (primary_fault) out.latency += fault_latency;
  if (hedge_enabled && out.latency > hedge_after + 1e-9) {
    out.hedged = true;
    out.hedge_fault = hedge_fault;
    Seconds dup =
        hedge_after + base_latency + (hedge_fault ? fault_latency : 0);
    if (dup < out.latency - 1e-9) {
      out.latency = dup;
      out.hedge_won = true;
    }
  }
  return out;
}

void StorageService::AdvanceTo(Seconds now) {
  if (now < last_billed_ - 1e-9) {
    DFIM_LOG(kWarn) << "StorageService::AdvanceTo: time regression " << now
                    << " < " << last_billed_ << "; clamping";
    ++clock_clamps_;
    return;
  }
  Settle(now);
}

}  // namespace dfim
