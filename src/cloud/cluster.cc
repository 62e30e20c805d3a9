#include "cloud/cluster.h"

#include <algorithm>

namespace dfim {

Cluster::Cluster(ContainerSpec spec, PricingModel pricing, Seconds quantum,
                 int max_containers)
    : spec_(spec),
      pricing_(pricing),
      quantum_(quantum),
      max_containers_(max_containers) {}

void Cluster::SetFaultModel(const FaultModel* model,
                            int64_t preempt_max_quanta) {
  faults_ = model;
  preempt_max_quanta_ = preempt_max_quanta;
  preempt_notice_ = model != nullptr ? model->options().preempt_notice : 0;
}

Container* Cluster::AllocateFresh(Seconds now) {
  auto c = std::make_unique<Container>(next_id_++, spec_, quantum_, now);
  if (faults_ != nullptr) {
    Seconds boot = faults_->BootDelay(static_cast<uint64_t>(c->id()));
    if (boot > 0) c->set_usable_at(now + boot);
    Seconds reclaim = faults_->PreemptOnset(static_cast<uint64_t>(c->id()),
                                            quantum_,
                                            preempt_max_quanta_);
    if (reclaim < kNeverFails) c->set_preempt_at(now + reclaim);
  }
  total_quanta_ += c->quanta_charged();
  ++ledger_.granted;
  Container* raw = c.get();
  alive_.push_back(std::move(c));
  return raw;
}

Result<std::vector<Container*>> Cluster::Acquire(int n, Seconds now) {
  if (n <= 0) return Status::InvalidArgument("Acquire: n must be positive");
  ReapExpired(now);
  std::vector<Container*> out;
  out.reserve(static_cast<size_t>(n));
  // Reuse alive containers first: their caches are warm and their current
  // quantum is already paid for.
  for (auto& c : alive_) {
    if (static_cast<int>(out.size()) == n) break;
    out.push_back(c.get());
  }
  while (static_cast<int>(out.size()) < n) {
    ++ledger_.acquire_requests;
    if (static_cast<int>(alive_.size()) >= max_containers_) {
      ++ledger_.denied_capacity;
      return Status::ResourceExhausted("Acquire: container limit reached");
    }
    out.push_back(AllocateFresh(now));
  }
  return out;
}

bool Cluster::UsableForNewWork(const Container& c, Seconds now) const {
  if (!c.UsableAt(now)) return false;
  // Inside the reclaim-notice window the container only drains: running
  // work may finish, but no new work starts on a doomed VM.
  return now < c.preempt_at() - preempt_notice_ - 1e-9;
}

AcquireOutcome Cluster::AcquireUsable(int n, Seconds now) {
  AcquireOutcome out;
  if (n <= 0) return out;
  ReapExpired(now);
  for (auto& c : alive_) {
    if (UsableForNewWork(*c, now)) {
      if (static_cast<int>(out.usable.size()) < n) out.usable.push_back(c.get());
    } else if (c->AliveAt(now) && now < c->usable_at() - 1e-9) {
      ++out.booting;
    }
  }
  int covered = static_cast<int>(out.usable.size()) + out.booting;
  for (int shortfall = n - covered; shortfall > 0; --shortfall) {
    if (static_cast<int>(alive_.size()) >= max_containers_) {
      ++ledger_.acquire_requests;
      ++ledger_.denied_capacity;
      ++out.denied_capacity;
      continue;
    }
    // The very first container of an empty fleet is exempt from the quota
    // draw: the injected throttle models the provider slowing *scale-out*,
    // never refusing the service its first VM.
    bool exempt = alive_.empty();
    uint64_t request_index = static_cast<uint64_t>(ledger_.acquire_requests);
    ++ledger_.acquire_requests;
    if (!exempt && faults_ != nullptr && faults_->AcquireDenied(request_index)) {
      ++ledger_.denied_quota;
      ++out.denied_quota;
      continue;
    }
    Container* fresh = AllocateFresh(now);
    if (UsableForNewWork(*fresh, now)) {
      out.usable.push_back(fresh);
    } else {
      // Paid for but still booting (or already doomed): in-flight coverage.
      ++out.booting;
    }
  }
  return out;
}

int Cluster::DrainIdleAbove(int target) {
  if (target < 0) target = 0;
  int released = 0;
  while (static_cast<int>(alive_.size()) > target) {
    // Release the container whose lease renews soonest: it is the one about
    // to charge another idle quantum.
    size_t victim = 0;
    for (size_t i = 1; i < alive_.size(); ++i) {
      if (alive_[i]->lease_end() < alive_[victim]->lease_end()) victim = i;
    }
    alive_.erase(alive_.begin() + static_cast<ptrdiff_t>(victim));
    ++ledger_.released_idle;
    ++ledger_.drained;
    ++released;
  }
  return released;
}

void Cluster::RemoveFailed(const Container* container, bool preempted) {
  for (size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i].get() == container) {
      alive_.erase(alive_.begin() + static_cast<ptrdiff_t>(i));
      if (preempted) {
        ++ledger_.preempted;
      } else {
        ++ledger_.crashed;
      }
      return;
    }
  }
}

void Cluster::ChargeThrough(Container* container, Seconds t) {
  total_quanta_ += container->ExtendLeaseTo(t);
}

void Cluster::KeepAlive(Seconds now) {
  for (auto& c : alive_) {
    if (c->preempt_at() <= now + 1e-9) continue;
    total_quanta_ += c->ExtendLeaseTo(now);
  }
}

int Cluster::ReapExpired(Seconds now) {
  int before = static_cast<int>(alive_.size());
  alive_.erase(
      std::remove_if(alive_.begin(), alive_.end(),
                     [this, now](const std::unique_ptr<Container>& c) {
                       // A reclaim that struck before the lease end takes the
                       // container even if the lease itself is still paid.
                       if (c->preempt_at() <= now + 1e-9 &&
                           c->preempt_at() < c->lease_end() - 1e-9) {
                         ++ledger_.preempted;
                         return true;
                       }
                       if (!c->AliveAt(now)) {
                         ++ledger_.released_idle;
                         return true;
                       }
                       return false;
                     }),
      alive_.end());
  return before - static_cast<int>(alive_.size());
}

int Cluster::AliveCount(Seconds now) const {
  int n = 0;
  for (const auto& c : alive_) {
    if (c->AliveAt(now)) ++n;
  }
  return n;
}

int Cluster::UsableCount(Seconds now) const {
  int n = 0;
  for (const auto& c : alive_) {
    if (UsableForNewWork(*c, now)) ++n;
  }
  return n;
}

Cluster::State Cluster::SaveState() const {
  State s;
  s.next_id = next_id_;
  s.total_quanta = total_quanta_;
  s.ledger = ledger_;
  s.containers.reserve(alive_.size());
  for (const auto& c : alive_) s.containers.push_back(*c);
  return s;
}

void Cluster::RestoreState(const State& s) {
  next_id_ = s.next_id;
  total_quanta_ = s.total_quanta;
  ledger_ = s.ledger;
  alive_.clear();
  alive_.reserve(s.containers.size());
  for (const auto& c : s.containers) {
    alive_.push_back(std::make_unique<Container>(c));
  }
}

Seconds Cluster::NextUsableAt(Seconds now) const {
  Seconds next = kNeverFails;
  for (const auto& c : alive_) {
    if (!c->AliveAt(now) || now >= c->usable_at() - 1e-9) continue;
    // Only count boots that land outside the reclaim-notice window: a
    // container doomed before it finishes booting never becomes usable.
    if (c->usable_at() >= c->preempt_at() - preempt_notice_ - 1e-9) continue;
    next = std::min(next, c->usable_at());
  }
  return next;
}

}  // namespace dfim
