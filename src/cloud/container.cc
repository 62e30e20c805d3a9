#include "cloud/container.h"

#include <cmath>

namespace dfim {

Container::Container(int id, const ContainerSpec& spec, Seconds quantum,
                     Seconds lease_start)
    : id_(id),
      quantum_(quantum),
      lease_start_(lease_start),
      cache_(spec.disk) {
  // A freshly allocated container is charged its first quantum immediately:
  // resources are pre-paid (paper §3).
  quanta_charged_ = 1;
  // Usable from the lease start unless a boot delay is injected later.
  usable_at_ = lease_start;
}

Seconds Container::lease_end() const {
  return lease_start_ + static_cast<double>(quanta_charged_) * quantum_;
}

int64_t Container::ExtendLeaseTo(Seconds t) {
  if (t <= lease_end()) return 0;
  int64_t needed = QuantaCeil(t - lease_start_, quantum_);
  if (needed <= quanta_charged_) return 0;
  int64_t added = needed - quanta_charged_;
  quanta_charged_ = needed;
  return added;
}

Seconds Container::QuantumEndAt(Seconds t) const {
  if (t <= lease_start_) return lease_start_ + quantum_;
  double offset = (t - lease_start_) / quantum_;
  // A t exactly on a boundary belongs to the quantum that starts at t.
  double idx = std::floor(offset + 1e-9);
  return lease_start_ + (idx + 1.0) * quantum_;
}

}  // namespace dfim
