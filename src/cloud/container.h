#ifndef DFIM_CLOUD_CONTAINER_H_
#define DFIM_CLOUD_CONTAINER_H_

#include <cstdint>
#include <limits>
#include <memory>

#include "cloud/lru_cache.h"
#include "common/units.h"

namespace dfim {

/// \brief Fixed hardware capacity of one VM/container (paper §3, §6.1).
///
/// The paper assumes homogeneous containers: 1 CPU, one local disk of
/// 100 GB at 250 MB/s (typical SSD), and 1 Gbps network (= 125 MB/s). The
/// container models the disk's capacity (the local cache); the network
/// rate is `SchedulerOptions::net_mb_per_sec`, and CPU and disk speed are
/// folded into the operator cost model.
struct ContainerSpec {
  MegaBytes disk = 100.0 * 1024.0;
};

/// \brief A leased VM with quantum accounting and a local-disk LRU cache.
///
/// Lease time is pre-paid in whole `quantum`-second quanta starting at
/// `lease_start`. The container is alive until the end of the last charged
/// quantum; extending the lease past that boundary charges further quanta.
/// When a container is deleted, its local disk (cache) is lost (paper §3:
/// files on local disk cannot be recovered).
class Container {
 public:
  Container(int id, const ContainerSpec& spec, Seconds quantum,
            Seconds lease_start);

  int id() const { return id_; }

  Seconds lease_start() const { return lease_start_; }
  /// End of the last charged quantum.
  Seconds lease_end() const;
  int64_t quanta_charged() const { return quanta_charged_; }

  /// \brief Ensures the lease covers time `t`, charging new quanta as needed.
  ///
  /// Returns the number of quanta newly charged.
  int64_t ExtendLeaseTo(Seconds t);

  /// True when `t` is strictly before the lease end.
  bool AliveAt(Seconds t) const { return t < lease_end() - 1e-9; }

  /// End of the quantum containing `t` (for preemption at quantum expiry).
  Seconds QuantumEndAt(Seconds t) const;

  /// \name Provider control-plane state (elastic fleet, DESIGN.md §13).
  ///
  /// `usable_at` is the instant the container finishes booting: billing
  /// starts at `lease_start` (the lease is pre-paid), but the scheduler
  /// may not place work on it earlier. `preempt_at` is the pre-drawn spot
  /// reclaim instant (absolute time; +inf when the provider never takes
  /// the VM back). Both default to the benign values, so code that never
  /// sets them sees exactly the pre-elastic container.
  /// @{
  Seconds usable_at() const { return usable_at_; }
  void set_usable_at(Seconds t) { usable_at_ = t; }
  Seconds preempt_at() const { return preempt_at_; }
  void set_preempt_at(Seconds t) { preempt_at_ = t; }
  /// True when `t` is inside the lease, past boot, and before the reclaim.
  bool UsableAt(Seconds t) const {
    return AliveAt(t) && t >= usable_at_ - 1e-9 && t < preempt_at_ - 1e-9;
  }
  /// @}

  LruCache& cache() { return cache_; }
  const LruCache& cache() const { return cache_; }

 private:
  int id_;
  Seconds quantum_;
  Seconds lease_start_;
  int64_t quanta_charged_ = 0;
  Seconds usable_at_ = 0;
  Seconds preempt_at_ = std::numeric_limits<double>::infinity();
  LruCache cache_;
};

}  // namespace dfim

#endif  // DFIM_CLOUD_CONTAINER_H_
