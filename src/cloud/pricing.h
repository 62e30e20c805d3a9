#ifndef DFIM_CLOUD_PRICING_H_
#define DFIM_CLOUD_PRICING_H_

#include <cstdint>

#include "common/units.h"

namespace dfim {

/// \brief The provider's pricing policy (paper §3, Cloud Model).
///
/// Compute is pre-paid per whole time quantum `Q` at `Mc` dollars per
/// quantum; storage is charged per MB per quantum at `Mst`. The paper plugs
/// the pricing model into the scheduler, so everything that needs prices
/// takes a PricingModel value — swap it to model a different provider.
/// The quantum itself is `SchedulerOptions::quantum`, the one quantum the
/// skyline plans, the fleet leases and the storage service bills against.
struct PricingModel {
  /// VM price `Mc` per quantum in dollars (default $0.1, Table 3).
  Dollars vm_price_per_quantum = 0.1;
  /// Storage price `Mst` per MB per quantum (default $1e-4, Table 3).
  Dollars storage_price_per_mb_per_quantum = 1e-4;

  /// \brief Derives `Mst` from a per-GB-per-month price, per the paper:
  /// `Mst = (MC * 12 * Q) / (365.25 * 24 * 60)` with Q in minutes, for the
  /// quantum `quantum` the scheduler plans with.
  static PricingModel FromMonthlyStoragePrice(Dollars per_gb_per_month,
                                              Seconds quantum,
                                              Dollars vm_price_per_quantum);

  /// Dollars for leasing one VM for `quanta` quanta.
  Dollars VmCost(int64_t quanta) const {
    return vm_price_per_quantum * static_cast<double>(quanta);
  }

  /// Dollars for storing `size` MB for `quanta` quanta.
  Dollars StorageCost(MegaBytes size, double quanta) const {
    return storage_price_per_mb_per_quantum * size * quanta;
  }
};

}  // namespace dfim

#endif  // DFIM_CLOUD_PRICING_H_
