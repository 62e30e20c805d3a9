#include "cloud/pricing.h"

namespace dfim {

PricingModel PricingModel::FromMonthlyStoragePrice(Dollars per_gb_per_month,
                                                   Seconds quantum,
                                                   Dollars vm_price_per_quantum) {
  PricingModel m;
  m.vm_price_per_quantum = vm_price_per_quantum;
  // Paper: Mst = (MC * 12 * Q) / (365.25 * 24 * 60), Q in minutes, MC per GB.
  double q_minutes = quantum / 60.0;
  double per_gb = per_gb_per_month * 12.0 * q_minutes / (365.25 * 24.0 * 60.0);
  m.storage_price_per_mb_per_quantum = per_gb / 1024.0;
  return m;
}

}  // namespace dfim
