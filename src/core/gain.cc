#include "core/gain.h"

namespace dfim {

IndexGains GainModel::Evaluate(const std::vector<GainContribution>& uses,
                               double build_time_quanta,
                               double build_cost_quanta, MegaBytes size_mb,
                               double fade_d_override) const {
  IndexGains out;
  double gt_sum = 0;
  double gm_sum = 0;
  for (const auto& u : uses) {
    double w = Fade(u.delta_t_quanta, fade_d_override);
    gt_sum += w * u.gtd_quanta;
    gm_sum += w * u.gmd_quanta;
  }
  out.gt = gt_sum - build_time_quanta;                           // Eq. 5
  out.gm = gm_sum - (build_cost_quanta + StorageCostQuanta(size_mb));  // Eq. 4
  // Eq. 3: g = α·Mc·gt + (1-α)·gm, with gm in dollars = Mc·gm_quanta.
  out.g = pricing_.vm_price_per_quantum *
          (opts_.alpha * out.gt + (1.0 - opts_.alpha) * out.gm);
  out.beneficial = out.gt > 0 && out.gm > 0;
  out.deletable = out.gt <= 0 && out.gm <= 0;
  return out;
}

}  // namespace dfim
