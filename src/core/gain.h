#ifndef DFIM_CORE_GAIN_H_
#define DFIM_CORE_GAIN_H_

#include <cmath>
#include <string>
#include <vector>

#include "cloud/pricing.h"
#include "common/units.h"

namespace dfim {

/// \brief Parameters of the online gain model (paper §4, Table 1).
struct GainOptions {
  /// α ∈ [0,1]: how much a time quantum is valued vs money (Table 3: 0.5).
  double alpha = 0.5;
  /// D: fading controller of dc(t) = e^(-t/D), in quanta (Table 3: 1).
  double fade_d_quanta = 1.0;
  /// W: storage window charged when assessing an index, in quanta
  /// (paper §4: "a time window of predefined size W (e.g., two quanta)").
  double storage_window_quanta = 2.0;
  /// Paper future work ("automatic learning of the index gain fading
  /// controller... for each individual index"): when true, the tuner fits
  /// each index's D to its observed inter-reference gap, so sparsely but
  /// regularly used indexes are not faded into deletion between uses.
  bool adaptive_fading = false;
};

/// Upper clamp for the learned per-index D (quanta) under adaptive fading.
inline constexpr double kAdaptiveFadingMaxQuanta = 50.0;

/// \brief One related dataflow's contribution to an index's gain: the
/// realized (or what-if) per-dataflow gains gtd/gmd and how long ago the
/// dataflow ran (0 for running/queued ones).
struct GainContribution {
  double gtd_quanta = 0;
  double gmd_quanta = 0;
  double delta_t_quanta = 0;
};

/// \brief Evaluated usefulness of one index at one time point.
struct IndexGains {
  /// gt(idx, t): Eq. 5, in quanta.
  double gt = 0;
  /// gm(idx, t): Eq. 4, in money-quanta (dollars / Mc).
  double gm = 0;
  /// g(idx, t): Eq. 3 weighted gain, in dollars.
  double g = 0;
  /// Beneficial iff gt > 0 and gm > 0 (Algorithm 1, line 5).
  bool beneficial = false;
  /// Deletable iff gt <= 0 and gm <= 0 (Algorithm 1, line 16).
  bool deletable = false;
};

/// \brief Implements Equations 3-5: exponential fading of historical
/// dataflow gains minus the index's build time, build cost and storage
/// cost over the window W.
class GainModel {
 public:
  GainModel(GainOptions options, PricingModel pricing)
      : opts_(options), pricing_(pricing) {}

  /// Fading function dc(t) = e^(-t / D), t in quanta. A positive
  /// `d_override` substitutes a learned per-index controller.
  double Fade(double delta_t_quanta, double d_override = 0) const {
    double d = d_override > 0 ? d_override : opts_.fade_d_quanta;
    return std::exp(-delta_t_quanta / d);
  }

  /// Storage cost of keeping `size_mb` for the window W, in money-quanta.
  double StorageCostQuanta(MegaBytes size_mb) const {
    return opts_.storage_window_quanta * size_mb *
           pricing_.storage_price_per_mb_per_quantum /
           pricing_.vm_price_per_quantum;
  }

  /// \brief Evaluates an index.
  ///
  /// \param uses contributions of related dataflows in the window
  ///        (including the currently issued one at delta_t = 0).
  /// \param build_time_quanta ti(idx): time to build the missing partitions.
  /// \param build_cost_quanta mi(idx): compute cost to build them (equals
  ///        ti in a serial build; callers may pass 0 for idle-slot builds
  ///        whose compute is already paid for — we keep the paper's
  ///        conservative accounting and pass ti).
  /// \param size_mb full index size, charged for W.
  /// `fade_d_override` > 0 applies a per-index learned fading controller.
  IndexGains Evaluate(const std::vector<GainContribution>& uses,
                      double build_time_quanta, double build_cost_quanta,
                      MegaBytes size_mb, double fade_d_override = 0) const;

  const GainOptions& options() const { return opts_; }
  const PricingModel& pricing() const { return pricing_; }

 private:
  GainOptions opts_;
  PricingModel pricing_;
};

}  // namespace dfim

#endif  // DFIM_CORE_GAIN_H_
