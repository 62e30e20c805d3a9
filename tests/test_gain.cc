#include "core/gain.h"

#include <gtest/gtest.h>

namespace dfim {
namespace {

GainModel Model(double alpha = 0.5, double d = 1.0, double w = 2.0) {
  GainOptions o;
  o.alpha = alpha;
  o.fade_d_quanta = d;
  o.storage_window_quanta = w;
  return GainModel(o, PricingModel{});
}

TEST(GainModelTest, FadeIsExponential) {
  GainModel m = Model(0.5, 2.0);
  EXPECT_DOUBLE_EQ(m.Fade(0), 1.0);
  EXPECT_NEAR(m.Fade(2.0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(m.Fade(4.0), std::exp(-2.0), 1e-12);
  EXPECT_LT(m.Fade(100), 1e-20);
}

TEST(GainModelTest, StorageCostInMoneyQuanta) {
  GainModel m = Model();
  // 1000 MB for W=2 quanta at 1e-4 $/MB/q = $0.2 = 2 money-quanta at Mc=0.1.
  EXPECT_NEAR(m.StorageCostQuanta(1000), 2.0, 1e-12);
}

TEST(GainModelTest, NoUsesMeansNonBeneficial) {
  GainModel m = Model();
  IndexGains g = m.Evaluate({}, 1.0, 1.0, 100.0);
  EXPECT_LT(g.gt, 0);
  EXPECT_LT(g.gm, 0);
  EXPECT_FALSE(g.beneficial);
  EXPECT_TRUE(g.deletable);
}

TEST(GainModelTest, FreshUseMakesBeneficial) {
  GainModel m = Model();
  // One current dataflow gains 5 quanta; build takes 1 quantum; 100 MB.
  IndexGains g = m.Evaluate({{5.0, 5.0, 0.0}}, 1.0, 1.0, 100.0);
  EXPECT_NEAR(g.gt, 4.0, 1e-12);
  // Storage: 100 MB over W=2 quanta at 1e-4/Mc=0.1 -> 0.2 money-quanta.
  EXPECT_NEAR(g.gm, 5.0 - 1.0 - 0.2, 1e-12);
  EXPECT_TRUE(g.beneficial);
  EXPECT_FALSE(g.deletable);
  // Eq. 3: g = Mc * (α·gt + (1-α)·gm).
  EXPECT_NEAR(g.g, 0.1 * (0.5 * g.gt + 0.5 * g.gm), 1e-12);
}

TEST(GainModelTest, OldUsesFadeAway) {
  GainModel m = Model(0.5, /*D=*/1.0);
  IndexGains fresh = m.Evaluate({{5, 5, 0}}, 0.5, 0.5, 10);
  IndexGains stale = m.Evaluate({{5, 5, 10.0}}, 0.5, 0.5, 10);
  EXPECT_TRUE(fresh.beneficial);
  EXPECT_FALSE(stale.beneficial);
  EXPECT_LT(stale.gt, fresh.gt);
}

TEST(GainModelTest, MixedStateNeitherBeneficialNorDeletable) {
  GainModel m = Model();
  // Positive time gain but storage cost sinks the money side.
  IndexGains g = m.Evaluate({{2.0, 2.0, 0}}, 1.0, 1.0, 100000.0);
  EXPECT_GT(g.gt, 0);
  EXPECT_LT(g.gm, 0);
  EXPECT_FALSE(g.beneficial);
  EXPECT_FALSE(g.deletable);
}

TEST(GainModelTest, AlphaShiftsWeight) {
  GainModel time_heavy = Model(1.0);
  GainModel money_heavy = Model(0.0);
  std::vector<GainContribution> uses{{10, 1, 0}};
  IndexGains t = time_heavy.Evaluate(uses, 1, 1, 10);
  IndexGains mny = money_heavy.Evaluate(uses, 1, 1, 10);
  EXPECT_NEAR(t.g, 0.1 * t.gt, 1e-12);
  EXPECT_NEAR(mny.g, 0.1 * mny.gm, 1e-12);
}

// Reproduces the paper's Fig. 3 dynamics: Table 2 dataflows, α=0.5, D=60.
class Fig3Example : public ::testing::Test {
 protected:
  struct Use {
    double t;   // dataflow time point
    double gt;  // gtd for the index
    double gm;  // gmd for the index
  };

  // Evaluate index gain at time `now`, folding Table 2 dataflows that have
  // already been issued.
  IndexGains At(const std::vector<Use>& uses, double now,
                MegaBytes size_mb) const {
    GainOptions o;
    o.alpha = 0.5;
    o.fade_d_quanta = 60.0;
    o.storage_window_quanta = 2.0;
    GainModel m(o, PricingModel{});
    std::vector<GainContribution> contribs;
    for (const auto& u : uses) {
      if (u.t <= now) contribs.push_back({u.gt, u.gm, now - u.t});
    }
    // Build effort calibrated so B's beneficial window is [~30, ~125] as in
    // the paper's walkthrough of Fig. 3.
    return m.Evaluate(contribs, 1.4, 1.4, size_mb);
  }

  // Table 2: index B used by d1(t=10), d2(t=30), d3(t=50).
  std::vector<Use> b_uses_{{10, 1.0, 3.0}, {30, 2.0, 5.0}, {50, 3.0, 8.0}};
  // Index A used by d3(t=50), d4(t=100).
  std::vector<Use> a_uses_{{50, 2.0, 8.0}, {100, 3.0, 5.0}};
};

TEST_F(Fig3Example, NegativeBeforeFirstUse) {
  IndexGains b0 = At(b_uses_, 5, 500);
  EXPECT_FALSE(b0.beneficial);
  IndexGains a0 = At(a_uses_, 5, 100);
  EXPECT_FALSE(a0.beneficial);
}

TEST_F(Fig3Example, BBecomesBeneficialAroundT30) {
  EXPECT_FALSE(At(b_uses_, 15, 500).beneficial);
  EXPECT_TRUE(At(b_uses_, 30, 500).beneficial);
  EXPECT_TRUE(At(b_uses_, 60, 500).beneficial);
}

TEST_F(Fig3Example, BStopsBeingBeneficialNearT125) {
  // The paper: "index B becomes beneficial at time point 30 and will be
  // deleted at time point 125 where it stops being useful."
  EXPECT_TRUE(At(b_uses_, 100, 500).beneficial);
  EXPECT_FALSE(At(b_uses_, 140, 500).beneficial);
}

TEST_F(Fig3Example, GainDecaysAfterLastUse) {
  double g60 = At(b_uses_, 60, 500).g;
  double g90 = At(b_uses_, 90, 500).g;
  double g120 = At(b_uses_, 120, 500).g;
  EXPECT_GT(g60, g90);
  EXPECT_GT(g90, g120);
}

}  // namespace
}  // namespace dfim
