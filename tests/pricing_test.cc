#include "lp/pricing.h"

#include <gtest/gtest.h>

#include <vector>

#include "lp/model.h"

namespace privsan {
namespace lp {
namespace {

constexpr double kInf = kInfinity;

// Columns 0..7: basic, fixed, at-lower (d < 0 and d > 0), at-upper (d > 0
// and d < 0), free (d < 0 and d > 0).
struct Columns {
  std::vector<double> d = {-9.0, -9.0, -2.0, 3.0, 2.0, -3.0, -1.0, 1.5};
  std::vector<VarStatus> state = {
      VarStatus::kBasic,   VarStatus::kAtLower, VarStatus::kAtLower,
      VarStatus::kAtLower, VarStatus::kAtUpper, VarStatus::kAtUpper,
      VarStatus::kFree,    VarStatus::kFree};
  std::vector<double> lower = {0, 1, 0, 0, 0, 0, -kInf, -kInf};
  std::vector<double> upper = {kInf, 1, kInf, kInf, 5, 5, kInf, kInf};
  PricingView view() const { return {d, state, lower, upper, 1e-7}; }
};

TEST(PrimalPricerTest, FullScanTakesLargestDevexScoreAmongEligible) {
  Columns c;
  PrimalPricer pricer(8);
  // Eligible: 2 (lower, d<0), 4 (upper, d>0), 6 and 7 (free). Basic 0 and
  // fixed 1 price -9 but never enter; 3 and 5 point the wrong way.
  PrimalPricer::Choice choice = pricer.ChooseEntering(c.view(), false);
  EXPECT_EQ(choice.entering, 2);  // |d| = 2 ties with column 4: first wins
  EXPECT_EQ(choice.sign, +1);

  c.d[4] = 2.5;
  choice = pricer.ChooseEntering(c.view(), false);
  EXPECT_EQ(choice.entering, 4);
  EXPECT_EQ(choice.sign, -1);

  c.d[7] = 2.6;  // a free column with d > 0 decreases
  choice = pricer.ChooseEntering(c.view(), false);
  EXPECT_EQ(choice.entering, 7);
  EXPECT_EQ(choice.sign, -1);
  c.d[6] = -2.7;
  choice = pricer.ChooseEntering(c.view(), false);
  EXPECT_EQ(choice.entering, 6);
  EXPECT_EQ(choice.sign, +1);
}

TEST(PrimalPricerTest, DevexWeightsScaleTheScore) {
  Columns c;
  PrimalPricer pricer(8);
  // A pivot with entering 6, leaving 0 and pivot 0.5 whose row touches
  // column 2 with alpha 2: gamma_2 = (2 / 0.5)^2 * gamma_6 = 16.
  std::vector<SparseAccumCell> alpha(8);
  alpha[2].value = 2.0;
  const std::vector<int> touched = {2};
  pricer.OnPivot(c.view(), 6, 0, 0.5, touched, alpha);
  // Column 2 now scores 4 / 16; column 4 (d = 2, gamma 1) scores 4.
  PrimalPricer::Choice choice = pricer.ChooseEntering(c.view(), false);
  EXPECT_EQ(choice.entering, 4);
  pricer.ResetReference();
  EXPECT_EQ(pricer.ChooseEntering(c.view(), false).entering, 2);
}

TEST(PrimalPricerTest, TolerancesAndNoImprovingColumn) {
  Columns c;
  PrimalPricer pricer(8);
  for (double& v : c.d) v = v < 0 ? -1e-8 : 1e-8;  // inside optimality_tol
  EXPECT_EQ(pricer.ChooseEntering(c.view(), false).entering, -1);
  EXPECT_EQ(pricer.ChooseEntering(c.view(), true).entering, -1);
}

TEST(PrimalPricerTest, BlandTakesFirstImprovingIndex) {
  Columns c;
  PrimalPricer pricer(8);
  PrimalPricer::Choice choice = pricer.ChooseEntering(c.view(), true);
  EXPECT_EQ(choice.entering, 2);
  c.d[2] = 0.0;
  choice = pricer.ChooseEntering(c.view(), true);
  EXPECT_EQ(choice.entering, 4);  // not the larger-scoring free columns
  EXPECT_EQ(choice.sign, -1);
}

}  // namespace
}  // namespace lp
}  // namespace privsan
