#include <gtest/gtest.h>

#include <cmath>

#include "core/audit.h"
#include "core/ump.h"
#include "metrics/utility_metrics.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::SmallSyntheticLog;
using testing_fixtures::SolveCold;
using testing_fixtures::SolveOumpCold;
using testing_fixtures::TwoUserSharedLog;

// One cold F-UMP solve of output size `size` at `params`.
Result<UmpSolution> ColdFump(const SearchLog& log, const PrivacyParams& params,
                             uint64_t size, double min_support) {
  return SolveCold(MakeFumpProblem, log, {params, size},
                   FumpSpec{.min_support = min_support});
}

TEST(FumpTest, RequiresOutputSize) {
  EXPECT_EQ(
      ColdFump(TwoUserSharedLog(), PrivacyParams{1.0, 0.5}, 0, 1.0 / 500)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(FumpTest, RejectsBadSupport) {
  EXPECT_FALSE(
      ColdFump(TwoUserSharedLog(), PrivacyParams{1.0, 0.5}, 1, 0.0).ok());
  EXPECT_FALSE(
      ColdFump(TwoUserSharedLog(), PrivacyParams{1.0, 0.5}, 1, 1.5).ok());
}

TEST(FumpTest, FrequentPairsDetection) {
  SearchLog log = TwoUserSharedLog();
  // Supports: q1 = 10/16 = 0.625, q2 = 6/16 = 0.375.
  EXPECT_EQ(FrequentPairs(log, 0.5).size(), 1u);
  EXPECT_EQ(FrequentPairs(log, 0.3).size(), 2u);
  EXPECT_EQ(FrequentPairs(log, 0.7).size(), 0u);
}

TEST(FumpTest, TwoUserAnalyticOptimum) {
  // With B = 2 log 2 and |O| = 2, the only feasible point is x = (0, 2)
  // (see the derivation in the repo's test notes): bob's row forbids any
  // mass on q1 once |O| = 2 is required. Objective = 0.625 + 0.625 = 1.25.
  SearchLog log = TwoUserSharedLog();
  PairId q1 = *log.FindPair("q1", "u1");
  PairId q2 = *log.FindPair("q2", "u2");

  PrivacyParams params = PrivacyParams::FromEEpsilon(4.0, 0.75);
  // min_support 0.1: both pairs frequent.
  UmpSolution result = ColdFump(log, params, 2, 0.1).value();
  EXPECT_NEAR(result.objective_value, 1.25, 1e-6);
  EXPECT_NEAR(result.x_relaxed[q1], 0.0, 1e-7);
  EXPECT_NEAR(result.x_relaxed[q2], 2.0, 1e-7);
  EXPECT_EQ(result.x[q2], 2u);
}

TEST(FumpTest, InfeasibleWhenOutputSizeExceedsLambda) {
  SearchLog log = TwoUserSharedLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(4.0, 0.75);  // lambda = 2
  EXPECT_EQ(ColdFump(log, params, 3, 0.1).status().code(),
            StatusCode::kInfeasible);
}

TEST(FumpTest, SolutionSatisfiesConstraintsAndAudit) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const uint64_t size = SolveOumpCold(log, params).value().output_size / 2;
  ASSERT_GT(size, 0u);
  UmpSolution result = ColdFump(log, params, size, 1.0 / 100).value();

  DpConstraintSystem system = DpConstraintSystem::Build(log, params).value();
  EXPECT_TRUE(system.IsSatisfied(result.x));
  AuditReport audit = AuditSolution(log, params, result.x).value();
  EXPECT_TRUE(audit.satisfies_privacy) << audit.ToString();
}

TEST(FumpTest, RealizedSizeNearRequested) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const uint64_t size = SolveOumpCold(log, params).value().output_size / 2;
  UmpSolution result = ColdFump(log, params, size, 1.0 / 100).value();
  // Flooring loses at most one click per pair.
  EXPECT_LE(result.output_size, size);
  EXPECT_GE(result.output_size + log.num_pairs(), size);
}

TEST(FumpTest, PrecisionIsOne) {
  // Section 6.3: every pair frequent in the output was already frequent in
  // the input — reducing an infrequent pair's count toward its input
  // support can only improve the objective.
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const uint64_t size = SolveOumpCold(log, params).value().output_size / 2;
  for (double support : {1.0 / 50, 1.0 / 100, 1.0 / 250}) {
    UmpSolution result = ColdFump(log, params, size, support).value();
    PrecisionRecall pr = FrequentPairMetrics(log, result.x, support);
    EXPECT_DOUBLE_EQ(pr.precision, 1.0) << "s=" << support;
  }
}

TEST(FumpTest, RecallImprovesWithBudget) {
  SearchLog log = SmallSyntheticLog();
  const double support = 1.0 / 100;
  double prev_recall = -1.0;
  for (double e_eps : {1.01, 1.4, 2.3}) {
    PrivacyParams params = PrivacyParams::FromEEpsilon(e_eps, 0.5);
    const uint64_t lambda = SolveOumpCold(log, params).value().output_size;
    if (lambda == 0) continue;  // budget too tight for any output
    UmpSolution result =
        ColdFump(log, params, std::max<uint64_t>(1, lambda / 2), support)
            .value();
    PrecisionRecall pr = FrequentPairMetrics(log, result.x, support);
    EXPECT_GE(pr.recall, prev_recall - 0.1)  // allow small non-monotone noise
        << "e_eps=" << e_eps;
    prev_recall = pr.recall;
  }
}

TEST(FumpTest, ObjectiveIsSupportDistanceSum) {
  // The LP objective must equal the metric recomputed from the relaxed
  // solution.
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const uint64_t size = SolveOumpCold(log, params).value().output_size / 2;
  UmpSolution result = ColdFump(log, params, size, 1.0 / 100).value();

  const double total = static_cast<double>(log.total_clicks());
  double recomputed = 0.0;
  for (PairId f : result.frequent_pairs) {
    const double input_support = static_cast<double>(log.pair_total(f)) / total;
    const double output_support =
        result.x_relaxed[f] / static_cast<double>(size);
    recomputed += std::abs(output_support - input_support);
  }
  EXPECT_NEAR(recomputed, result.objective_value, 1e-6);
}

}  // namespace
}  // namespace privsan
