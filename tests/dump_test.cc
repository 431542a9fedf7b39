#include "core/ump.h"

#include <gtest/gtest.h>

#include "core/audit.h"
#include "metrics/utility_metrics.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::SmallSyntheticLog;
using testing_fixtures::SolveCold;
using testing_fixtures::TwoUserSharedLog;

// One cold D-UMP solve at `params`.
Result<UmpSolution> ColdDump(const SearchLog& log,
                             const PrivacyParams& params,
                             DumpSpec spec = {}) {
  return SolveCold(MakeDumpProblem, log, {params}, spec);
}

TEST(DumpTest, BuildBipShape) {
  SearchLog log = testing_fixtures::Figure1Preprocessed();
  lp::BipProblem problem =
      BuildDumpBip(log, PrivacyParams::FromEEpsilon(2.0, 0.5)).value();
  EXPECT_EQ(problem.num_vars(), 3);
  EXPECT_EQ(problem.num_rows, 3);
  EXPECT_TRUE(problem.Validate().ok());
}

TEST(DumpTest, RejectsUnpreprocessedLog) {
  EXPECT_FALSE(
      BuildDumpBip(testing_fixtures::Figure1Log(), PrivacyParams{1.0, 0.5})
          .ok());
}

TEST(DumpTest, AllSolversProduceFeasibleSolutions) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(1.7, 0.2);
  lp::BipProblem problem = BuildDumpBip(log, params).value();

  for (DumpSolverKind kind :
       {DumpSolverKind::kSpe, DumpSolverKind::kGreedy,
        DumpSolverKind::kLpRounding, DumpSolverKind::kBranchAndBound}) {
    DumpSpec spec;
    spec.solver = kind;
    spec.bnb.max_nodes = 30;  // budgeted exact solver
    spec.bnb.time_limit_seconds = 10;
    UmpSolution result = ColdDump(log, params, spec).value();
    std::vector<uint8_t> y(result.x.begin(), result.x.end());
    EXPECT_TRUE(problem.IsFeasible(y))
        << DumpSolverKindToString(kind);
    EXPECT_GT(result.output_size, 0u) << DumpSolverKindToString(kind);
    for (uint64_t v : result.x) EXPECT_LE(v, 1u);
  }
}

TEST(DumpTest, SolutionsPassAudit) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(1.4, 0.1);
  for (DumpSolverKind kind : {DumpSolverKind::kSpe, DumpSolverKind::kGreedy,
                              DumpSolverKind::kLpRounding}) {
    UmpSolution result =
        ColdDump(log, params, DumpSpec{.solver = kind}).value();
    AuditReport audit = AuditSolution(log, params, result.x).value();
    EXPECT_TRUE(audit.satisfies_privacy)
        << DumpSolverKindToString(kind) << ": " << audit.ToString();
  }
}

TEST(DumpTest, DiversityRatioConsistent) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  UmpSolution result = ColdDump(log, params).value();
  EXPECT_EQ(result.objective_value, static_cast<double>(result.output_size));
  EXPECT_NEAR(DiversityRatio(result.x),
              static_cast<double>(result.output_size) / log.num_pairs(),
              1e-12);
}

TEST(DumpTest, ExactSolverOptimalOnTinyInstance) {
  SearchLog log = TwoUserSharedLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const DumpSpec exact{.solver = DumpSolverKind::kBranchAndBound};
  UmpSolution result = ColdDump(log, params, exact).value();
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.output_size, 1u);
}

TEST(DumpTest, SpeMatchesExactOnTinyInstance) {
  SearchLog log = TwoUserSharedLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const DumpSpec spe{.solver = DumpSolverKind::kSpe};
  const DumpSpec exact{.solver = DumpSolverKind::kBranchAndBound};
  EXPECT_EQ(ColdDump(log, params, spe).value().output_size,
            ColdDump(log, params, exact).value().output_size);
}

TEST(DumpTest, DiversityMonotoneInBudget) {
  SearchLog log = SmallSyntheticLog();
  uint64_t prev = 0;
  for (double delta : {1e-3, 1e-2, 1e-1, 0.5}) {
    UmpSolution result =
        ColdDump(log, PrivacyParams::FromEEpsilon(2.0, delta)).value();
    EXPECT_GE(result.output_size, prev) << "delta=" << delta;
    prev = result.output_size;
  }
}

TEST(DumpTest, WallSecondsPopulated) {
  SearchLog log = SmallSyntheticLog();
  UmpSolution result =
      ColdDump(log, PrivacyParams::FromEEpsilon(2.0, 0.5)).value();
  EXPECT_GE(result.stats.wall_seconds, 0.0);
}

TEST(DumpTest, SolverKindNames) {
  EXPECT_STREQ(DumpSolverKindToString(DumpSolverKind::kSpe), "SPE");
  EXPECT_STREQ(DumpSolverKindToString(DumpSolverKind::kGreedy), "Greedy");
  EXPECT_STREQ(DumpSolverKindToString(DumpSolverKind::kLpRounding),
               "LP-round");
  EXPECT_STREQ(DumpSolverKindToString(DumpSolverKind::kBranchAndBound),
               "B&B");
}

}  // namespace
}  // namespace privsan
