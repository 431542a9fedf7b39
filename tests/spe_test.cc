#include "core/spe.h"

#include <gtest/gtest.h>

#include "core/ump.h"
#include "lp/branch_and_bound.h"
#include "rng/random.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

lp::BipProblem MakeProblem(int rows,
                           std::vector<std::vector<lp::SparseEntry>> cols,
                           std::vector<double> rhs) {
  lp::BipProblem problem;
  problem.num_rows = rows;
  problem.columns = std::move(cols);
  problem.rhs = std::move(rhs);
  return problem;
}

TEST(SpeTest, KeepsEverythingWhenFeasible) {
  lp::BipProblem p =
      MakeProblem(1, {{{0, 0.2}}, {{0, 0.3}}, {{0, 0.4}}}, {1.0});
  lp::BipSolution s = SolveSpe(p).value();
  EXPECT_EQ(s.selected, 3);
}

TEST(SpeTest, EliminatesLargestCoefficientFirst) {
  // Row load 1.5 > 1.0; the 0.9 entry must go first, which already fixes
  // the row: 0.6 <= 1.0.
  lp::BipProblem p =
      MakeProblem(1, {{{0, 0.9}}, {{0, 0.3}}, {{0, 0.3}}}, {1.0});
  lp::BipSolution s = SolveSpe(p).value();
  EXPECT_EQ(s.selected, 2);
  EXPECT_EQ(s.y[0], 0);
  EXPECT_EQ(s.y[1], 1);
  EXPECT_EQ(s.y[2], 1);
}

TEST(SpeTest, SkipsEntriesOfSatisfiedRows) {
  // Row 0 satisfied from the start; its big coefficient must not trigger
  // an elimination. Row 1 violated by small entries.
  lp::BipProblem p = MakeProblem(
      2, {{{0, 0.9}}, {{1, 0.4}}, {{1, 0.4}}, {{1, 0.4}}}, {1.0, 1.0});
  lp::BipSolution s = SolveSpe(p).value();
  EXPECT_EQ(s.y[0], 1);  // untouched: row 0 was never violated
  EXPECT_EQ(s.selected, 3);
  EXPECT_TRUE(p.IsFeasible(s.y));
}

TEST(SpeTest, TwoUserAnalyticCase) {
  // From the D-UMP derivation on TwoUserSharedLog with B = log 2:
  // eliminating q1 (bob's t = 2.5 is the max coefficient) makes both rows
  // feasible; retained = 1, which is also the exact optimum.
  SearchLog log = testing_fixtures::TwoUserSharedLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  lp::BipProblem problem = BuildDumpBip(log, params).value();
  lp::BipSolution s = SolveSpe(problem).value();
  EXPECT_EQ(s.selected, 1);
  PairId q2 = *log.FindPair("q2", "u2");
  EXPECT_EQ(s.y[q2], 1);
}

TEST(SpeTest, ResultAlwaysFeasible) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    SearchLog log = testing_fixtures::SmallSyntheticLog(seed);
    lp::BipProblem problem =
        BuildDumpBip(log, PrivacyParams::FromEEpsilon(1.4, 0.1)).value();
    lp::BipSolution s = SolveSpe(problem).value();
    EXPECT_TRUE(problem.IsFeasible(s.y)) << "seed " << seed;
  }
}

TEST(SpeTest, NeverBeatsExactOptimum) {
  Rng rng(99);
  for (int trial = 0; trial < 4; ++trial) {
    lp::BipProblem problem;
    problem.num_rows = 3;
    problem.rhs = {1.0, 1.2, 0.8};
    problem.columns.resize(10);
    for (auto& column : problem.columns) {
      for (int r = 0; r < 3; ++r) {
        if (rng.NextBool(0.6)) {
          column.push_back(lp::SparseEntry{r, rng.NextDouble(0.1, 0.9)});
        }
      }
    }
    lp::BipSolution spe = SolveSpe(problem).value();
    lp::LpModel model = problem.ToLpModel();
    ASSERT_TRUE(model.Validate().ok());
    lp::BnbResult exact = SolveBranchAndBound(model);
    ASSERT_TRUE(exact.proven_optimal);
    EXPECT_LE(static_cast<double>(spe.selected), exact.objective + 1e-6);
    EXPECT_TRUE(problem.IsFeasible(spe.y));
  }
}

TEST(SpeTest, MoreBudgetRetainsMorePairs) {
  SearchLog log = testing_fixtures::SmallSyntheticLog();
  int64_t prev = 0;
  for (double e_eps : {1.01, 1.1, 1.4, 2.0}) {
    lp::BipProblem problem =
        BuildDumpBip(log, PrivacyParams::FromEEpsilon(e_eps, 0.1)).value();
    lp::BipSolution s = SolveSpe(problem).value();
    EXPECT_GE(s.selected, prev);
    prev = s.selected;
  }
}

TEST(SpeTest, DeterministicTieBreak) {
  // Equal weights: elimination order must be deterministic (smaller index
  // eliminated first on ties), so repeated runs agree.
  lp::BipProblem p =
      MakeProblem(1, {{{0, 0.5}}, {{0, 0.5}}, {{0, 0.5}}}, {1.0});
  lp::BipSolution a = SolveSpe(p).value();
  lp::BipSolution b = SolveSpe(p).value();
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.selected, 2);
}

}  // namespace
}  // namespace privsan
