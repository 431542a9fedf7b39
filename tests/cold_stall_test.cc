// Regression tests for the medium logs on which the cold primal simplex
// used to stall to the iteration limit. Each log is generated from
// BenchScaleConfig() with the seed perfbench's Mix(seed, log) produces,
// and solved as O-UMP at (e^eps, delta) = (2, 0.5) with the default cap.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/audit.h"
#include "core/constraints.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "synth/generator.h"

namespace privsan {
namespace {

SearchLog StallLog(uint64_t seed) {
  SyntheticLogConfig config = BenchScaleConfig();
  config.seed = seed;
  return RemoveUniquePairs(GenerateSearchLog(config).value()).log;
}

UmpSolution SolveOump(const SearchLog& log, lp::SimplexOptions simplex) {
  DpConstraintSystem system = DpConstraintSystem::BuildRows(log).value();
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(2.0, 0.5);
  return MakeOumpProblem(log, &system, {}, simplex).value()->Solve(query)
      .value();
}

void ExpectSolvesCleanly(uint64_t seed) {
  const SearchLog log = StallLog(seed);
  const UmpSolution solution = SolveOump(log, {});
  EXPECT_LE(solution.stats.simplex_iterations, 10000);
  EXPECT_EQ(solution.stats.basis_repairs, 0);
  const AuditReport audit =
      AuditSolution(log, PrivacyParams::FromEEpsilon(2.0, 0.5), solution.x)
          .value();
  EXPECT_TRUE(audit.satisfies_privacy) << audit.ToString();

  // The dense explicit inverse takes a different pivot path to the same
  // optimum.
  lp::SimplexOptions dense;
  dense.basis_kind = lp::SimplexOptions::BasisKind::kDense;
  const UmpSolution reference = SolveOump(log, dense);
  EXPECT_NEAR(solution.objective_value, reference.objective_value, 1e-6);
}

TEST(ColdStallTest, Seed14Log2) { ExpectSolvesCleanly(0x99cc5985c17c7ff9ULL); }
TEST(ColdStallTest, Seed23Log2) { ExpectSolvesCleanly(0x970ca004328205c3ULL); }
TEST(ColdStallTest, Seed1Log18) { ExpectSolvesCleanly(0x5e1f07fc9450c1beULL); }

}  // namespace
}  // namespace privsan
