// Shared fixtures for the privsan test suite.
#ifndef PRIVSAN_TESTS_TEST_FIXTURES_H_
#define PRIVSAN_TESTS_TEST_FIXTURES_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "core/constraints.h"
#include "core/session.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "log/search_log.h"
#include "synth/generator.h"
#include "util/result.h"

namespace privsan {
namespace testing_fixtures {

// The running example of Figure 1 in the paper. Three users, five pairs:
//
//   081: (pregnancy test nyc, medicinenet.com) 2   <- unique to 081
//        (book, amazon.com)                    3
//        (google, google.com)                 15
//   082: (google, google.com)                  7
//        (car price, kbb.com)                  2
//        (diabetes medecine, walmart.com)      1   <- unique to 082
//   083: (google, google.com)                 17
//        (car price, kbb.com)                  5
//        (book, amazon.com)                    1
//
// Totals: pregnancy 2 (unique), book 4, google 39, car 7, diabetes 1
// (unique); |D| = 53 raw, 50 after Condition-1 preprocessing.
inline SearchLog Figure1Log() {
  SearchLogBuilder builder;
  builder.Add("081", "pregnancy test nyc", "medicinenet.com", 2);
  builder.Add("081", "book", "amazon.com", 3);
  builder.Add("081", "google", "google.com", 15);
  builder.Add("082", "google", "google.com", 7);
  builder.Add("082", "car price", "kbb.com", 2);
  builder.Add("082", "diabetes medecine", "walmart.com", 1);
  builder.Add("083", "google", "google.com", 17);
  builder.Add("083", "car price", "kbb.com", 5);
  builder.Add("083", "book", "amazon.com", 1);
  return builder.Build();
}

// Figure1Log after Condition-1 preprocessing (3 pairs, |D| = 50).
inline SearchLog Figure1Preprocessed() {
  return RemoveUniquePairs(Figure1Log()).log;
}

// A tiny two-user log with no unique pairs: both users share both pairs.
inline SearchLog TwoUserSharedLog() {
  SearchLogBuilder builder;
  builder.Add("alice", "q1", "u1", 4);
  builder.Add("bob", "q1", "u1", 6);
  builder.Add("alice", "q2", "u2", 3);
  builder.Add("bob", "q2", "u2", 3);
  return builder.Build();
}

// A deterministic synthetic log, preprocessed, suitable for solver tests
// (a few hundred pairs, ~30 users).
inline SearchLog SmallSyntheticLog(uint64_t seed = 7) {
  SyntheticLogConfig config = TinyConfig();
  config.seed = seed;
  SearchLog raw = GenerateSearchLog(config).value();
  return RemoveUniquePairs(raw).log;
}

// One cold solve on a preprocessed log: build the DP rows, make the problem
// with `make` (MakeOumpProblem, MakeFumpProblem or MakeDumpProblem) and
// solve `query` without a warm-start hint.
template <typename Spec>
Result<UmpSolution> SolveCold(
    Result<std::unique_ptr<UmpProblem>> (*make)(const SearchLog&,
                                                DpConstraintSystem*, Spec,
                                                lp::SimplexOptions),
    const SearchLog& log, const UmpQuery& query, Spec spec = {}) {
  PRIVSAN_ASSIGN_OR_RETURN(DpConstraintSystem system,
                           DpConstraintSystem::BuildRows(log));
  PRIVSAN_ASSIGN_OR_RETURN(std::unique_ptr<UmpProblem> problem,
                           make(log, &system, spec, {}));
  return problem->Solve(query);
}

// The cold O-UMP solve at `params`: λ is its output_size.
inline Result<UmpSolution> SolveOumpCold(const SearchLog& log,
                                         const PrivacyParams& params,
                                         OumpSpec spec = {}) {
  return SolveCold(MakeOumpProblem, log, {params}, spec);
}

// Algorithm 1 once on a raw log: a fresh session, then Sanitize(privacy).
inline Result<SanitizeReport> SanitizeOnce(const SearchLog& raw,
                                           const PrivacyParams& privacy,
                                           SessionOptions options = {}) {
  PRIVSAN_ASSIGN_OR_RETURN(SanitizerSession session,
                           SanitizerSession::Create(raw, std::move(options)));
  return session.Sanitize(privacy);
}

}  // namespace testing_fixtures
}  // namespace privsan

#endif  // PRIVSAN_TESTS_TEST_FIXTURES_H_
