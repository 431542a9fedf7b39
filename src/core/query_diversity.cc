#include "core/query_diversity.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "core/constraints.h"
#include "core/spe.h"
#include "core/ump.h"

namespace privsan {

int64_t CountCoveredQueries(const SearchLog& log,
                            const std::vector<uint64_t>& x) {
  std::unordered_set<QueryId> covered;
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    if (x[p] > 0) covered.insert(log.pair_query(p));
  }
  return static_cast<int64_t>(covered.size());
}

Result<QueryDiversityResult> SolveQueryDiversity(const SearchLog& log,
                                                 const PrivacyParams& params) {
  PRIVSAN_ASSIGN_OR_RETURN(lp::BipProblem problem,
                           BuildDumpBip(log, params));

  // Per-pair cost: its worst row coefficient (the binding weight when the
  // pair is retained alone).
  std::vector<double> cost(log.num_pairs(), 0.0);
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    for (const lp::SparseEntry& e : problem.columns[p]) {
      cost[p] = std::max(cost[p], e.value);
    }
  }

  // Group pairs by query; each query's representative is its cheapest pair.
  struct QueryGroup {
    QueryId query;
    PairId representative;
    double representative_cost;
  };
  std::vector<int> representative(log.num_queries(), -1);
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    const QueryId q = log.pair_query(p);
    if (representative[q] < 0 ||
        cost[p] < cost[representative[q]]) {
      representative[q] = static_cast<int>(p);
    }
  }
  std::vector<QueryGroup> groups;
  for (QueryId q = 0; q < log.num_queries(); ++q) {
    if (representative[q] >= 0) {
      groups.push_back(QueryGroup{q, static_cast<PairId>(representative[q]),
                                  cost[representative[q]]});
    }
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const QueryGroup& a, const QueryGroup& b) {
                     return a.representative_cost < b.representative_cost;
                   });

  QueryDiversityResult result;
  result.x.assign(log.num_pairs(), 0);
  std::vector<double> load(problem.num_rows, 0.0);
  auto admit = [&](PairId p) {
    for (const lp::SparseEntry& e : problem.columns[p]) {
      if (load[e.index] + e.value > problem.rhs[e.index] + 1e-12) {
        return false;
      }
    }
    for (const lp::SparseEntry& e : problem.columns[p]) {
      load[e.index] += e.value;
    }
    result.x[p] = 1;
    ++result.pairs_retained;
    return true;
  };

  // Pass 1: one pair per query, cheapest queries first — maximizes query
  // coverage under the budget.
  for (const QueryGroup& group : groups) {
    if (admit(group.representative)) ++result.queries_retained;
  }
  // Pass 2: refill with remaining pairs (adds pair diversity, no new
  // queries can be missed — their representative was the cheapest option).
  std::vector<PairId> order(log.num_pairs());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](PairId a, PairId b) { return cost[a] < cost[b]; });
  for (PairId p : order) {
    if (!result.x[p]) admit(p);
  }

  result.queries_retained = CountCoveredQueries(log, result.x);

  // Portfolio step: the pair-diversity heuristic occasionally covers more
  // queries incidentally (different elimination geometry); keep whichever
  // selection covers more.
  PRIVSAN_ASSIGN_OR_RETURN(lp::BipSolution spe, SolveSpe(problem));
  std::vector<uint64_t> spe_x(spe.y.begin(), spe.y.end());
  const int64_t spe_queries = CountCoveredQueries(log, spe_x);
  if (spe_queries > result.queries_retained) {
    result.x = std::move(spe_x);
    result.queries_retained = spe_queries;
    result.pairs_retained = spe.selected;
  }

  result.query_diversity_ratio =
      log.num_queries() == 0
          ? 0.0
          : static_cast<double>(result.queries_retained) /
                static_cast<double>(log.num_queries());
  return result;
}

}  // namespace privsan
