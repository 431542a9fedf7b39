// Figure 3(b) — F-UMP Sum of Support Distances on (ε, δ).
//
// Same sweep as Figure 3(a); the metric is Equation 5 evaluated on the
// rounded counts. Expected shape: the inverse of 3(a) — distances shrink as
// ε grows, flatten at the δ cap, and larger δ gives lower curves.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/ump.h"
#include "metrics/utility_metrics.h"
#include "util/table_printer.h"

using namespace privsan;

int main() {
  bench::BenchDataset dataset = bench::LoadDataset();
  bench::JsonReport report("fig3b_support_distance");
  const double min_support = 1.0 / 500;
  const std::vector<double> deltas = {0.01, 0.1, 0.5, 0.8};

  UmpSolution base = SolveOumpUnitBudget(dataset.log).value();
  uint64_t max_lambda = 0;
  for (double e_eps : bench::EEpsilonGrid()) {
    for (double delta : deltas) {
      PrivacyParams params = PrivacyParams::FromEEpsilon(e_eps, delta);
      max_lambda = std::max(
          max_lambda,
          RoundScaledOump(dataset.log, params, base).value().output_size);
    }
  }
  const uint64_t target = std::max<uint64_t>(1, max_lambda * 3 / 4);
  std::cout << "fixed output size |O| = " << target << ", s = 1/500\n\n";

  TablePrinter table(
      "Figure 3(b) — sum of frequent-pair support distances (Eq. 5)");
  std::vector<std::string> header = {"delta \\ e^eps"};
  for (double e_eps : bench::EEpsilonGrid()) {
    header.push_back(bench::Shorten(e_eps, 3));
  }
  table.SetHeader(header);

  for (double delta : deltas) {
    std::vector<std::string> row = {bench::Shorten(delta, 2)};
    for (double e_eps : bench::EEpsilonGrid()) {
      PrivacyParams params = PrivacyParams::FromEEpsilon(e_eps, delta);
      const uint64_t lambda =
          RoundScaledOump(dataset.log, params, base).value().output_size;
      if (lambda == 0) {
        // No output at all: every frequent pair is at full distance.
        row.push_back(bench::Shorten(
            SupportDistanceSum(dataset.log,
                               std::vector<uint64_t>(
                                   dataset.log.num_pairs(), 0),
                               min_support),
            4));
        continue;
      }
      const uint64_t output_size = std::min(target, lambda);
      auto result = bench::SolveCold(MakeFumpProblem, dataset.log,
                                     {params, output_size},
                                     FumpSpec{.min_support = min_support});
      if (!result.ok()) {
        row.push_back("err");
        continue;
      }
      const double distance =
          SupportDistanceSum(dataset.log, result->x, min_support);
      row.push_back(bench::Shorten(distance, 4));
      bench::JsonRecord record;
      record.Add("e_eps", e_eps)
          .Add("delta", delta)
          .Add("output_size", output_size)
          .Add("distance_sum", distance);
      report.Add(std::move(record));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: inverse of Figure 3(a) — distances fall "
               "with eps, flatten at the delta cap, larger delta lower "
               "(paper Fig. 3b).\n";
  return 0;
}
