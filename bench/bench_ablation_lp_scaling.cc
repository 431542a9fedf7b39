// Ablation — simplex scaling with problem size.
//
// O-UMP LP cost versus the number of users (constraints) and pairs
// (variables), on growing slices of the synthetic workload. Documents where
// the dense-basis-inverse design is comfortable and where paper-scale
// (PRIVSAN_BENCH_SCALE=full) lands.
#include <iostream>

#include "bench_common.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace privsan;

int main() {
  TablePrinter table("Ablation — O-UMP simplex cost vs dataset size");
  table.SetHeader({"users", "pairs", "|D|", "iterations", "seconds",
                   "lambda"});
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);

  for (size_t users : {50, 100, 200, 400}) {
    SyntheticLogConfig config = BenchScaleConfig();
    config.num_users = users;
    config.num_events = users * 90;
    config.num_queries = users * 6;
    config.url_pool = users * 8;
    SearchLog log = RemoveUniquePairs(
        GenerateSearchLog(config).value()).log;
    if (log.num_pairs() == 0) continue;
    WallTimer timer;
    auto result = bench::SolveCold(MakeOumpProblem, log, {params});
    if (!result.ok()) {
      std::cout << "users=" << users << ": " << result.status() << "\n";
      continue;
    }
    table.AddRow({std::to_string(log.num_users()),
                  std::to_string(log.num_pairs()),
                  std::to_string(log.total_clicks()),
                  std::to_string(result->stats.simplex_iterations),
                  bench::Shorten(timer.ElapsedSeconds(), 3),
                  std::to_string(result->output_size)});
  }
  table.Print(std::cout);
  std::cout << "\nreading: per-iteration cost is O(m^2) for the dense basis "
               "inverse (m = users); iteration counts grow roughly linearly "
               "in m for this LP family.\n";
  return 0;
}
