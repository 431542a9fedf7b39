// Shared setup for the bench harness: dataset selection, the paper's
// parameter grids (Section 6.1), and small formatting helpers.
//
// Every bench binary reproduces one table or figure of the paper on a
// synthetic AOL-profile dataset. PRIVSAN_BENCH_SCALE selects the size:
//   small  — seconds per bench (CI-sized)
//   medium — the default; the full suite runs in minutes
//   full   — Table-3-scale (2500 users); O-UMP/LP-heavy benches take long
#ifndef PRIVSAN_BENCH_BENCH_COMMON_H_
#define PRIVSAN_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/constraints.h"
#include "core/privacy_params.h"
#include "core/session.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "log/search_log.h"
#include "synth/generator.h"
#include "util/string_util.h"

namespace privsan {
namespace bench {

inline const std::vector<double>& EEpsilonGrid() {
  static const std::vector<double>* grid =
      new std::vector<double>{1.001, 1.01, 1.1, 1.4, 1.7, 2.0, 2.3};
  return *grid;
}

inline const std::vector<double>& DeltaGrid() {
  static const std::vector<double>* grid =
      new std::vector<double>{1e-4, 1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8};
  return *grid;
}

inline const std::vector<double>& SupportGrid() {
  static const std::vector<double>* grid = new std::vector<double>{
      1.0 / 100, 1.0 / 250, 1.0 / 500, 1.0 / 750, 1.0 / 1000};
  return *grid;
}

// The *effective* scale: unknown PRIVSAN_BENCH_SCALE values fall back to
// medium loudly, so the table banner and the BENCH_*.json artifacts always
// label the dataset that actually ran.
inline std::string BenchScaleName() {
  const char* env = std::getenv("PRIVSAN_BENCH_SCALE");
  if (env == nullptr) return "medium";
  const std::string scale = env;
  if (scale == "small" || scale == "medium" || scale == "full") return scale;
  std::cerr << "# warning: unknown PRIVSAN_BENCH_SCALE '" << scale
            << "', using medium\n";
  return "medium";
}

inline SyntheticLogConfig BenchConfig() {
  const std::string scale = BenchScaleName();
  if (scale == "full") return PaperScaleConfig();
  if (scale == "small") {
    SyntheticLogConfig config = BenchScaleConfig();
    config.num_users = 120;
    config.num_queries = 800;
    config.url_pool = 1000;
    config.num_events = 10000;
    return config;
  }
  return BenchScaleConfig();
}

struct BenchDataset {
  SearchLog raw;
  SearchLog log;  // preprocessed (Condition 1 applied)
  PreprocessStats stats;
};

inline BenchDataset LoadDataset() {
  BenchDataset dataset;
  dataset.raw = GenerateSearchLog(BenchConfig()).value();
  PreprocessResult preprocessed = RemoveUniquePairs(dataset.raw);
  dataset.log = std::move(preprocessed.log);
  dataset.stats = preprocessed.stats;
  std::cout << "# dataset scale: " << BenchScaleName() << " — "
            << dataset.log.num_pairs() << " pairs, "
            << dataset.log.num_users() << " user logs, |D| = "
            << dataset.log.total_clicks() << " (after preprocessing)\n\n";
  return dataset;
}

inline std::string Percent(double fraction, int precision = 1) {
  return FormatDouble(100.0 * fraction, precision) + "%";
}

inline std::string Shorten(double value, int precision = 4) {
  return FormatDouble(value, precision);
}

// One cold solve on a preprocessed log: build the DP rows, make the problem
// with `make` (MakeOumpProblem, MakeFumpProblem or MakeDumpProblem) and
// solve `query` without a warm-start hint — the per-cell one-shot setup of
// the paper's evaluation.
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

// One UmpQuery per (e^ε, δ) cell, row-major over `e_epsilons` x `deltas` —
// the shape of the paper's Table 4/7 sweeps, ready for
// SanitizerSession::SweepBudgets.
inline std::vector<UmpQuery> BudgetGrid(const std::vector<double>& e_epsilons,
                                        const std::vector<double>& deltas) {
  std::vector<UmpQuery> grid;
  grid.reserve(e_epsilons.size() * deltas.size());
  for (double e_eps : e_epsilons) {
    for (double delta : deltas) {
      UmpQuery query;
      query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
      grid.push_back(query);
    }
  }
  return grid;
}

// Number of cells whose objective differs between two sweeps of the same
// grid (warm starts must only change the path, never the optimum).
inline int ObjectiveMismatches(const SweepResult& a, const SweepResult& b,
                               double rel_tol = 1e-6) {
  int mismatches = 0;
  const size_t n = std::min(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < n; ++i) {
    const double va = a.cells[i].objective_value;
    const double vb = b.cells[i].objective_value;
    const double scale = std::max({1.0, std::abs(va), std::abs(vb)});
    if (std::abs(va - vb) > rel_tol * scale) ++mismatches;
  }
  return mismatches;
}

// ObjectiveMismatches for D-UMP sweeps. Only path-independent cells compare
// strictly: the LP-free heuristics (SPE, greedy — no simplex iterations)
// and branch & bound runs that proved optimality. LP-rounding outputs and
// budget-truncated B&B incumbents legitimately depend on which optimal
// vertex / search path the (massively degenerate) solve happened to take,
// so a warm-vs-cold difference there is not a regression.
inline int DumpObjectiveMismatches(const SweepResult& warm,
                                   const SweepResult& cold) {
  int mismatches = 0;
  const size_t n = std::min(warm.cells.size(), cold.cells.size());
  for (size_t i = 0; i < n; ++i) {
    const UmpSolution& w = warm.cells[i];
    const UmpSolution& c = cold.cells[i];
    const bool comparable = (w.stats.simplex_iterations == 0 &&
                             c.stats.simplex_iterations == 0) ||
                            (w.proven_optimal && c.proven_optimal);
    if (comparable && w.output_size != c.output_size) ++mismatches;
  }
  return mismatches;
}

// Paired per-cell-cold baseline + warm-started run of one grid through one
// session. Cold runs first — cold solves never touch the session's stored
// bases, so the warm sweep still chains from a clean slate.
struct WarmColdSweeps {
  SweepResult cold;
  SweepResult warm;
};

inline Result<WarmColdSweeps> RunWarmColdSweeps(
    SanitizerSession& session, UtilityObjective objective,
    const std::vector<UmpQuery>& grid, SweepOptions sweep = {}) {
  WarmColdSweeps out;
  SweepOptions cold_options = sweep;
  cold_options.warm_start = false;
  PRIVSAN_ASSIGN_OR_RETURN(
      out.cold, session.SweepBudgets(objective, grid, cold_options));
  sweep.warm_start = true;
  PRIVSAN_ASSIGN_OR_RETURN(out.warm,
                           session.SweepBudgets(objective, grid, sweep));
  return out;
}

// Machine-readable companion to the human tables: collects flat records of
// (key, value) fields and writes `BENCH_<name>.json` into the working
// directory on destruction, so the perf trajectory (wall time, iterations,
// refactorizations, nodes, instance size) is trackable across PRs.
//
//   bench::JsonReport report("fig5_solver_runtime");
//   bench::JsonRecord rec;
//   rec.Add("solver", "SPE").Add("seconds", 0.004).Add("retained", 110);
//   report.Add(std::move(rec));
class JsonRecord {
 public:
  JsonRecord& Add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, Quote(value));
    return *this;
  }
  JsonRecord& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonRecord& Add(const std::string& key, double value) {
    std::ostringstream out;
    out.precision(12);
    out << value;
    fields_.emplace_back(key, out.str());
    return *this;
  }
  JsonRecord& Add(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRecord& Add(const std::string& key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonRecord& Add(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }

  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  static std::string Quote(const std::string& raw) {
    std::string out = "\"";
    for (char c : raw) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

// Aggregate record comparing a warm-started SweepBudgets run against its
// per-cell cold baseline over the same grid: cross-cell warm starts are
// working when warm_solves > 0, total simplex iterations are strictly below
// the cold sum, and objective_mismatches is 0.
// `mismatches` overrides the strict per-cell objective comparison when the
// caller has a more meaningful count (e.g. table 7 skips budget-truncated
// branch & bound cells, whose incumbents are path-dependent by design).
inline JsonRecord SweepComparisonRecord(const std::string& label,
                                        const SweepResult& warm,
                                        const SweepResult& cold,
                                        int mismatches = -1) {
  JsonRecord record;
  record.Add("record", "sweep_aggregate")
      .Add("label", label)
      .Add("cells", static_cast<int64_t>(warm.cells.size()))
      .Add("warm_solves", warm.warm_solves)
      .Add("warm_total_simplex_iterations", warm.total_simplex_iterations)
      .Add("cold_total_simplex_iterations", cold.total_simplex_iterations)
      .Add("warm_total_dual_iterations", warm.total_dual_iterations)
      .Add("cold_total_dual_iterations", cold.total_dual_iterations)
      .Add("warm_root_iterations", warm.total_root_iterations)
      .Add("cold_root_iterations", cold.total_root_iterations)
      .Add("warm_seconds", warm.wall_seconds)
      .Add("cold_seconds", cold.wall_seconds)
      .Add("objective_mismatches",
           mismatches >= 0 ? mismatches : ObjectiveMismatches(warm, cold));
  return record;
}

class JsonReport {
 public:
  explicit JsonReport(std::string benchmark)
      : benchmark_(std::move(benchmark)) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { Write(); }

  void Add(JsonRecord record) { records_.push_back(std::move(record)); }

  // Writes BENCH_<benchmark>.json; called by the destructor, public so
  // benches can flush eagerly if they want partial results on abort.
  void Write() {
    const std::string path = "BENCH_" + benchmark_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "# warning: cannot write " << path << "\n";
      return;
    }
    out << "{\n  \"benchmark\": \"" << benchmark_ << "\",\n"
        << "  \"scale\": \"" << BenchScaleName() << "\",\n"
        << "  \"records\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      out << "    " << records_[i].ToJson()
          << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "# wrote " << path << " (" << records_.size()
              << " records)\n";
  }

 private:
  std::string benchmark_;
  std::vector<JsonRecord> records_;
};

}  // namespace bench
}  // namespace privsan

#endif  // PRIVSAN_BENCH_BENCH_COMMON_H_
