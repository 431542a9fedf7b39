// perfbench: the repository benchmark.
//
//   perfbench --workload <release-cold|sweep-warm|serve-mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--source-id <text>]
//
// Three workloads, each generated from --seed on medium-scale synthetic
// logs (BenchScaleConfig: 400 users, ~3.3k pairs after preprocessing):
//
//   release-cold  a publisher's one-shot jobs: a fresh SanitizerSession per
//                 log, Create -> Sanitize (cold LP, sampling, audit).
//   sweep-warm    an analyst on four logs: warm SweepBudgets passes over
//                 the Table-4 O-UMP grid and single warm Solves, then one
//                 F-UMP |O| row (checked, not gated).
//   serve-mixed   four tenants served over loopback binary frames by an
//                 in-process SanitizerService + NetServer, open-loop
//                 Poisson traffic of hot/tail Solves and writes.
//
// With --trace 0 the last stdout line is the end-to-end result; with
// --trace 1 the same workload runs while the benchmark times calls into
// each layer's public functions, and the last line carries the per-layer
// metrics. Each workload checks its outputs; a failed check counts as a
// failed operation, sets "correct" to false and makes the exit code 1.
// README.md in this directory documents every metric.
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/audit.h"
#include "core/constraints.h"
#include "core/privacy_params.h"
#include "core/sampler.h"
#include "core/session.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "log/search_log.h"
#include "lp/lu_factorization.h"
#include "lp/sparse_matrix.h"
#include "metrics/utility_metrics.h"
#include "net/codec.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/histogram.h"
#include "serve/api.h"
#include "serve/service.h"
#include "synth/generator.h"

using namespace privsan;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsSince(Clock::time_point start) { return 1e3 * SecondsSince(start); }

// Linear-interpolation quantile, the serving histograms' convention
// (obs::ExactPercentileMs scales its input by 1e3; undo that).
double Quantile(std::vector<double> values, double q) {
  return obs::ExactPercentileMs(std::move(values), q) / 1e3;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// |a - b| relative to max(1, |a|, |b|), the scale bench_common.h's
// ObjectiveMismatches uses (an objective near 0 compares absolutely).
double RelDiff(double a, double b) {
  return std::abs(a - b) / std::max({1.0, std::abs(a), std::abs(b)});
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---- Inputs -----------------------------------------------------------------

constexpr double kMinSupport = 1.0 / 500;  // F-UMP and recall support
// Simplex iteration cap for every solve the benchmark makes. Cold O-UMP
// solves of medium logs take 4.4k-5.6k iterations (300 logs); a few logs
// make the cold primal simplex stall (README.md, "Known defect"), and the
// library's default cap of 500k iterations would keep such a release
// running for minutes. With this cap it fails within ~30 s and counts as a
// failed operation.
constexpr int64_t kIterationCap = 50000;

// Relative tolerance of the objective-equality checks (warm vs cold, served
// vs a cold reference): the one the paper benches' warm/cold gate uses
// (bench_common.h). The largest deviation seen is printed in `# detail:`;
// README.md says why it is not 1e-9.
constexpr double kObjectiveTol = 1e-6;

SessionOptions CappedOptions() {
  SessionOptions options;
  options.simplex.max_iterations = kIterationCap;
  options.fump.min_support = kMinSupport;
  return options;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Medium-scale synthetic log number `index` of workload seed `seed`.
SearchLog MediumLog(uint64_t seed, uint64_t index) {
  SyntheticLogConfig config = BenchScaleConfig();
  config.seed = Mix(seed, index);
  return GenerateSearchLog(config).value();
}

UmpQuery Query(double e_eps, double delta, uint64_t output_size = 0) {
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
  query.output_size = output_size;
  return query;
}

// The paper's Table-4 grid, row-major over e^ε x δ.
std::vector<UmpQuery> Table4Grid() {
  std::vector<UmpQuery> grid;
  for (double e_eps : {1.001, 1.01, 1.1, 1.4, 1.7, 2.0, 2.3}) {
    for (double delta : {1e-4, 1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8}) {
      grid.push_back(Query(e_eps, delta));
    }
  }
  return grid;
}

// ---- Results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;  // the gated set, printed on the last line
  std::vector<Metric> detail;   // named figures for people, not gated

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    ++failed;
    std::cout << "# CHECK FAILED: " << what << "\n";
  }
  // An operation that returned an error: it counts as failed, but no output
  // was produced, so no correctness check failed.
  void Fail(const std::string& what) {
    ++failed;
    std::cout << "# FAILED: " << what << "\n";
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
};

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " +
           Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

// ---- Layer probes shared by the traced runs ---------------------------------
//
// Every traced run decomposes one cold O-UMP release of its own input into
// the public calls SanitizerSession makes (preprocess, DP rows, model build,
// cold LP, sampling, audit), times the LU kernels on the optimal basis,
// re-solves warm at the next budget, and round-trips the solution through
// the response codec. The per-layer metric names are the same on every
// workload; the README says which ones a workload exercises natively.

struct CodecTimes {
  double reply_bytes = 0, encode_us = 0, decode_us = 0;
};

// Encode (EncodeResponse + EncodeFrame) and decode (FrameDecoder +
// DecodeResponse) of `solution` as a Solve reply, median of repeated calls.
CodecTimes TimeCodec(const UmpSolution& solution) {
  serve::ServeResponse response;
  response.payload = solution;
  std::vector<double> encode_us, decode_us;
  std::string bytes;
  for (int rep = 0; rep < 64; ++rep) {
    auto start = Clock::now();
    bytes = net::EncodeFrame(net::EncodeResponse(response, rep + 1));
    encode_us.push_back(1e6 * SecondsSince(start));
    start = Clock::now();
    net::FrameDecoder decoder;
    decoder.Feed(bytes);
    net::Frame frame;
    const Result<bool> got = decoder.Next(&frame);
    const bool decoded =
        got.ok() && *got && net::DecodeResponse(frame).ok();
    decode_us.push_back(1e6 * SecondsSince(start));
    if (!decoded) return {};
  }
  return {static_cast<double>(bytes.size()), Median(encode_us),
          Median(decode_us)};
}

struct ColdLayers {
  double preprocess_ms = 0, build_rows_ms = 0, make_problem_ms = 0;
  double solve_ms = 0, sample_ms = 0, audit_ms = 0;
  int64_t iterations = 0;
  int refactorizations = 0;
  size_t factor_nnz = 0;
  double mean_reach = 0;
  double ftran_us = 0, btran_us = 0, refactor_ms = 0;
  double warm_ms = 0;
  int64_t warm_iterations = 0;
  bool warm_started = false;
  int64_t repair_aborted = 0;
  uint64_t output_size = 0;
  bool audit_ok = false;
  CodecTimes codec;  // the cold solution as a Solve reply

  double LayerSumMs() const {
    return preprocess_ms + build_rows_ms + make_problem_ms + solve_ms +
           sample_ms + audit_ms;
  }
};

// LU kernels on the optimal basis of `solution`, with the O-UMP matrix
// [W | I] rebuilt from the DP rows: FTRAN of nonbasic structural columns
// (the entering-column solve), BTRAN of unit vectors (the pivot-row solve)
// and a fresh refactorization.
void TimeLuKernels(const DpConstraintSystem& system,
                   const UmpSolution& solution, ColdLayers* out) {
  const int m = static_cast<int>(system.num_rows());
  const int n = static_cast<int>(system.num_pairs());
  std::vector<lp::Triplet> triplets;
  for (int r = 0; r < m; ++r) {
    for (const DpConstraintEntry& e : system.Row(r)) {
      triplets.push_back(lp::Triplet{r, static_cast<int>(e.pair), e.log_t});
    }
    triplets.push_back(lp::Triplet{r, n + r, 1.0});
  }
  const lp::SparseMatrix matrix(m, n + m, std::move(triplets));
  const lp::SimplexOptions defaults;
  std::vector<int> basis = solution.basis.basic;
  if (static_cast<int>(basis.size()) != m) return;

  std::vector<double> refactor_ms;
  std::unique_ptr<lp::LuFactorization> lu;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<int> slots = basis;
    auto fresh = std::make_unique<lp::LuFactorization>(
        4 * defaults.refactor_max_updates, defaults.refactor_growth,
        defaults.markowitz_threshold, lp::LuUpdateKind::kForrestTomlin,
        defaults.hypersparse_threshold);
    const auto start = Clock::now();
    const bool ok = fresh->Refactorize(matrix, slots);
    refactor_ms.push_back(MsSince(start));
    if (!ok) return;
    lu = std::move(fresh);
  }
  out->refactor_ms = Median(refactor_ms);

  std::vector<char> is_basic(n + m, 0);
  for (int j : basis) is_basic[j] = 1;
  std::vector<int> entering;
  for (int j = 0; j < n && entering.size() < 256; ++j) {
    if (!is_basic[j]) entering.push_back(j);
  }
  if (entering.empty()) return;
  const int calls = 512;
  std::vector<double> v(m);
  auto start = Clock::now();
  for (int c = 0; c < calls; ++c) {
    std::fill(v.begin(), v.end(), 0.0);
    for (const lp::SparseEntry& e :
         matrix.Column(entering[c % entering.size()])) {
      v[e.index] = e.value;
    }
    lu->Ftran(v);
  }
  out->ftran_us = 1e6 * SecondsSince(start) / calls;
  start = Clock::now();
  for (int c = 0; c < calls; ++c) {
    std::fill(v.begin(), v.end(), 0.0);
    v[c % m] = 1.0;
    lu->Btran(v);
  }
  out->btran_us = 1e6 * SecondsSince(start) / calls;
}

// One cold O-UMP release of `raw` at `privacy`, call by call. With
// `probes`, also times the LU kernels and the codec on its solution and a
// warm re-solve at `warm_query`.
ColdLayers DecomposeRelease(const SearchLog& raw, const PrivacyParams& privacy,
                            const UmpQuery& warm_query, uint64_t seed,
                            bool probes) {
  ColdLayers out;
  auto start = Clock::now();
  PreprocessResult pre = RemoveUniquePairs(raw);
  out.preprocess_ms = MsSince(start);
  start = Clock::now();
  DpConstraintSystem system = DpConstraintSystem::BuildRows(pre.log).value();
  out.build_rows_ms = MsSince(start);
  start = Clock::now();
  lp::SimplexOptions simplex;
  simplex.max_iterations = kIterationCap;
  std::unique_ptr<UmpProblem> problem =
      MakeOumpProblem(pre.log, &system, {}, simplex).value();
  out.make_problem_ms = MsSince(start);
  UmpQuery query;
  query.privacy = privacy;
  start = Clock::now();
  const Result<UmpSolution> solved = problem->Solve(query);
  out.solve_ms = MsSince(start);
  if (!solved.ok()) return out;  // audit_ok stays false
  const UmpSolution& solution = *solved;
  start = Clock::now();
  const Result<SearchLog> sampled = SampleOutput(pre.log, solution.x, seed);
  out.sample_ms = MsSince(start);
  start = Clock::now();
  const Result<AuditReport> audit = AuditSolution(pre.log, privacy, solution.x);
  out.audit_ms = MsSince(start);
  out.audit_ok = sampled.ok() && audit.ok() && audit->satisfies_privacy;
  out.iterations = solution.stats.simplex_iterations;
  out.refactorizations = solution.stats.refactorizations;
  out.factor_nnz = solution.stats.factor_nnz;
  out.mean_reach = solution.stats.mean_reach_fraction;
  out.output_size = solution.output_size;
  if (!probes) return out;

  TimeLuKernels(system, solution, &out);
  out.codec = TimeCodec(solution);
  WarmStartHint hint;
  hint.basis = solution.basis;
  start = Clock::now();
  const Result<UmpSolution> warm = problem->Solve(warm_query, &hint);
  out.warm_ms = MsSince(start);
  if (warm.ok()) {
    out.warm_iterations = warm->stats.simplex_iterations;
    out.warm_started = warm->stats.warm_started;
    out.repair_aborted = warm->stats.repair_aborted;
  }
  return out;
}

// Adds the per-layer metrics shared by every workload's traced run.
void AddLayerMetrics(Report* report, const std::vector<ColdLayers>& cold,
                     const std::vector<double>& warm_ms,
                     const std::vector<double>& warm_iterations,
                     double warm_share, double repair_aborted,
                     const CodecTimes& codec, double op_p50_ms,
                     double unattributed_share) {
  auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const ColdLayers& c : cold) values.push_back(field(c));
    return Median(values);
  };
  const double solve_ms = median_of([](const ColdLayers& c) {
    return c.solve_ms;
  });
  const double iterations = median_of([](const ColdLayers& c) {
    return static_cast<double>(c.iterations);
  });
  const double refactorizations = median_of([](const ColdLayers& c) {
    return static_cast<double>(c.refactorizations);
  });
  const double ftran_us = median_of([](const ColdLayers& c) {
    return c.ftran_us;
  });
  const double btran_us = median_of([](const ColdLayers& c) {
    return c.btran_us;
  });
  const double refactor_ms = median_of([](const ColdLayers& c) {
    return c.refactor_ms;
  });
  report->Add("log.preprocess_ms",
              median_of([](const ColdLayers& c) { return c.preprocess_ms; }),
              "ms");
  report->Add("core.constraints.build_rows_ms",
              median_of([](const ColdLayers& c) { return c.build_rows_ms; }),
              "ms");
  report->Add("core.ump.make_problem_ms",
              median_of([](const ColdLayers& c) { return c.make_problem_ms; }),
              "ms");
  report->Add("lp.cold_solve_ms", solve_ms, "ms");
  report->Add("lp.cold_iterations", iterations, "count");
  report->Add("lp.cold_us_per_iteration",
              iterations > 0 ? 1e3 * solve_ms / iterations : 0.0, "us");
  report->Add("lp.refactorizations", refactorizations, "count");
  report->Add("lp.factor_nnz", median_of([](const ColdLayers& c) {
                return static_cast<double>(c.factor_nnz);
              }),
              "count");
  report->Add("lp.mean_reach_fraction",
              median_of([](const ColdLayers& c) { return c.mean_reach; }),
              "ratio");
  report->Add("lp.lu.ftran_us", ftran_us, "us");
  report->Add("lp.lu.btran_us", btran_us, "us");
  report->Add("lp.lu.refactor_ms", refactor_ms, "ms");
  // Computed estimate, not a measurement inside the solver: FTRAN + BTRAN
  // once per iteration plus one refactorization each, over the solve time.
  const double factor_ms =
      (ftran_us + btran_us) * iterations / 1e3 + refactor_ms * refactorizations;
  report->Add("lp.factor_share_est", solve_ms > 0 ? factor_ms / solve_ms : 0.0,
              "ratio");
  report->Add("core.sampler.sample_ms",
              median_of([](const ColdLayers& c) { return c.sample_ms; }),
              "ms");
  report->Add("core.audit.audit_ms",
              median_of([](const ColdLayers& c) { return c.audit_ms; }), "ms");
  report->Add("lp.warm_solve_ms_p50", Median(warm_ms), "ms");
  report->Add("lp.warm_iterations_mean", Mean(warm_iterations), "count");
  report->Add("lp.warm_share", warm_share, "ratio");
  report->Add("lp.repair_aborted", repair_aborted, "count");
  report->Add("net.codec.reply_bytes", codec.reply_bytes, "bytes");
  report->Add("net.codec.encode_us", codec.encode_us, "us");
  report->Add("net.codec.decode_us", codec.decode_us, "us");
  report->Add("trace.op_p50_ms", op_p50_ms, "ms");
  report->Add("trace.unattributed_share", unattributed_share, "ratio");
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string source_id = "unknown";
};

// ---- release-cold -------------------------------------------------------------

constexpr int kMinReleases = 8;  // lambda_sum and recall_mean cover these
// Set-up is session creation on kSetupLogs logs of their own seed stream:
// kCreateRepeats timed Creates on each before the first release, and one
// more after each release. A Create takes ~12 ms, and the machine's speed
// drifts over seconds; spread over the run like the releases, the median
// Create time drifts no more than they do.
constexpr int kSetupLogs = 4;
constexpr int kCreateRepeats = 2;
constexpr uint64_t kSetupLogStream = 900;

// Output schema check: the released log holds only users of the input and
// only non-unique pairs of the input (the preprocessed log's pairs).
bool SchemaOk(const SearchLog& raw, const SearchLog& preprocessed,
              const SearchLog& output) {
  for (UserId u = 0; u < output.num_users(); ++u) {
    if (!raw.FindUser(output.user_name(u)).ok()) return false;
  }
  for (PairId p = 0; p < output.num_pairs(); ++p) {
    if (!preprocessed
             .FindPair(output.query_name(output.pair_query(p)),
                       output.url_name(output.pair_url(p)))
             .ok()) {
      return false;
    }
  }
  return true;
}

Report RunReleaseCold(const Args& args) {
  Report report;
  const PrivacyParams privacy = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const UmpQuery warm_query = Query(1.7, 0.5);

  std::vector<SearchLog> setup_logs;
  std::vector<double> setup_s;
  auto time_create = [&](const SearchLog& log) {
    const auto start = Clock::now();
    const bool created = SanitizerSession::Create(log, CappedOptions()).ok();
    setup_s.push_back(SecondsSince(start));
    report.Check(created, "set-up Create");
  };
  for (int k = 0; k < kSetupLogs; ++k) {
    setup_logs.push_back(MediumLog(args.seed, kSetupLogStream + k));
    for (int rep = 0; rep < kCreateRepeats; ++rep) {
      time_create(setup_logs.back());
    }
  }
  // One untimed warm-up release.
  {
    ++report.attempted;
    Result<SanitizerSession> session =
        SanitizerSession::Create(setup_logs.back(), CappedOptions());
    const Status warmed =
        session.ok() ? session->Sanitize(privacy).status() : session.status();
    if (!warmed.ok()) report.Fail("warm-up release: " + warmed.ToString());
  }

  std::vector<double> release_ms, create_ms, sanitize_ms;
  std::vector<double> lambda, recall;
  std::vector<ColdLayers> layers;
  std::vector<double> untraced_ms;  // traced run: plain releases beside
  const auto begin = Clock::now();
  double measured_s = 0.0, failed_s = 0.0;
  for (uint64_t i = 1;; ++i) {
    if (lambda.size() >= kMinReleases && SecondsSince(begin) >= args.seconds) {
      break;
    }
    if (i > 1) time_create(setup_logs[i % kSetupLogs]);
    const SearchLog raw = MediumLog(args.seed, i);
    SessionOptions options = CappedOptions();
    options.seed = Mix(args.seed, 1000 + i);
    ++report.attempted;
    const auto start = Clock::now();
    Result<SanitizerSession> session = SanitizerSession::Create(raw, options);
    const double created_ms = MsSince(start);
    if (!session.ok()) {
      report.Fail("Create: " + session.status().ToString());
      continue;
    }
    const Result<SanitizeReport> released = session->Sanitize(privacy);
    const double total_ms = MsSince(start);
    if (!released.ok()) {
      failed_s += total_ms / 1e3;
      report.Fail("release " + std::to_string(i) + ": " +
                  released.status().ToString());
      continue;
    }
    measured_s += total_ms / 1e3;
    std::cout << "# release " << i << ": " << total_ms << " ms, lambda "
              << released->output_size << "\n";
    release_ms.push_back(total_ms);
    create_ms.push_back(created_ms);
    sanitize_ms.push_back(total_ms - created_ms);
    report.Check(released->audit.satisfies_privacy,
                 "release " + std::to_string(i) + " fails Theorem 1");
    report.Check(SchemaOk(raw, session->log(), released->output),
                 "release " + std::to_string(i) + " output schema");
    if (lambda.size() < kMinReleases) {
      lambda.push_back(static_cast<double>(released->output_size));
      recall.push_back(FrequentPairMetrics(session->log(),
                                           released->optimal_counts,
                                           kMinSupport)
                           .recall);
    }
    if (args.trace) {
      untraced_ms.push_back(total_ms);
      layers.push_back(
          DecomposeRelease(raw, privacy, warm_query, options.seed, true));
      report.Check(layers.back().audit_ok, "traced release audit");
      report.Check(layers.back().output_size == released->output_size,
                   "traced release lambda equals Sanitize's");
    }
  }

  std::cout << "# release-cold: " << release_ms.size() << " releases, "
            << "release p50 " << Median(release_ms) << " ms\n";
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("op_p50_ms", Median(release_ms), "ms");
    report.Add("op_tail_ms", Median(release_ms), "ms");
    report.Add("op2_p50_ms", Median(create_ms), "ms");
    report.Add("op3_p50_ms", Median(sanitize_ms), "ms");
    report.Add("ops_per_s",
               measured_s > 0 ? release_ms.size() / measured_s : 0.0, "1/s");
    report.Add("lambda_sum", std::accumulate(lambda.begin(), lambda.end(), 0.0),
               "pairs");
    report.Detail("recall_mean", Mean(recall), "ratio");
    report.Detail("release_s", Median(release_ms) / 1e3, "s");
    report.Detail("release_samples", release_ms.size(), "count");
    report.Detail("failed_release_s", failed_s, "s");
    return report;
  }

  std::vector<double> warm_ms, warm_iterations, layer_sum;
  double warm_started = 0, aborted = 0;
  for (const ColdLayers& c : layers) {
    warm_ms.push_back(c.warm_ms);
    warm_iterations.push_back(c.warm_iterations);
    warm_started += c.warm_started ? 1 : 0;
    aborted += c.repair_aborted;
    layer_sum.push_back(c.LayerSumMs());
  }
  const CodecTimes codec = layers.empty() ? CodecTimes{} : layers.back().codec;
  const double untraced = Median(untraced_ms);
  const double traced_sum = Median(layer_sum);
  AddLayerMetrics(&report, layers, warm_ms, warm_iterations,
                  layers.empty() ? 0.0 : warm_started / layers.size(), aborted,
                  codec, traced_sum,
                  untraced > 0 ? 1.0 - traced_sum / untraced : 0.0);
  report.Detail("trace.untraced_release_ms_in_run", untraced, "ms");
  report.Detail("trace.layer_sum_ms", traced_sum, "ms");
  return report;
}

// ---- sweep-warm ---------------------------------------------------------------

struct SweepState {
  std::optional<SanitizerSession> session;
  double oump_ref = 0;  // cold O-UMP objective / budget
  std::vector<UmpQuery> fump_row;
};

// Creates the session and primes O-UMP and F-UMP with one cold solve each.
Result<SweepState> SetUpSweep(const SearchLog& raw) {
  SweepState state;
  PRIVSAN_ASSIGN_OR_RETURN(SanitizerSession session,
                           SanitizerSession::Create(raw, CappedOptions()));
  const UmpQuery anchor = Query(2.0, 0.5);
  PRIVSAN_ASSIGN_OR_RETURN(
      UmpSolution oump, session.Solve(UtilityObjective::kOutputSize, anchor));
  state.oump_ref = oump.objective_value / anchor.privacy.Budget();
  // Table 5's |O| row at this support: λ·(22 + 10 i)%, i = 1..6.
  for (int i = 1; i <= 6; ++i) {
    state.fump_row.push_back(Query(
        2.0, 0.5,
        std::max<uint64_t>(1, oump.output_size * (22 + 10 * i) / 100)));
  }
  PRIVSAN_ASSIGN_OR_RETURN(
      UmpSolution fump,
      session.Solve(UtilityObjective::kFrequentPairs, state.fump_row.back()));
  (void)fump;
  state.session.emplace(std::move(session));
  return state;
}

// The measured phase alternates one warm SweepBudgets pass over the 49
// Table-4 cells with kProbes single warm Solves at cells drawn from the
// same grid (an analyst re-checking individual cells). One F-UMP Table-5
// row runs after the measured phase: its cost varies by an order of
// magnitude between logs, so it is checked and traced but not gated.
constexpr int kProbes = 7;
constexpr int kSweepLogs = 4;

Report RunSweepWarm(const Args& args) {
  Report report;
  // kSweepLogs sessions, one per log, so a run's figures are not those of
  // a single log's factor fill; each set-up is timed once.
  std::vector<SearchLog> raws;
  std::vector<SweepState> states;
  std::vector<double> setup_s;
  for (int k = 0; k < kSweepLogs; ++k) {
    raws.push_back(MediumLog(args.seed, k));
    const auto start = Clock::now();
    Result<SweepState> built = SetUpSweep(raws.back());
    setup_s.push_back(SecondsSince(start));
    ++report.attempted;
    if (!built.ok()) {
      report.Fail("sweep set-up: " + built.status().ToString());
      continue;
    }
    states.push_back(std::move(built).value());
  }
  if (states.empty()) return report;
  const std::vector<UmpQuery> grid = Table4Grid();
  const UmpQuery anchor = Query(2.0, 0.5);
  double max_dev = 0;
  auto check_oump = [&](const SweepState& state, const UmpSolution& cell,
                        const UmpQuery& query) {
    const double dev =
        RelDiff(cell.objective_value / query.privacy.Budget(), state.oump_ref);
    max_dev = std::max(max_dev, dev);
    report.Check(dev <= kObjectiveTol,
                 "O-UMP cell objective/budget differs from the cold prime");
  };

  std::vector<double> cell_ms, pass_ms, probe_ms;
  std::vector<double> cell_iterations, cell_refactorizations, overhead_ms;
  double lambda_sum = 0, warm_cells = 0, cells = 0, aborted = 0;
  std::mt19937_64 rng(Mix(args.seed, 99));
  const auto begin = Clock::now();
  double measured_s = 0;
  const int min_passes = static_cast<int>(states.size());
  for (int pass = 0; pass < min_passes || SecondsSince(begin) < args.seconds;
       ++pass) {
    SweepState& state = states[pass % states.size()];
    SanitizerSession& session = *state.session;
    report.attempted += static_cast<int64_t>(grid.size() + kProbes);
    auto start = Clock::now();
    const Result<SweepResult> sweep =
        session.SweepBudgets(UtilityObjective::kOutputSize, grid);
    const double wall_ms = MsSince(start);
    measured_s += wall_ms / 1e3;
    if (!sweep.ok()) {
      report.Fail("O-UMP sweep: " + sweep.status().ToString());
      continue;
    }
    pass_ms.push_back(wall_ms);
    double cell_sum_ms = 0;
    for (size_t c = 0; c < sweep->cells.size(); ++c) {
      const UmpSolution& cell = sweep->cells[c];
      const double ms = 1e3 * cell.stats.wall_seconds;
      cell_ms.push_back(ms);
      cell_sum_ms += ms;
      cell_iterations.push_back(cell.stats.simplex_iterations);
      cell_refactorizations.push_back(cell.stats.refactorizations);
      check_oump(state, cell, grid[c]);
      if (pass < min_passes) {
        lambda_sum += static_cast<double>(cell.output_size);
      }
    }
    warm_cells += static_cast<double>(sweep->warm_solves);
    cells += static_cast<double>(sweep->cells.size());
    aborted += static_cast<double>(sweep->repair_aborted);
    overhead_ms.push_back(1e3 * sweep->wall_seconds - cell_sum_ms);
    for (int p = 0; p < kProbes; ++p) {
      const UmpQuery& query = grid[rng() % grid.size()];
      start = Clock::now();
      const Result<UmpSolution> probe =
          session.Solve(UtilityObjective::kOutputSize, query);
      const double ms = MsSince(start);
      measured_s += ms / 1e3;
      if (!probe.ok()) {
        report.Fail("O-UMP probe: " + probe.status().ToString());
        continue;
      }
      probe_ms.push_back(ms);
      check_oump(state, *probe, query);
    }
  }

  // F-UMP: one Table-5 row on the first log, warm from the primed basis;
  // one cell of it is re-solved cold and must match.
  SweepState* const state = &states[0];
  SanitizerSession& session = *state->session;
  std::vector<double> fump_ms, fump_dual_iterations, recall;
  report.attempted += static_cast<int64_t>(state->fump_row.size());
  const Result<SweepResult> row =
      session.SweepBudgets(UtilityObjective::kFrequentPairs, state->fump_row);
  if (!row.ok()) {
    report.Fail("F-UMP row: " + row.status().ToString());
  } else {
    for (const UmpSolution& cell : row->cells) {
      fump_ms.push_back(1e3 * cell.stats.wall_seconds);
      fump_dual_iterations.push_back(cell.stats.dual_iterations);
      recall.push_back(
          FrequentPairMetrics(session.log(), cell.x, kMinSupport).recall);
    }
    const size_t c = args.seed % state->fump_row.size();
    SweepOptions cold;
    cold.warm_start = false;
    const Result<SweepResult> solved = session.SweepBudgets(
        UtilityObjective::kFrequentPairs, {state->fump_row[c]}, cold);
    report.Check(solved.ok() && RelDiff(row->cells[c].objective_value,
                                        solved->cells[0].objective_value) <=
                                    kObjectiveTol,
                 "F-UMP warm cell differs from its cold re-solve");
  }

  std::cout << "# sweep-warm: " << pass_ms.size() << " passes, "
            << cell_ms.size() << " warm O-UMP cells, " << probe_ms.size()
            << " probes; F-UMP row " << Mean(fump_ms) * fump_ms.size()
            << " ms\n";
  report.Detail("cell_samples", cell_ms.size(), "count");
  report.Detail("cell_p99_ms", Quantile(cell_ms, 0.99), "ms");
  report.Detail("objective_max_rel_dev", max_dev, "ratio");
  report.Detail("recall_mean", Mean(recall), "ratio");
  report.Detail("fump_row_ms", Mean(fump_ms) * fump_ms.size(), "ms");
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("op_p50_ms", Median(cell_ms), "ms");
    report.Add("op_tail_ms", Quantile(cell_ms, 0.95), "ms");
    report.Add("op2_p50_ms", Median(pass_ms), "ms");
    report.Add("op3_p50_ms", Median(probe_ms), "ms");
    report.Add("ops_per_s",
               measured_s > 0 ? (cell_ms.size() + probe_ms.size()) / measured_s
                              : 0.0,
               "1/s");
    report.Add("lambda_sum", lambda_sum, "pairs");
    return report;
  }

  // Traced: the per-cell UmpStats above, plus a cold decomposition of the
  // sweep's log and a codec round trip of one warm O-UMP cell.
  const std::vector<ColdLayers> layers = {
      DecomposeRelease(raws[0], anchor.privacy, grid[0], args.seed, true)};
  report.Check(layers[0].audit_ok, "traced decomposition audit");
  const Result<UmpSolution> cell =
      session.Solve(UtilityObjective::kOutputSize, grid[24]);
  const CodecTimes codec = cell.ok() ? TimeCodec(*cell) : CodecTimes{};
  const double pass_p50 = Median(pass_ms);
  AddLayerMetrics(&report, layers, cell_ms, cell_iterations,
                  cells > 0 ? warm_cells / cells : 0.0, aborted, codec,
                  Median(cell_ms),
                  pass_p50 > 0 ? Median(overhead_ms) / pass_p50 : 0.0);
  report.Detail("lp.oump_cell_ms_p50", Median(cell_ms), "ms");
  report.Detail("lp.oump_cell_iterations", Mean(cell_iterations), "count");
  report.Detail("lp.oump_cell_refactorizations", Mean(cell_refactorizations),
                "count");
  report.Detail("lp.fump_cell_ms_p50", Median(fump_ms), "ms");
  report.Detail("lp.fump_cell_dual_iterations", Mean(fump_dual_iterations),
                "count");
  report.Detail("core.session.sweep_overhead_ms", Median(overhead_ms), "ms");
  return report;
}

// ---- serve-mixed --------------------------------------------------------------

constexpr int kTenants = 4;
constexpr int kSetupRepeats = 15;  // a set-up takes ~0.13 s
// Offered rate of the open loop, frozen at about a tenth of the measured
// saturation throughput of the serving stack (README.md, "Rate").
constexpr double kOfferedRps = 100;

enum RequestClass { kHot = 0, kTail = 1, kAppend = 2, kRemove = 3 };

struct Scheduled {
  double due_s = 0;
  int tenant = 0;
  RequestClass kind = kHot;
  // A hot read with a write to its tenant scheduled since the tenant's
  // previous hot read: the write invalidated the cached answer.
  bool after_write = false;
  std::string bytes;  // the encoded request frame
};

// Hot budgets: the few cells clients ask for most, one per tenant, so a
// tenant's hot reads are cache hits except the first after each write.
std::vector<UmpQuery> HotBudgets() {
  return {Query(2.0, 0.5), Query(1.7, 0.2), Query(1.4, 0.1), Query(2.3, 0.8)};
}

// The tail: 24 x 16 = 384 (ε, δ) cells, three times the 128-entry
// per-tenant result cache.
std::vector<UmpQuery> TailBudgets() {
  std::vector<UmpQuery> cells;
  for (int i = 0; i < 24; ++i) {
    for (int j = 0; j < 16; ++j) {
      cells.push_back(Query(1.05 + 0.05 * i, 1e-3 * std::pow(800.0, j / 15.0)));
    }
  }
  return cells;
}

std::string TenantName(int t) { return "tenant" + std::to_string(t); }

// A new user named `name` with the same clicks as user `u` of `log`.
SearchLog CloneUser(const SearchLog& log, UserId u, const std::string& name) {
  SearchLogBuilder builder;
  for (const PairCount& pc : log.UserLogOf(u)) {
    builder.Add(name, log.query_name(log.pair_query(pc.pair)),
                log.url_name(log.pair_url(pc.pair)), pc.count);
  }
  return builder.Build();
}

// The whole request schedule, generated from the seed before set-up, plus
// the benchmark's own record of each tenant's final users.
struct ServePlan {
  std::vector<SearchLog> initial;  // per tenant
  std::vector<Scheduled> requests;
  std::vector<std::vector<SearchLog>> final_appended;  // per tenant
  SearchLog sample_append;
};

ServePlan MakeServePlan(uint64_t seed, double seconds) {
  ServePlan plan;
  const SearchLog raw = MediumLog(seed, 0);
  for (int t = 0; t < kTenants; ++t) {
    plan.initial.push_back(UserSlice(raw, raw.num_users() * t / kTenants,
                                     raw.num_users() * (t + 1) / kTenants));
  }
  const std::vector<UmpQuery> hot = HotBudgets();
  const std::vector<UmpQuery> tail = TailBudgets();
  std::mt19937_64 rng(Mix(seed, 77));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::exponential_distribution<double> gap(kOfferedRps);
  // Each tenant's writes alternate: an Append of a new user, then a
  // RemoveUsers of that user. A tenant's final log is therefore its quarter
  // plus at most one copied user, so lambda_sum measures the serving path,
  // not how many copies a seed's random walk of writes left behind.
  struct Live {
    std::optional<std::pair<std::string, SearchLog>> user;
    int next = 0;
  };
  std::vector<Live> live(kTenants);
  std::vector<bool> written(kTenants, false);
  uint64_t id = 0;
  for (double due = gap(rng); due < seconds; due += gap(rng)) {
    Scheduled request;
    request.due_s = due;
    request.tenant = static_cast<int>(rng() % kTenants);
    const std::string tenant = TenantName(request.tenant);
    const double pick = unit(rng);
    serve::ServeRequest body;
    if (pick < 0.70) {
      request.kind = kHot;
      request.after_write = written[request.tenant];
      written[request.tenant] = false;
      body = serve::SolveRequest{tenant, UtilityObjective::kOutputSize,
                                 hot[request.tenant]};
    } else if (pick < 0.85) {
      request.kind = kTail;
      body = serve::SolveRequest{tenant, UtilityObjective::kOutputSize,
                                 tail[rng() % tail.size()]};
    } else {
      Live& mine = live[request.tenant];
      written[request.tenant] = true;
      request.kind = mine.user.has_value() ? kRemove : kAppend;
      if (request.kind == kRemove) {
        body = serve::RemoveUsersRequest{tenant, {mine.user->first}};
        mine.user.reset();
      } else {
        const SearchLog& base = plan.initial[request.tenant];
        const std::string name =
            "w" + std::to_string(request.tenant) + "_" +
            std::to_string(mine.next++);
        SearchLog user =
            CloneUser(base, static_cast<UserId>(rng() % base.num_users()),
                      name);
        body = serve::AppendRequest{tenant, user};
        if (plan.sample_append.num_users() == 0) plan.sample_append = user;
        mine.user.emplace(name, std::move(user));
      }
    }
    request.bytes = net::EncodeFrame(net::EncodeRequest(body, ++id).value());
    plan.requests.push_back(std::move(request));
  }
  for (const Live& mine : live) {
    std::vector<SearchLog> users;
    if (mine.user.has_value()) users.push_back(mine.user->second);
    plan.final_appended.push_back(std::move(users));
  }
  return plan;
}

// An in-process service behind an in-process frame server.
struct ServeStack {
  std::unique_ptr<serve::SanitizerService> service;
  std::unique_ptr<net::NetServer> server;
  std::thread loop;

  ~ServeStack() {
    if (server != nullptr) server->Shutdown();
    if (loop.joinable()) loop.join();
    server.reset();
    service.reset();
  }
};

// Set-up: service + server start, tenant creation and one cold priming
// solve per tenant at its hot budget.
Status StartStack(const ServePlan& plan, bool trace, ServeStack* stack) {
  serve::ServiceOptions options;
  options.num_threads = 4;
  options.maintenance_interval_ms = 5;
  options.session = CappedOptions();
  if (trace) {
    options.slow_request_threshold_ms = 0;
    options.slow_log_capacity = 1u << 18;
  }
  stack->service = std::make_unique<serve::SanitizerService>(options);
  stack->server = std::make_unique<net::NetServer>(stack->service.get());
  PRIVSAN_RETURN_IF_ERROR(stack->server->Start());
  stack->loop = std::thread([server = stack->server.get()] {
    (void)server->Serve();
  });
  stream::BudgetConfig budget;
  budget.max_epsilon = 1e12;  // enforced, but generous enough never to refuse
  // One request at a time, so the set-up time does not depend on how many
  // of the 4 cores the machine's other load leaves free.
  for (int t = 0; t < kTenants; ++t) {
    serve::CreateTenantRequest request;
    request.tenant = TenantName(t);
    request.initial = plan.initial[t];
    request.budget = budget;
    PRIVSAN_RETURN_IF_ERROR(
        stack->service->Submit(std::move(request)).get().status);
    PRIVSAN_RETURN_IF_ERROR(
        stack->service
            ->Submit(serve::SolveRequest{TenantName(t),
                                         UtilityObjective::kOutputSize,
                                         HotBudgets()[t]})
            .get()
            .status);
  }
  return Status::OK();
}

int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

struct Reply {
  double latency_ms = -1;  // from due time; < 0 = no reply
  bool ok = false;
  UmpStats stats;
};

struct Traffic {
  std::vector<Reply> replies;  // indexed like plan.requests
  std::vector<double> lateness_ms;
  double last_reply_s = 0;
  net::Frame hot_frame;  // one hot reply as received
  bool send_failed = false;
};

// Open loop: one sender thread writes each pre-encoded request at its due
// time on its tenant's connection; one receiver thread polls the four
// connections and timestamps every decoded reply against its request's
// due time.
Traffic DriveTraffic(const ServePlan& plan, uint16_t port, double seconds) {
  Traffic traffic;
  traffic.replies.resize(plan.requests.size());
  std::vector<int> fds;
  for (int t = 0; t < kTenants; ++t) fds.push_back(ConnectLoopback(port));
  for (int fd : fds) {
    if (fd < 0) {
      traffic.send_failed = true;
      for (int open_fd : fds) {
        if (open_fd >= 0) close(open_fd);
      }
      return traffic;
    }
  }
  const auto start = Clock::now();
  std::thread receiver([&] {
    std::vector<net::FrameDecoder> decoders(kTenants);
    std::vector<pollfd> polls;
    for (int fd : fds) polls.push_back({fd, POLLIN, 0});
    size_t received = 0;
    const double deadline = seconds + 90.0;
    char buffer[1 << 16];
    bool kept_hot = false;
    while (received < plan.requests.size() && SecondsSince(start) < deadline) {
      if (poll(polls.data(), polls.size(), 100) <= 0) continue;
      for (int t = 0; t < kTenants; ++t) {
        if ((polls[t].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t n = recv(fds[t], buffer, sizeof(buffer), 0);
        if (n <= 0) {
          polls[t].fd = -1;
          continue;
        }
        decoders[t].Feed(buffer, static_cast<size_t>(n));
        net::Frame frame;
        for (;;) {
          const Result<bool> got = decoders[t].Next(&frame);
          if (!got.ok() || !*got) break;
          const uint64_t index = frame.request_id - 1;
          if (index >= plan.requests.size()) continue;
          // A client has its answer once the reply is decoded, so the
          // latency includes DecodeResponse.
          const Result<serve::ServeResponse> response =
              net::DecodeResponse(frame);
          const double now_s = SecondsSince(start);
          Reply& reply = traffic.replies[index];
          reply.latency_ms = 1e3 * (now_s - plan.requests[index].due_s);
          reply.ok = response.ok() && response->ok();
          if (reply.ok && response->solution() != nullptr) {
            reply.stats = response->solution()->stats;
          }
          if (reply.ok && !kept_hot && plan.requests[index].kind == kHot) {
            traffic.hot_frame = frame;
            kept_hot = true;
          }
          traffic.last_reply_s = now_s;
          ++received;
        }
      }
    }
  });
  for (const Scheduled& request : plan.requests) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(request.due_s)));
    traffic.lateness_ms.push_back(1e3 *
                                  (SecondsSince(start) - request.due_s));
    if (!WriteAll(fds[request.tenant], request.bytes)) {
      traffic.send_failed = true;
      break;
    }
  }
  receiver.join();
  for (int fd : fds) close(fd);
  return traffic;
}

Report RunServeMixed(const Args& args) {
  Report report;
  const ServePlan plan = MakeServePlan(args.seed, args.seconds);

  std::vector<double> setup_s;
  std::unique_ptr<ServeStack> stack;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.reset();
    auto fresh = std::make_unique<ServeStack>();
    const auto start = Clock::now();
    const Status started = StartStack(plan, args.trace, fresh.get());
    setup_s.push_back(SecondsSince(start));
    report.Check(started.ok(), "serve set-up: " + started.ToString());
    if (!started.ok()) return report;
    stack = std::move(fresh);
  }
  serve::SanitizerService& service = *stack->service;

  const Traffic traffic =
      DriveTraffic(plan, stack->server->port(), args.seconds);
  report.Check(!traffic.send_failed, "client connection failed");

  std::vector<double> latency[4], hot_hit_ms, hot_after_write_ms;
  std::vector<double> tail_ms, tail_iterations;
  double tail_warm = 0, tail_solved = 0, tail_aborted = 0, ok_replies = 0;
  for (size_t i = 0; i < plan.requests.size(); ++i) {
    const Reply& reply = traffic.replies[i];
    const RequestClass kind = plan.requests[i].kind;
    ++report.attempted;
    if (reply.latency_ms < 0 || !reply.ok) {
      report.Check(false, "request " + std::to_string(i + 1) +
                              (reply.latency_ms < 0 ? " got no reply"
                                                    : " failed"));
      continue;
    }
    ++ok_replies;
    latency[kind].push_back(reply.latency_ms);
    if (kind == kHot) {
      (plan.requests[i].after_write ? hot_after_write_ms : hot_hit_ms)
          .push_back(reply.latency_ms);
    }
    if (kind == kTail) {
      tail_ms.push_back(1e3 * reply.stats.wall_seconds);
      tail_iterations.push_back(reply.stats.simplex_iterations);
      tail_warm += reply.stats.warm_started ? 1 : 0;
      tail_aborted += reply.stats.repair_aborted;
      ++tail_solved;
    }
  }
  const double late_p99 = Quantile(traffic.lateness_ms, 0.99);
  report.Check(late_p99 <= 20.0,
               "generator fell behind: p99 lateness " +
                   std::to_string(late_p99) + " ms");

  // Final state: each tenant's hot-budget objective equals a cold session
  // on the benchmark's own record of that tenant's users. lambda_sum is the
  // λ the service itself releases at each tenant's hot budget.
  double lambda_sum = 0, max_dev = 0;
  serve::TenantStats total;
  for (int t = 0; t < kTenants; ++t) {
    SearchLogBuilder users;
    users.AddAll(plan.initial[t]);
    for (const SearchLog& user : plan.final_appended[t]) users.AddAll(user);
    Result<SanitizerSession> cold = SanitizerSession::Create(users.Build());
    report.Check(cold.ok(), "cold reference session");
    if (!cold.ok()) continue;
    const UmpQuery hot = HotBudgets()[t];
    const Result<UmpSolution> served =
        service.Solve(TenantName(t), UtilityObjective::kOutputSize, hot);
    const Result<UmpSolution> reference =
        cold->Solve(UtilityObjective::kOutputSize, hot);
    const double dev =
        served.ok() && reference.ok()
            ? RelDiff(served->objective_value, reference->objective_value)
            : 1.0;
    max_dev = std::max(max_dev, dev);
    report.Check(dev <= kObjectiveTol,
                 TenantName(t) + " final objective differs from cold");
    if (served.ok()) lambda_sum += static_cast<double>(served->output_size);
    const Result<serve::TenantStats> stats = service.Stats(TenantName(t));
    report.Check(stats.ok() && stats->budget_refusals == 0,
                 TenantName(t) + " refused a charge");
    if (!stats.ok()) continue;
    total.appends_coalesced += stats->appends_coalesced;
    total.flushes += stats->flushes;
    total.maintenance_flushes += stats->maintenance_flushes;
    total.cache_hits += stats->cache_hits;
    total.cache_misses += stats->cache_misses;
    total.refresh_solves += stats->refresh_solves;
    total.rows_copied += stats->rows_copied;
    total.rows_rebuilt += stats->rows_rebuilt;
    total.rows_patched_on_remove += stats->rows_patched_on_remove;
  }

  const double served_s = traffic.last_reply_s;
  std::cout << "# serve-mixed: offered " << kOfferedRps << " rps, "
            << plan.requests.size() << " requests (" << latency[kHot].size()
            << " hot, " << latency[kTail].size() << " tail, "
            << latency[kAppend].size() + latency[kRemove].size()
            << " writes), generator p99 late "
            << late_p99 << " ms\n";
  report.Detail("offered_rps", kOfferedRps, "1/s");
  report.Detail("generator_late_p99_ms", late_p99, "ms");
  report.Detail("generator_late_max_ms",
                traffic.lateness_ms.empty()
                    ? 0.0
                    : *std::max_element(traffic.lateness_ms.begin(),
                                        traffic.lateness_ms.end()),
                "ms");
  report.Detail("hot_samples", latency[kHot].size(), "count");
  report.Detail("tail_samples", latency[kTail].size(), "count");
  report.Detail("remove_samples", latency[kRemove].size(), "count");
  report.Detail("append_samples", latency[kAppend].size(), "count");
  report.Detail("hot_p50_ms", Median(latency[kHot]), "ms");
  report.Detail("hot_after_write_p50_ms", Median(hot_after_write_ms), "ms");
  report.Detail("hot_hit_samples", hot_hit_ms.size(), "count");
  report.Detail("hot_p90_ms", Quantile(latency[kHot], 0.90), "ms");
  report.Detail("hot_p99_ms", Quantile(latency[kHot], 0.99), "ms");
  report.Detail("hot_hit_p95_ms", Quantile(hot_hit_ms, 0.95), "ms");
  report.Detail("tail_p95_ms", Quantile(latency[kTail], 0.95), "ms");
  report.Detail("remove_p95_ms", Quantile(latency[kRemove], 0.95), "ms");
  report.Detail("objective_max_rel_dev", max_dev, "ratio");
  if (!args.trace) {
    // Whole-run medians; README.md says why the tail percentiles above are
    // printed but not gated.
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("op_p50_ms", Median(hot_hit_ms), "ms");
    report.Add("op_tail_ms", Median(latency[kTail]), "ms");
    report.Add("op2_p50_ms", Median(latency[kRemove]), "ms");
    report.Add("op3_p50_ms", Median(latency[kAppend]), "ms");
    report.Add("ops_per_s", served_s > 0 ? ok_replies / served_s : 0.0, "1/s");
    report.Add("lambda_sum", lambda_sum, "pairs");
    return report;
  }

  // Traced: serve-layer records, wire costs and the shared layer probes.
  std::map<std::string, std::vector<double>> queue_ms, flush_ms, solve_ms;
  // Flush and solve stages are summarised over the requests that ran them.
  for (const obs::SlowRequestRecord& record : service.SlowLog()) {
    queue_ms[record.verb].push_back(record.trace.queue_ms);
    if (record.trace.flush_ms > 0) {
      flush_ms[record.verb].push_back(record.trace.flush_ms);
    }
    if (record.trace.solve_ms > 0) {
      solve_ms[record.verb].push_back(record.trace.solve_ms);
    }
  }
  std::vector<double> inproc_us;
  for (int rep = 0; rep < 200; ++rep) {
    const auto start = Clock::now();
    const Result<UmpSolution> hit =
        service.Solve(TenantName(rep % kTenants), UtilityObjective::kOutputSize,
                      HotBudgets()[rep % kTenants]);
    inproc_us.push_back(1e6 * SecondsSince(start));
    report.Check(hit.ok(), "in-process hot solve");
  }
  CodecTimes codec;
  if (!traffic.hot_frame.payload.empty()) {
    const Result<serve::ServeResponse> hot =
        net::DecodeResponse(traffic.hot_frame);
    if (hot.ok() && hot->solution() != nullptr) {
      codec = TimeCodec(*hot->solution());
    }
  }
  const Result<net::Frame> append_frame = net::EncodeRequest(
      serve::AppendRequest{TenantName(0), plan.sample_append}, 1);
  stack->server->Shutdown();  // the loop's writev counters are now final
  stack->loop.join();
  const double writev_calls = stack->server->writev_calls();
  report.Detail("net.writev_buffers_per_call",
                writev_calls > 0 ? stack->server->writev_buffers() / writev_calls
                                 : 0.0,
                "count");
  stack.reset();
  const ColdLayers cold = DecomposeRelease(
      plan.initial[0], HotBudgets()[0].privacy, HotBudgets()[1], args.seed,
      true);
  report.Check(cold.audit_ok, "traced decomposition audit");
  const double hot_p50 = Median(hot_hit_ms);
  const double inproc_ms = Median(inproc_us) / 1e3;
  AddLayerMetrics(&report, {cold}, tail_ms, tail_iterations,
                  tail_solved > 0 ? tail_warm / tail_solved : 0.0,
                  tail_aborted, codec, hot_p50,
                  hot_p50 > 0 ? 1.0 - inproc_ms / hot_p50 : 0.0);
  report.Detail("net.codec.append_request_bytes",
                append_frame.ok() ? append_frame->payload.size() : 0.0,
                "bytes");
  report.Detail("serve.inproc_hot_us", Median(inproc_us), "us");
  report.Detail("serve.queue_ms_p50", Median(queue_ms["Solve"]), "ms");
  report.Detail("serve.queue_ms_p99", Quantile(queue_ms["Solve"], 0.99), "ms");
  report.Detail("serve.flush_ms_p50", Median(flush_ms["Solve"]), "ms");
  report.Detail("serve.solve_ms_p50", Median(solve_ms["Solve"]), "ms");
  const double lookups = total.cache_hits + total.cache_misses;
  report.Detail("serve.cache_hit_ratio",
                lookups > 0 ? total.cache_hits / lookups : 0.0, "ratio");
  report.Detail("serve.maintenance_flush_share",
                total.flushes > 0
                    ? static_cast<double>(total.maintenance_flushes) /
                          total.flushes
                    : 0.0,
                "ratio");
  report.Detail("serve.appends_per_flush",
                total.flushes > 0
                    ? static_cast<double>(total.appends_coalesced) /
                          total.flushes
                    : 0.0,
                "count");
  report.Detail("serve.refresh_solves", total.refresh_solves, "count");
  const double rows = total.rows_copied + total.rows_rebuilt;
  report.Detail("core.constraints.rows_copied_share",
                rows > 0 ? total.rows_copied / rows : 0.0, "ratio");
  report.Detail("stream.rows_patched_on_remove", total.rows_patched_on_remove,
                "count");
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--source-id") {
      args.source_id = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::cerr << "usage: perfbench --workload <release-cold|sweep-warm|"
                 "serve-mixed> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }

  Report report;
  if (args.workload == "release-cold") {
    report = RunReleaseCold(args);
  } else if (args.workload == "sweep-warm") {
    report = RunSweepWarm(args);
  } else if (args.workload == "serve-mixed") {
    report = RunServeMixed(args);
  } else {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (!args.trace) {
    report.Add("ok_frac",
               report.attempted > 0
                   ? 1.0 - static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                   : 0.0,
               "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  report.Detail("failed_frac",
                report.attempted > 0
                    ? static_cast<double>(report.failed) / report.attempted
                    : 1.0,
                "ratio");

  std::string cpu = "unknown";
  {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  std::cout << "# fingerprint: {\"cpu\": " << Quote(cpu)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << Quote(PERFBENCH_COMPILER)
            << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
            << ", \"source\": " << Quote(args.source_id)
            << ", \"scale\": \"medium\", \"workload\": "
            << Quote(args.workload) << ", \"seed\": " << args.seed
            << ", \"seconds\": " << Number(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}\n";
  std::cout << "# detail: " << MetricsJson(report.detail) << "\n";
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << std::max<int64_t>(1, report.attempted)
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << MetricsJson(report.metrics) << "}"
            << std::endl;
  return report.correct ? 0 : 1;
}

