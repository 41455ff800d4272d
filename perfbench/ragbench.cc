/**
 * @file ragbench.cc
 * The RAG serving benchmark: drives ServingRuntime::Serve end to end on
 * one named workload and prints its metrics, one JSON object last.
 *
 *   ragbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--spans <path>]
 *
 * --trace 0 measures the end-to-end metrics: set-up (ShardedIndex build
 * plus Optimizer::Search, repeated), then untraced Serve calls for
 * --seconds, reporting medians. --trace 1 is a separate run that times
 * calls into each layer's public functions, keeps the spans in memory,
 * writes them to --spans at the end, and reports the per-layer metrics
 * and a ledger of one Serve call's wall time. Either mode checks its
 * outputs and exits 1 on any violation. README.md explains the
 * workloads and how to read the output.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "hardware/cluster.h"
#include "rago/optimizer.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/serving/sharded_index.h"
#include "serving/cache/rago_cache.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "serving/obs/trace.h"
#include "serving/runtime/runtime.h"
#include "serving/runtime/workload.h"
#include "span_trace.h"
#include "stats.h"

namespace {

using namespace rago;
using perfbench::Median;
using perfbench::Percentile;
using perfbench::SpanTrace;
using Clock = std::chrono::steady_clock;

constexpr int kTopK = 10;
// Every pool (runtime, tier, optimizer) gets one worker. On a shared
// 4-vCPU host with 14-18% steal, 4-worker Serve calls of one trace
// ranged 1.6-5.2 s while 1-worker calls stayed within a few percent;
// the traced run still checks that nproc workers give the same digest.
constexpr int kServeThreads = 1;
constexpr int kMinSetupReps = 3;     // set-up repetitions per untraced run,
constexpr double kMinSetupSeconds = 1.0;  // and at least this long in all
constexpr int kMinServeReps = 3;     // timed Serve calls, at least
constexpr int kTracedReps = 3;       // Serve pairs in the traced run
constexpr double kRecallAt1Floor = 0.80;
constexpr double kRecallAt10Floor = 0.80;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Usable cores (the affinity mask, as nproc counts them), at most 4.
int BenchThreads() {
  cpu_set_t set;
  int cores = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cores = CPU_COUNT(&set);
  }
  return std::max(1, std::min(cores, 4));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class Traffic { kPoisson, kSoak };

/// Everything that defines one workload. Why each exists: README.md.
struct WorkloadSpec {
  std::string name;
  int queries_per_retrieval = 1;
  bool max_qps_schedule = true;  ///< Else the min-TTFT schedule.
  // Tier: clustered corpus behind `shards` IVF-flat shards.
  int shards = 4;
  size_t corpus_rows = 0;
  size_t dim = 0;
  int clusters = 0;
  float spread = 0.0f;
  int nlist = 0;  ///< Per shard.
  int nprobe = 0;
  size_t pool_rows = 0;
  // Traffic: a virtual-time open loop.
  int requests = 0;
  Traffic traffic = Traffic::kPoisson;
  double load = 0.0;        ///< Mean offered rate / schedule capacity.
  double zipf_skew = 0.0;   ///< 0 = uniform query stream.
  int admission_limit = 4096;
  int64_t retrieval_cache = 0;
  int64_t doc_cache = 0;
  bool observers = false;
  /// TTFT SLO in seconds; 0 = three times the plan's TTFT plus 0.1 s.
  double ttft_slo_s = 0.0;
};

std::vector<WorkloadSpec> Workloads() {
  WorkloadSpec retrieval;
  retrieval.name = "retrieval-bound";
  retrieval.queries_per_retrieval = 4;
  retrieval.max_qps_schedule = true;
  retrieval.corpus_rows = 100'000;
  retrieval.dim = 64;
  retrieval.clusters = 256;
  retrieval.spread = 2.5f;
  retrieval.nlist = 128;
  retrieval.nprobe = 2;
  retrieval.pool_rows = 2048;
  retrieval.requests = 8000;
  retrieval.traffic = Traffic::kPoisson;
  // At 0.8x the TTFT p99 of an 8000-request trace moved +-8% across
  // seeds; at 0.6x it moves +-1%.
  retrieval.load = 0.6;

  WorkloadSpec soak;
  soak.name = "soak-observed";
  soak.queries_per_retrieval = 1;
  soak.max_qps_schedule = true;
  // One shard of short lists: scans stay a minority of Serve wall time,
  // while the build is big enough (~0.15 s) to time steadily.
  soak.shards = 1;
  soak.corpus_rows = 20'000;
  soak.dim = 32;
  soak.clusters = 128;
  soak.spread = 0.3f;
  soak.nlist = 128;
  soak.nprobe = 1;
  soak.pool_rows = 1024;
  soak.requests = 50'000;
  soak.traffic = Traffic::kSoak;
  soak.load = 1.3;
  soak.admission_limit = 256;
  soak.observers = true;
  // Above the full-queue wait (256 / capacity), so attainment tracks
  // admission rather than the exact queue depth at each arrival.
  soak.ttft_slo_s = 0.5;

  WorkloadSpec chat = retrieval;
  chat.name = "chat-cached";
  chat.queries_per_retrieval = 1;
  chat.max_qps_schedule = false;
  chat.pool_rows = 4096;
  chat.requests = 20'000;
  chat.load = 0.5;
  chat.zipf_skew = 1.0;
  // ~0.39 hit rate: the TTFT median lies in the continuous miss mode.
  // With 256 entries (0.57) it sat on the hit/miss step and moved 58%
  // across seeds; with 512 it sat on one discrete hit price.
  chat.retrieval_cache = 64;
  chat.doc_cache = 4096;

  return {retrieval, soak, chat};
}

/**
 * The tier's data: a clustered corpus and the pool requests draw query
 * rows from. Fixed for each workload (the seed below is a constant), so
 * --seed varies the traffic, not the database the host scans.
 */
struct Dataset {
  ann::Matrix corpus;
  ann::Matrix pool;
};

constexpr uint64_t kDatasetSeed = 0x5eedda7a;

Dataset MakeDataset(const WorkloadSpec& spec) {
  Rng rng(kDatasetSeed);
  Dataset data;
  data.corpus = ann::GenClustered(spec.corpus_rows, spec.dim, spec.clusters,
                                  spec.spread, rng);
  data.pool = ann::GenQueriesNear(data.corpus, spec.pool_rows, 0.1f, rng);
  return data;
}

/// The seeded arrival trace. It needs the schedule's capacity, so it is
/// made after set-up (and outside every timed region).
runtime::ArrivalTrace MakeTrace(const WorkloadSpec& spec, double capacity,
                                uint64_t seed) {
  const uint64_t s = Rng::DeriveSeed(seed, 2);
  if (spec.traffic == Traffic::kPoisson) {
    return runtime::PoissonTrace(spec.requests, spec.load * capacity, s);
  }
  // MMPP bursts (quiet 0.3x, bursts 1.8x capacity; mean 0.6x) riding a
  // diurnal tide that brings the mean to `load` x capacity. Requests
  // split in proportion to the two rates so both streams span the same
  // virtual time. Short dwells and periods put ~100 bursts and ~20
  // tides in one run, so its tail metrics vary little across seeds.
  runtime::MmppOptions mmpp;
  mmpp.quiet_qps = capacity * 0.3;
  mmpp.burst_qps = capacity * 1.8;
  mmpp.mean_quiet_seconds = 0.04;
  mmpp.mean_burst_seconds = 0.01;
  runtime::DiurnalOptions diurnal;
  diurnal.mean_qps = capacity * spec.load - mmpp.MeanQps();
  diurnal.period_seconds = 1.0;
  diurnal.amplitude = 0.9;
  const int bursty = static_cast<int>(
      spec.requests * mmpp.MeanQps() / (capacity * spec.load));
  return runtime::MergeTraces(
      runtime::MmppTrace(bursty, mmpp, s),
      runtime::DiurnalTrace(spec.requests - bursty, diurnal,
                            Rng::DeriveSeed(s, 1)));
}

runtime::QueryStream MakeStream(const WorkloadSpec& spec, uint64_t seed) {
  return runtime::ZipfianQueryStream(
      spec.requests, static_cast<int64_t>(spec.pool_rows), spec.zipf_skew,
      Rng::DeriveSeed(seed, 3));
}

serving::ShardedIndexOptions TierOptions(const WorkloadSpec& spec,
                                         int threads) {
  serving::ShardedIndexOptions options;
  options.num_shards = spec.shards;
  options.backend = serving::ShardBackend::kIvf;
  options.ivf.nlist = spec.nlist;
  options.nprobe = spec.nprobe;
  options.num_threads = threads;
  return options;
}

opt::SearchOptions Grid(int threads) {
  opt::SearchOptions grid;
  grid.batch_sizes = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  grid.decode_batch_sizes = {1, 4, 16, 64, 256, 1024};
  grid.num_threads = threads;
  return grid;
}

/// The full observation stack of soak-observed, fresh for each Serve.
struct Observers {
  obs::TelemetryTimeSeries series;
  obs::SloAlertEngine alerts;
  obs::FlightRecorder flight{512};
  obs::TraceRecorder recorder;
  MetricsRegistry metrics;

  Observers() : series(SeriesOptions()), alerts(AlertOptions()) {
    obs::TraceSamplingOptions sampling;
    sampling.head_rate = 0.02;
    sampling.tail_keep = 32;
    sampling.seed = 9;
    recorder.SetSampling(sampling);
  }

  void Attach(runtime::RuntimeOptions& options) {
    options.timeseries = &series;
    options.alerts = &alerts;
    options.flight = &flight;
    options.trace = &recorder;
    options.metrics = &metrics;
  }

  static obs::TimeSeriesOptions SeriesOptions() {
    obs::TimeSeriesOptions options;
    options.window_seconds = 0.1;
    options.windows_per_level = 16;
    options.fold_factor = 4;
    options.levels = 3;
    return options;
  }

  static obs::SloAlertOptions AlertOptions() {
    obs::SloAlertOptions options;
    options.attainment_goal = 0.95;
    obs::BurnRateRule page;
    page.name = "page";
    page.short_window_seconds = 0.4;
    page.long_window_seconds = 4.0;
    page.burn_threshold = 2.0;
    page.fire_after = 2;
    page.clear_after = 2;
    obs::BurnRateRule ticket;
    ticket.name = "ticket";
    ticket.short_window_seconds = 1.0;
    ticket.long_window_seconds = 10.0;
    ticket.burn_threshold = 1.0;
    options.rules = {page, ticket};
    return options;
  }
};

// ---------------------------------------------------------------------------
// Checks and accounting.
// ---------------------------------------------------------------------------

/// Collects violations; any one makes the run incorrect.
struct Checks {
  std::vector<std::string> violations;
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      violations.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  bool ok() const { return violations.empty(); }
};

/// Requests attempted, completed and rejected in one phase of a run.
struct Phase {
  std::string name;
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t Lost() const { return attempted - completed - rejected; }
};

struct PhaseCounts {
  std::vector<Phase> phases;
  Phase& Add(const std::string& name) {
    phases.push_back(Phase{name});
    return phases.back();
  }
  void Record(const std::string& name, const runtime::RuntimeResult& r,
              Checks& checks) {
    Phase& phase = Add(name);
    phase.attempted = r.submitted;
    phase.completed = r.completed;
    phase.rejected = r.rejected;
    checks.Expect(phase.Lost() == 0 && r.admitted == r.completed,
                  name + ": submitted != completed + rejected");
  }
  int64_t Attempted() const {
    int64_t n = 0;
    for (const Phase& p : phases) n += p.attempted;
    return n;
  }
  int64_t Lost() const {
    int64_t n = 0;
    for (const Phase& p : phases) n += p.Lost();
    return n;
  }
  void Print() const {
    std::printf("%-22s %10s %10s %10s %6s\n", "phase", "attempted",
                "completed", "rejected", "lost");
    for (const Phase& p : phases) {
      std::printf("%-22s %10" PRId64 " %10" PRId64 " %10" PRId64
                  " %6" PRId64 "\n",
                  p.name.c_str(), p.attempted, p.completed, p.rejected,
                  p.Lost());
    }
  }
};

// ---------------------------------------------------------------------------
// Set-up and serving.
// ---------------------------------------------------------------------------

/// One deployment: the tier, the model and the optimizer's schedule.
struct Deployment {
  std::unique_ptr<serving::ShardedIndex> tier;
  std::unique_ptr<core::PipelineModel> model;
  opt::ScheduledPoint chosen;
  int64_t schedules_evaluated = 0;
  double build_s = 0.0;
  double search_s = 0.0;
};

Deployment SetUp(const WorkloadSpec& spec, const ann::Matrix& corpus,
                 int threads, SpanTrace& spans) {
  Deployment d;
  d.model = std::make_unique<core::PipelineModel>(
      core::MakeHyperscaleSchema(8, spec.queries_per_retrieval),
      DefaultCluster());
  ann::Matrix data = corpus.Clone();
  SpanTrace::Scope setup(spans, "setup");
  auto start = Clock::now();
  spans.Begin("sharded.build");
  d.tier = std::make_unique<serving::ShardedIndex>(std::move(data),
                                                   TierOptions(spec, threads));
  spans.End();
  d.build_s = SecondsSince(start);
  start = Clock::now();
  spans.Begin("optimizer.search");
  const opt::OptimizerResult result =
      opt::Optimizer(*d.model, Grid(threads)).Search();
  spans.End();
  d.search_s = SecondsSince(start);
  d.chosen = spec.max_qps_schedule ? result.MaxQpsPerChip()
                                   : result.MinTtft();
  d.schedules_evaluated = result.schedules_evaluated;
  return d;
}

runtime::RuntimeOptions ServeOptions(const WorkloadSpec& spec,
                                     const opt::ScheduledPoint& chosen,
                                     int threads) {
  runtime::RuntimeOptions options;
  options.num_threads = threads;
  options.top_k = kTopK;
  options.admission_queue_limit = spec.admission_limit;
  options.slo.ttft_seconds = spec.ttft_slo_s > 0.0
                                 ? spec.ttft_slo_s
                                 : chosen.perf.ttft * 3.0 + 0.1;
  options.slo.tpot_seconds = chosen.perf.tpot * 3.0;
  options.timeline_limit = 512;
  options.cache.retrieval_capacity = spec.retrieval_cache;
  options.cache.doc_capacity = spec.doc_cache;
  return options;
}

/// One Serve call: its result, host wall seconds and (when observed)
/// the observers it fed.
struct Served {
  runtime::RuntimeResult result;
  double wall_s = 0.0;
  std::unique_ptr<Observers> observers;
};

struct Server {
  const WorkloadSpec& spec;
  const Deployment& deployment;
  const runtime::ArrivalTrace& trace;
  const ann::Matrix& pool;
  const runtime::QueryStream& stream;

  /// Serves the whole trace with `threads` workers; observers attached
  /// when `observed`. Only the Serve call is timed.
  Served Serve(int threads, bool observed) const {
    runtime::RuntimeOptions options =
        ServeOptions(spec, deployment.chosen, threads);
    Served served;
    if (observed) {
      served.observers = std::make_unique<Observers>();
      served.observers->Attach(options);
    }
    const runtime::ServingRuntime engine(*deployment.model,
                                         deployment.chosen.schedule,
                                         *deployment.tier, options);
    const auto start = Clock::now();
    served.result = engine.Serve(trace, pool, stream);
    served.wall_s = SecondsSince(start);
    return served;
  }
};

// ---------------------------------------------------------------------------
// Ground truth.
// ---------------------------------------------------------------------------

/// Exact top-k (FlatIndex over the same corpus) of every pool row some
/// request draws.
std::map<size_t, std::vector<ann::Neighbor>> ExactNeighbors(
    const WorkloadSpec& spec, const ann::Matrix& corpus,
    const ann::Matrix& pool, const runtime::QueryStream& stream) {
  std::set<size_t> rows;
  for (int64_t start : stream.rows) {
    for (int q = 0; q < spec.queries_per_retrieval; ++q) {
      rows.insert((static_cast<size_t>(start) + static_cast<size_t>(q)) %
                  pool.rows());
    }
  }
  ann::Matrix queries(rows.size(), pool.dim());
  size_t i = 0;
  for (size_t row : rows) {
    queries.CopyRowFrom(pool, row, i++);
  }
  const ann::FlatIndex exact(corpus.Clone(), ann::Metric::kL2);
  auto results = exact.SearchBatch(queries, kTopK);
  std::map<size_t, std::vector<ann::Neighbor>> truth;
  i = 0;
  for (size_t row : rows) {
    truth[row] = std::move(results[i++]);
  }
  return truth;
}

/// Share of completed requests whose first neighbor is the exact
/// nearest neighbor of their first query row.
double RecallAt1(const runtime::RuntimeResult& result,
                 const runtime::QueryStream& stream,
                 const std::map<size_t, std::vector<ann::Neighbor>>& truth) {
  int64_t hits = 0;
  int64_t completed = 0;
  for (size_t i = 0; i < result.requests.size(); ++i) {
    const runtime::RequestOutcome& outcome = result.requests[i];
    if (outcome.completion < 0.0) {
      continue;
    }
    ++completed;
    const auto& exact = truth.at(static_cast<size_t>(stream.rows[i]));
    hits += outcome.first_neighbor == exact.front().id ? 1 : 0;
  }
  return completed > 0 ? static_cast<double>(hits) / completed : 0.0;
}

// ---------------------------------------------------------------------------
// Metrics output.
// ---------------------------------------------------------------------------

class MetricSet {
 public:
  void Set(const std::string& name, double value) {
    if (perfbench::FindMetric(name) == nullptr) {
      std::fprintf(stderr, "unknown metric %s\n", name.c_str());
      std::exit(1);
    }
    values_[name] = value;
  }
  double Get(const std::string& name) const { return values_.at(name); }

  /// Human-readable table, then the one-line JSON result.
  void Print(bool end_to_end, bool correct, int64_t attempted,
             int64_t failed) const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const perfbench::MetricSpec& spec : perfbench::MetricTable()) {
      if (spec.end_to_end != end_to_end) {
        continue;
      }
      const auto it = values_.find(spec.name);
      if (it == values_.end()) {
        std::fprintf(stderr, "metric %s was not measured\n", spec.name);
        std::exit(1);
      }
      std::printf("  %-32s %18.6f %s (%s is better)\n", spec.name,
                  it->second, spec.unit,
                  spec.better == perfbench::Better::kLower ? "lower"
                                                           : "higher");
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", it->second);
      json += std::string(first ? "" : ", ") + "\"" + spec.name +
              "\": {\"value\": " + value + ", \"unit\": \"" + spec.unit +
              "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::map<std::string, double> values_;
};

std::vector<double> CompletedValues(const runtime::RuntimeResult& result,
                                    double runtime::RequestOutcome::*field) {
  std::vector<double> values;
  for (const runtime::RequestOutcome& outcome : result.requests) {
    if (outcome.completion >= 0.0) {
      values.push_back(outcome.*field);
    }
  }
  return values;
}

/// p50 and p99 (ms) of a virtual latency; checks p99 is supported by
/// at least 10 samples beyond it and prints the highest supported one.
std::pair<double, double> Tail(const std::string& name,
                               const std::vector<double>& seconds,
                               Checks& checks) {
  const double top = perfbench::HighestSupportedPercentile(seconds.size());
  checks.Expect(top >= 99.0,
                name + ": too few samples for a supported p99");
  if (top <= 0.0) {
    return {0.0, 0.0};
  }
  std::printf("  %s: n=%zu, p50 %.4f ms, p99 %.4f ms, highest supported "
              "p%g = %.4f ms\n",
              name.c_str(), seconds.size(), Percentile(seconds, 50) * 1e3,
              Percentile(seconds, 99) * 1e3, top,
              Percentile(seconds, top) * 1e3);
  return {Percentile(seconds, 50) * 1e3, Percentile(seconds, 99) * 1e3};
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.
// ---------------------------------------------------------------------------

int RunEndToEnd(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  const int threads = kServeThreads;
  Checks checks;
  PhaseCounts phases;
  SpanTrace off(false);

  const Dataset inputs = MakeDataset(spec);
  const runtime::QueryStream stream = MakeStream(spec, seed);

  // Set-up, repeated: the median is setup_s.
  std::vector<double> setup_s;
  Deployment deployment;
  double setup_total = 0.0;
  while (static_cast<int>(setup_s.size()) < kMinSetupReps ||
         setup_total < kMinSetupSeconds) {
    deployment = Deployment();  // free the previous tier before timing
    deployment = SetUp(spec, inputs.corpus, threads, off);
    setup_s.push_back(deployment.build_s + deployment.search_s);
    setup_total += setup_s.back();
  }
  std::printf("setup: %zu reps, median %.6f s (build %.6f s + search "
              "%.6f s in the last)\n",
              setup_s.size(), Median(setup_s), deployment.build_s,
              deployment.search_s);
  phases.Add("setup");
  const runtime::ArrivalTrace trace =
      MakeTrace(spec, deployment.chosen.perf.qps, seed);
  const auto truth =
      ExactNeighbors(spec, inputs.corpus, inputs.pool, stream);
  const Server server{spec, deployment, trace, inputs.pool, stream};
  std::printf("workload %s seed %" PRIu64 ": %d requests, offered %.1f "
              "QPS vs capacity %.1f, %d threads\n",
              spec.name.c_str(), seed, spec.requests,
              runtime::OfferedQps(trace), deployment.chosen.perf.qps,
              threads);

  // Warm-up (not timed into the median), then Serve for `seconds`.
  const Served warm = server.Serve(threads, spec.observers);
  phases.Record("warm-up", warm.result, checks);
  const uint64_t digest = warm.result.outcome_digest;
  std::vector<double> walls;
  double measured = 0.0;
  while (measured < seconds ||
         static_cast<int>(walls.size()) < kMinServeReps) {
    const Served served = server.Serve(threads, spec.observers);
    phases.Record("rep " + std::to_string(walls.size()), served.result,
                  checks);
    checks.Expect(served.result.outcome_digest == digest,
                  "outcome digest differs between repetitions");
    walls.push_back(served.wall_s);
    measured += served.wall_s;
  }
  if (spec.observers) {
    const Served plain = server.Serve(threads, false);
    phases.Record("unobserved", plain.result, checks);
    checks.Expect(plain.result.outcome_digest == digest,
                  "digest with observers differs from the digest without");
  }

  const runtime::RuntimeResult& r = warm.result;
  int64_t slo_ok = 0;
  for (const runtime::RequestOutcome& outcome : r.requests) {
    slo_ok += outcome.slo_ok ? 1 : 0;
  }
  checks.Expect(slo_ok == static_cast<int64_t>(
                              r.slo_attainment * r.submitted + 0.5),
                "slo_attainment disagrees with per-request outcomes");
  const double recall1 = RecallAt1(r, stream, truth);
  checks.Expect(recall1 >= kRecallAt1Floor, "recall_at_1 below its floor");

  std::printf("serve wall: %zu reps, median %.4f s", walls.size(),
              Median(walls));
  if (walls.size() >= 2) {
    const perfbench::Quartiles q = perfbench::QuartilesOf(walls);
    std::printf(", quartiles %.4f..%.4f s", q.q1, q.q3);
  }
  std::printf("\n");
  MetricSet metrics;
  metrics.Set("serve_rps", static_cast<double>(r.submitted) / Median(walls));
  metrics.Set("setup_s", Median(setup_s));
  const auto ttft = Tail(
      "ttft", CompletedValues(r, &runtime::RequestOutcome::ttft), checks);
  const auto tpot = Tail(
      "tpot", CompletedValues(r, &runtime::RequestOutcome::tpot), checks);
  metrics.Set("ttft_p50_ms", ttft.first);
  metrics.Set("ttft_p99_ms", ttft.second);
  metrics.Set("tpot_p50_ms", tpot.first);
  metrics.Set("tpot_p99_ms", tpot.second);
  metrics.Set("slo_attainment", r.slo_attainment);
  metrics.Set("goodput_qps", static_cast<double>(slo_ok) / r.makespan);
  metrics.Set("admitted_frac", static_cast<double>(r.admitted) /
                                  static_cast<double>(r.submitted));
  metrics.Set("recall_at_1", recall1);
  metrics.Set("plan_qps_per_chip", deployment.chosen.perf.qps_per_chip);
  metrics.Set("peak_rss_mb", PeakRssMb());
  std::printf("  rejected_frac: %.6f (%" PRId64 " of %" PRId64
              " submitted; reported as admitted_frac = 1 - rejected_frac)\n",
              static_cast<double>(r.rejected) / r.submitted, r.rejected,
              r.submitted);
  std::printf("  retrieval cache hit rate %.4f, measured prefix hit rate "
              "%.4f\n",
              r.retrieval_cache.HitRate(), r.measured_prefix_hit_rate);
  phases.Print();
  metrics.Print(true, checks.ok(), phases.Attempted(), phases.Lost());
  return checks.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics and the ledger.
// ---------------------------------------------------------------------------

/// Min over `samples` of the mean seconds per call of `fn`, each sample
/// running `fn` often enough to last ~20 ms.
template <typename Fn>
double MinSecondsPerCall(Fn&& fn, int samples = 5) {
  int calls = 1;
  for (;;) {
    const auto start = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    if (SecondsSince(start) >= 0.02 || calls >= (1 << 24)) break;
    calls *= 2;
  }
  double best = 1e300;
  for (int s = 0; s < samples; ++s) {
    const auto start = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    best = std::min(best, SecondsSince(start) / calls);
  }
  return best;
}

int RunTraced(const WorkloadSpec& spec, uint64_t seed,
              const std::string& spans_path) {
  const int threads = kServeThreads;
  Checks checks;
  PhaseCounts phases;
  SpanTrace spans(true);
  MetricSet metrics;
  spans.Begin("run");

  const Dataset inputs = MakeDataset(spec);
  const runtime::QueryStream stream = MakeStream(spec, seed);
  const Deployment deployment = SetUp(spec, inputs.corpus, threads, spans);
  phases.Add("setup");
  const runtime::ArrivalTrace trace =
      MakeTrace(spec, deployment.chosen.perf.qps, seed);
  std::map<size_t, std::vector<ann::Neighbor>> truth;
  {
    SpanTrace::Scope span(spans, "groundtruth.flat");
    truth = ExactNeighbors(spec, inputs.corpus, inputs.pool, stream);
  }
  const Server server{spec, deployment, trace, inputs.pool, stream};
  metrics.Set("sharded.build_s", deployment.build_s);
  metrics.Set("optimizer.search_s", deployment.search_s);
  metrics.Set("optimizer.schedules_evaluated",
              static_cast<double>(deployment.schedules_evaluated));

  // Serve: warm-up, then pairs of (traced, untraced) calls in the
  // workload's own configuration, and (when it observes) traced calls
  // with the observers detached.
  {
    SpanTrace::Scope span(spans, "serve.warmup");
    phases.Record("warm-up", server.Serve(threads, spec.observers).result,
                  checks);
  }
  std::vector<double> traced_wall, untraced_wall, scan_s, plain_wall,
      plain_engine_s;
  Served observed;
  for (int rep = 0; rep < kTracedReps; ++rep) {
    spans.Begin("serve");
    Served served = server.Serve(threads, spec.observers);
    spans.End();
    phases.Record("traced rep " + std::to_string(rep), served.result, checks);
    traced_wall.push_back(served.wall_s);
    scan_s.push_back(served.result.real_scan_seconds);
    if (!spec.observers) {
      plain_wall.push_back(served.wall_s);
      plain_engine_s.push_back(served.wall_s -
                               served.result.real_scan_seconds);
    } else {
      spans.Begin("serve.plain");
      const Served plain = server.Serve(threads, false);
      spans.End();
      phases.Record("traced plain " + std::to_string(rep), plain.result,
                    checks);
      checks.Expect(plain.result.outcome_digest ==
                        served.result.outcome_digest,
                    "digest with observers differs from the digest without");
      plain_wall.push_back(plain.wall_s);
      plain_engine_s.push_back(plain.wall_s - plain.result.real_scan_seconds);
    }
    const Served untraced = server.Serve(threads, spec.observers);
    phases.Record("untraced rep " + std::to_string(rep), untraced.result,
                  checks);
    untraced_wall.push_back(untraced.wall_s);
    checks.Expect(untraced.result.outcome_digest ==
                      served.result.outcome_digest,
                  "outcome digest differs between repetitions");
    if (rep == 0) {
      observed = std::move(served);
    }
  }
  const runtime::RuntimeResult& r = observed.result;
  {
    const int nproc = BenchThreads();
    SpanTrace::Scope span(spans, "serve.nproc_threads");
    const Served wide = server.Serve(nproc, spec.observers);
    phases.Record(std::to_string(nproc) + " threads", wide.result, checks);
    checks.Expect(wide.result.outcome_digest == r.outcome_digest,
                  "digest differs between " + std::to_string(threads) +
                      " and " + std::to_string(nproc) + " threads");
  }

  // Ledger of one Serve call in the workload's configuration.
  const double serve_s = Median(traced_wall);
  const double scan = Median(scan_s);
  const double engine = Median(plain_engine_s);
  const double observer =
      spec.observers ? Median(traced_wall) - Median(plain_wall) : 0.0;
  metrics.Set("ledger.serve_s", serve_s);
  metrics.Set("ledger.scan_s", scan);
  metrics.Set("ledger.engine_s", engine);
  metrics.Set("ledger.observer_s", observer);
  metrics.Set("ledger.remainder_s", serve_s - scan - engine - observer);
  metrics.Set("ledger.tracing_overhead_s",
              Median(traced_wall) - Median(untraced_wall));
  metrics.Set("runtime.scan_frac", scan / serve_s);
  metrics.Set("runtime.engine_s", engine);
  metrics.Set("obs.overhead_frac",
              spec.observers ? observer / Median(plain_wall) : 0.0);

  // Runtime counters (virtual, repeat bit for bit).
  int64_t batches = 0, full = 0;
  int max_depth = r.max_decode_queue_depth;
  const runtime::StageTelemetry* retrieval_stage = nullptr;
  for (const runtime::StageTelemetry& stage : r.stages) {
    batches += stage.batches;
    full += stage.full_batches;
    max_depth = std::max(max_depth, stage.max_queue_depth);
    if (stage.type == core::StageType::kRetrieval) {
      retrieval_stage = &stage;
    }
  }
  checks.Expect(retrieval_stage != nullptr, "no retrieval stage");
  if (retrieval_stage == nullptr) {
    return 1;
  }
  const std::vector<double> waits =
      CompletedValues(r, &runtime::RequestOutcome::queue_wait);
  metrics.Set("runtime.batches", static_cast<double>(batches));
  metrics.Set("runtime.full_batch_frac",
              batches > 0 ? static_cast<double>(full) / batches : 0.0);
  metrics.Set("runtime.queue_wait_p50_ms", Percentile(waits, 50) * 1e3);
  metrics.Set("runtime.queue_wait_p99_ms", Percentile(waits, 99) * 1e3);
  metrics.Set("runtime.retrieval_util", retrieval_stage->utilization);
  metrics.Set("runtime.decode_util", r.decode_utilization);
  metrics.Set("runtime.max_queue_depth", static_cast<double>(max_depth));

  // Observation layer.
  const Observers* o = observed.observers.get();
  metrics.Set("obs.trace_events",
              o ? static_cast<double>(o->recorder.size()) : 0.0);
  metrics.Set("obs.sampled_frac",
              o && o->recorder.finalized_requests() > 0
                  ? static_cast<double>(o->recorder.sampled_requests()) /
                        o->recorder.finalized_requests()
                  : 0.0);
  metrics.Set("obs.windows_closed",
              o ? static_cast<double>(o->series.windows_closed()) : 0.0);
  metrics.Set("obs.alert_transitions",
              o ? static_cast<double>(o->alerts.transitions().size()) : 0.0);

  // Cache layer counters.
  metrics.Set("cache.retrieval_hit_rate", r.retrieval_cache.HitRate());
  metrics.Set("cache.retrieval_evictions",
              static_cast<double>(r.retrieval_cache.evictions));
  metrics.Set("cache.prefix_hit_rate", r.measured_prefix_hit_rate);

  // Replay of the scanned requests through ShardedIndex::SearchBatch in
  // batches of the mean size Serve formed.
  const int qpr = spec.queries_per_retrieval;
  std::vector<size_t> scanned;
  for (size_t i = 0; i < r.requests.size(); ++i) {
    if (r.requests[i].admitted && !r.requests[i].retrieval_cache_hit) {
      scanned.push_back(i);
    }
  }
  const double mean_batch =
      retrieval_stage->batches > 0
          ? static_cast<double>(retrieval_stage->requests) /
                retrieval_stage->batches
          : 1.0;
  const size_t chunk =
      std::max<size_t>(1, static_cast<size_t>(mean_batch + 0.5));
  ThreadPool pool(threads);
  std::vector<double> call_s;
  std::vector<double> shard_busy(
      static_cast<size_t>(deployment.tier->num_shards()), 0.0);
  double max_shard_s = 0.0, merge_s = 0.0, scan_bytes = 0.0;
  int64_t queries_scanned = 0;
  double recall10_sum = 0.0;
  spans.Begin("replay.sharded");
  for (size_t begin = 0; begin < scanned.size(); begin += chunk) {
    const size_t end = std::min(scanned.size(), begin + chunk);
    ann::Matrix queries((end - begin) * static_cast<size_t>(qpr), spec.dim);
    std::vector<size_t> rows;
    for (size_t m = begin; m < end; ++m) {
      for (int q = 0; q < qpr; ++q) {
        const size_t row =
            (static_cast<size_t>(stream.rows[scanned[m]]) +
             static_cast<size_t>(q)) %
            inputs.pool.rows();
        queries.CopyRowFrom(inputs.pool, row, rows.size());
        rows.push_back(row);
      }
    }
    serving::ShardSearchStats stats;
    spans.Begin("sharded.call");
    const auto results =
        deployment.tier->SearchBatch(queries, kTopK, &pool, &stats);
    call_s.push_back(spans.End());
    for (size_t s = 0; s < stats.shards.size(); ++s) {
      shard_busy[s] += stats.shards[s].wall_seconds;
    }
    max_shard_s += stats.MaxShardSeconds();
    merge_s += stats.merge_seconds;
    scan_bytes += stats.TotalScanBytes();
    queries_scanned += stats.num_queries;
    for (size_t q = 0; q < results.size(); ++q) {
      const auto& exact = truth.at(rows[q]);
      std::set<int64_t> want;
      for (const ann::Neighbor& n : exact) want.insert(n.id);
      int found = 0;
      for (const ann::Neighbor& n : results[q]) found += want.count(n.id);
      recall10_sum += static_cast<double>(found) / exact.size();
    }
  }
  spans.End();
  double call_total = 0.0, busy_total = 0.0, busy_max = 0.0;
  for (double s : call_s) call_total += s;
  for (double s : shard_busy) {
    busy_total += s;
    busy_max = std::max(busy_max, s);
  }
  checks.Expect(!call_s.empty(), "replay scanned nothing");
  if (call_s.empty()) {
    return 1;
  }
  const double recall10 = recall10_sum / static_cast<double>(queries_scanned);
  checks.Expect(recall10 >= kRecallAt10Floor,
                "sharded.recall_at_10 below its floor");
  const double call_top = std::min(
      99.0, perfbench::HighestSupportedPercentile(call_s.size()));
  std::printf("  sharded.call: n=%zu calls of %zu requests, tail "
              "percentile p%g\n",
              call_s.size(), chunk, call_top);
  metrics.Set("ledger.replay_scan_s", call_total);
  metrics.Set("sharded.call_ms_p50", Percentile(call_s, 50) * 1e3);
  metrics.Set("sharded.call_ms_p99",
              Percentile(call_s, call_top > 0.0 ? call_top : 100.0) * 1e3);
  metrics.Set("sharded.queries_per_call",
              static_cast<double>(queries_scanned) / call_s.size());
  metrics.Set("sharded.max_shard_frac", max_shard_s / call_total);
  metrics.Set("sharded.imbalance",
              busy_max / (busy_total / static_cast<double>(shard_busy.size())));
  metrics.Set("sharded.merge_frac", merge_s / call_total);
  metrics.Set("sharded.parallel_eff", busy_total / (call_total * threads));
  metrics.Set("sharded.scan_bytes_per_query",
              scan_bytes / static_cast<double>(queries_scanned));
  metrics.Set("sharded.recall_at_10", recall10);

  // Kernel and top-k probes at this tier's IVF-list shape.
  const size_t list_rows = spec.corpus_rows /
                           static_cast<size_t>(spec.shards * spec.nlist);
  constexpr size_t kTileQueries = 32;
  const float* rows = inputs.corpus.data();
  const float* queries = inputs.pool.data();
  const size_t dim = spec.dim;
  std::vector<float> out(kTileQueries * list_rows);
  spans.Begin("probe.kernels");
  spans.Begin("kernels.tile");
  const double tile_s = MinSecondsPerCall([&] {
    ann::kernels::DistanceTile(ann::Metric::kL2, queries, kTileQueries,
                               rows, list_rows, dim, out.data());
  });
  spans.End();
  size_t next_query = 0;
  spans.Begin("kernels.batch");
  const double batch_s = MinSecondsPerCall([&] {
    ann::kernels::DistanceBatch(
        ann::Metric::kL2, queries + (next_query++ % kTileQueries) * dim,
        rows, list_rows, dim, out.data());
  });
  spans.End();
  spans.End();
  std::vector<float> scratch;
  spans.Begin("probe.ann");
  spans.Begin("ann.scan_rows");
  const double scan_rows_s = MinSecondsPerCall([&] {
    ann::TopK topk(kTopK);
    ann::kernels::ScanRowsIntoTopK(
        ann::Metric::kL2, queries + (next_query++ % kTileQueries) * dim,
        rows, list_rows, dim, nullptr, 0, topk, scratch);
  });
  spans.End();
  spans.End();
  const double row_bytes = static_cast<double>(list_rows * dim * sizeof(float));
  // Both rates count the row bytes compared per query (computed from
  // sizes), so a tile that reuses rows across queries reads higher.
  metrics.Set("kernels.l2_tile_gbps",
              row_bytes * kTileQueries / tile_s / 1e9);
  metrics.Set("kernels.l2_batch_gbps", row_bytes / batch_s / 1e9);
  // Computed from sizes: nprobe lists of list_rows vectors in each shard.
  metrics.Set("kernels.bytes_per_query",
              row_bytes * spec.nprobe * deployment.tier->num_shards());
  metrics.Set("ann.scan_rows_ns_per_row", scan_rows_s / list_rows * 1e9);
  metrics.Set("ann.topk_share", 1.0 - batch_s / scan_rows_s);

  // Cache replay: LruRetrievalCache Lookup/Insert on the workload's
  // fingerprint stream (admitted requests, arrival order).
  double lookup_ns = 0.0;
  if (spec.retrieval_cache > 0) {
    std::vector<uint64_t> fingerprints;
    for (size_t i = 0; i < r.requests.size(); ++i) {
      if (r.requests[i].admitted) {
        fingerprints.push_back(cache::FingerprintQueries(
            inputs.pool, static_cast<size_t>(stream.rows[i]), qpr));
      }
    }
    cache::CachedRetrieval value;
    value.neighbors.assign(static_cast<size_t>(qpr),
                           std::vector<ann::Neighbor>(kTopK));
    SpanTrace::Scope span(spans, "probe.cache");
    int64_t ops = 0;
    const double replay_s = MinSecondsPerCall(
        [&] {
          cache::LruRetrievalCache lru(spec.retrieval_cache);
          ops = 0;
          for (uint64_t fp : fingerprints) {
            ++ops;
            if (lru.Lookup(fp) == nullptr) {
              lru.Insert(fp, value);
              ++ops;
            }
          }
        },
        3);
    lookup_ns = replay_s / static_cast<double>(ops) * 1e9;
  }
  metrics.Set("cache.lookup_ns", lookup_ns);
  spans.End();  // run

  // Self time per span name, the ledger, and the written spans.
  std::printf("%-22s %7s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : spans.Summarize()) {
    std::printf("%-22s %7" PRId64 " %12.6f %12.6f\n", name.c_str(), t.count,
                t.total_s, t.self_s);
  }
  std::printf("ledger (median of %d Serve calls): serve %.4f s = scan %.4f "
              "+ engine %.4f + observers %.4f + unattributed %.4f; replayed "
              "scan %.4f s vs real_scan_seconds %.4f s; tracing overhead "
              "%.4f s\n",
              kTracedReps, serve_s, scan, engine, observer,
              serve_s - scan - engine - observer, call_total, scan,
              metrics.Get("ledger.tracing_overhead_s"));
  if (!spans_path.empty()) {
    checks.Expect(spans.WriteJson(spans_path), "cannot write " + spans_path);
  }
  phases.Print();
  metrics.Print(false, checks.ok(), phases.Attempted(), phases.Lost());
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name != workload) {
      continue;
    }
    try {
      return trace != 0 ? RunTraced(spec, seed, spans_path)
                        : RunEndToEnd(spec, seed, seconds);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ragbench: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
