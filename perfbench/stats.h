/**
 * @file stats.h
 * Statistics helpers and the metric table of the RAG serving
 * benchmark. Header-only so the benchmark program and its self-test
 * share one definition.
 */
#ifndef RAGO_PERFBENCH_STATS_H
#define RAGO_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for even sizes).
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("median of an empty sample");
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// First and third quartile, as Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method) gives them.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};

inline Quartiles QuartilesOf(std::vector<double> values) {
  const size_t n = values.size();
  if (n < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  const auto cut = [&](size_t i) {
    const size_t m = n + 1;
    size_t j = i * m / 4;
    j = std::min(std::max<size_t>(j, 1), n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  return Quartiles{cut(1), cut(3)};
}

/// Nearest-rank percentile: the smallest sample with at least p% of
/// the samples at or below it. `p` in (0, 100].
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty() || !(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile needs samples and p in (0,100]");
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * values.size() - 1e-9);
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Samples strictly above the nearest-rank p-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * n - 1e-9);
  return n - static_cast<size_t>(std::max(rank, 1.0));
}

/**
 * The highest percentile of the ladder {50, 90, 99, 99.9, 99.99} that
 * leaves at least `min_beyond` samples above it among `n` samples; 0
 * when not even the median does.
 */
inline double HighestSupportedPercentile(size_t n, size_t min_beyond = 10) {
  const double ladder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : ladder) {
    if (n > 0 && SamplesBeyond(n, p) >= min_beyond) {
      return p;
    }
  }
  return 0.0;
}

enum class Better { kLower, kHigher };

/// One reported metric: its unit and which direction is an improvement.
struct MetricSpec {
  const char* name;
  const char* unit;
  Better better;
  bool end_to_end;  ///< Reported untraced; otherwise by the traced run.
};

/**
 * Every metric the benchmark reports. BENCHMARK.json lists the same
 * names, units and directions; the self-test checks the two agree.
 */
inline const std::vector<MetricSpec>& MetricTable() {
  using B = Better;
  static const std::vector<MetricSpec> table = {
      // End to end (untraced runs).
      {"serve_rps", "req/s", B::kHigher, true},
      {"setup_s", "s", B::kLower, true},
      {"peak_rss_mb", "MB", B::kLower, true},
      {"ttft_p50_ms", "ms", B::kLower, true},
      {"ttft_p99_ms", "ms", B::kLower, true},
      {"tpot_p50_ms", "ms", B::kLower, true},
      {"tpot_p99_ms", "ms", B::kLower, true},
      {"slo_attainment", "fraction", B::kHigher, true},
      {"goodput_qps", "req/s", B::kHigher, true},
      {"admitted_frac", "fraction", B::kHigher, true},
      {"recall_at_1", "fraction", B::kHigher, true},
      {"plan_qps_per_chip", "QPS/chip", B::kHigher, true},
      // kernels: src/retrieval/ann/kernels.
      {"kernels.l2_tile_gbps", "GB/s", B::kHigher, false},
      {"kernels.l2_batch_gbps", "GB/s", B::kHigher, false},
      {"kernels.bytes_per_query", "B", B::kLower, false},
      // ann: src/retrieval/ann top-k and scans.
      {"ann.scan_rows_ns_per_row", "ns", B::kLower, false},
      {"ann.topk_share", "fraction", B::kLower, false},
      // sharded: src/retrieval/serving.
      {"sharded.build_s", "s", B::kLower, false},
      {"sharded.call_ms_p50", "ms", B::kLower, false},
      {"sharded.call_ms_p99", "ms", B::kLower, false},
      {"sharded.queries_per_call", "count", B::kHigher, false},
      {"sharded.max_shard_frac", "fraction", B::kLower, false},
      {"sharded.imbalance", "ratio", B::kLower, false},
      {"sharded.merge_frac", "fraction", B::kLower, false},
      {"sharded.parallel_eff", "fraction", B::kHigher, false},
      {"sharded.scan_bytes_per_query", "B", B::kLower, false},
      {"sharded.recall_at_10", "fraction", B::kHigher, false},
      // cache: src/serving/cache.
      {"cache.retrieval_hit_rate", "fraction", B::kHigher, false},
      {"cache.retrieval_evictions", "count", B::kLower, false},
      {"cache.prefix_hit_rate", "fraction", B::kHigher, false},
      {"cache.lookup_ns", "ns", B::kLower, false},
      // runtime: src/serving/runtime (the event loop).
      {"runtime.scan_frac", "fraction", B::kLower, false},
      {"runtime.engine_s", "s", B::kLower, false},
      {"runtime.batches", "count", B::kLower, false},
      {"runtime.full_batch_frac", "fraction", B::kHigher, false},
      {"runtime.queue_wait_p50_ms", "ms", B::kLower, false},
      {"runtime.queue_wait_p99_ms", "ms", B::kLower, false},
      {"runtime.retrieval_util", "fraction", B::kHigher, false},
      {"runtime.decode_util", "fraction", B::kHigher, false},
      {"runtime.max_queue_depth", "count", B::kLower, false},
      // obs: src/serving/obs.
      {"obs.overhead_frac", "fraction", B::kLower, false},
      {"obs.trace_events", "count", B::kLower, false},
      {"obs.sampled_frac", "fraction", B::kLower, false},
      {"obs.windows_closed", "count", B::kLower, false},
      {"obs.alert_transitions", "count", B::kLower, false},
      // optimizer: src/rago (set-up).
      {"optimizer.search_s", "s", B::kLower, false},
      {"optimizer.schedules_evaluated", "count", B::kLower, false},
      // The ledger of one Serve call's wall time, and the tracing cost.
      {"ledger.serve_s", "s", B::kLower, false},
      {"ledger.scan_s", "s", B::kLower, false},
      {"ledger.engine_s", "s", B::kLower, false},
      {"ledger.observer_s", "s", B::kLower, false},
      {"ledger.remainder_s", "s", B::kLower, false},
      {"ledger.replay_scan_s", "s", B::kLower, false},
      {"ledger.tracing_overhead_s", "s", B::kLower, false},
  };
  return table;
}

/// The table entry named `name`, or null.
inline const MetricSpec* FindMetric(const std::string& name) {
  for (const MetricSpec& spec : MetricTable()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

}  // namespace perfbench

#endif  // RAGO_PERFBENCH_STATS_H
