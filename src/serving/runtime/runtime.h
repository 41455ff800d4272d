/**
 * @file runtime.h
 * Online RAG serving runtime: a request-level scheduler that executes
 * a RAGO schedule against live traffic. Its event loop is the one
 * serving engine in the tree; the serving DES is the same loop run
 * priced-only (ServePriced below).
 *
 * The analytical model (core/pipeline_model.h) predicts a schedule's
 * steady state in closed form. This runtime serves it: requests from a
 * workload scenario (serving/runtime/workload.h) are admitted through
 * a bounded queue and driven through the schedule's stage graph with
 * per-stage continuous batching (size/timeout flush), and the
 * retrieval stage executes **real** ShardedIndex::SearchBatch scans —
 * any backend/partitioner, SIMD kernels and all — fanned out on the
 * shared thread pool. Without a live index (ServePriced) the same loop
 * prices retrieval and scans nothing, which is the DES.
 *
 * Execution is hybrid: XPU stages (encoder/rewriter/rerank/prefix) and
 * decode consume modeled service times from the same PipelineModel
 * cost models the optimizer uses, advanced on a virtual clock, while
 * the retrieval stage's *results* come from real scans (its virtual
 * service time stays model-priced so telemetry is reproducible). Wall
 * time is therefore dominated by the real scans, and one machine can
 * serve a schedule chosen by the optimizer over the very same
 * calibrated costs — the end-to-end closed loop on the ROADMAP.
 *
 * Determinism contract: a fixed workload and query assignment yield
 * bit-identical request outcomes (retrieved ids, TTFT/TPOT), telemetry
 * histograms, and the outcome digest for every num_threads, because
 * the scheduler loop is serial on virtual time and ShardedIndex
 * guarantees thread-count-invariant merged top-k.
 */
#ifndef RAGO_SERVING_RUNTIME_RUNTIME_H
#define RAGO_SERVING_RUNTIME_RUNTIME_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/pipeline_model.h"
#include "core/schedule.h"
#include "retrieval/perf/retrieval_model.h"
#include "retrieval/serving/sharded_index.h"
#include "serving/cache/rago_cache.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "serving/obs/trace.h"
#include "serving/runtime/workload.h"

namespace rago::runtime {

/// Latency service-level objective for one deployment.
struct SloTarget {
  double ttft_seconds = 0.5;   ///< Max acceptable time to first token.
  double tpot_seconds = 0.05;  ///< Max acceptable time per output token.
};

/// Runtime configuration knobs.
struct RuntimeOptions {
  /**
   * Bounded admission queue: arrivals finding this many requests
   * already waiting at the first stage are rejected (counted, never
   * served). Must be positive.
   */
  int admission_queue_limit = 4096;
  /// Maximum virtual seconds a stage waits to fill its batch before
  /// flushing a partial one. Must be non-negative.
  double batch_timeout = 0.050;
  /**
   * Worker threads for the real retrieval scans: 0 = hardware
   * concurrency, 1 = a single worker. Results and telemetry are
   * bit-identical for every value (the ShardedIndex contract).
   */
  int num_threads = 0;
  /// Neighbors fetched per query vector by the retrieval stage.
  int top_k = 10;
  /// SLO the attainment metric is scored against.
  SloTarget slo;
  /**
   * Optional deterministic pricing of the retrieval stage's virtual
   * service time (e.g. a MeasuredRetrievalModel calibrated from this
   * very index). Defaults to the pipeline model's EvalRetrieval —
   * identical to the DES's treatment. Not owned; must outlive Serve.
   */
  const retrieval::RetrievalModel* retrieval_model = nullptr;
  /// Per-stage cap on the queue-depth samples a trace records: each is
  /// a pair of Chrome counter events (queue depth and utilization so
  /// far). 0 records no counter tracks; without `trace` it has no
  /// effect.
  int timeline_limit = 4096;
  /**
   * Multi-level cache tier (serving/cache/rago_cache.h). With
   * retrieval_capacity > 0, requests whose query fingerprint is cached
   * skip the real scan *and* the retrieval batch entirely: the cached
   * results are delivered after cache::kLookupSeconds and the next
   * stage is enqueued immediately (retrieval/prefill overlap). With
   * doc_capacity > 0, each request's retrieved doc ids are measured
   * against a document KV cache and prefix batches are priced with the
   * measured per-batch hit fraction instead of the schema's assumed
   * prefix_cache_hit_rate. Zero capacities (the default) disable each
   * level and reproduce cacheless serving bit-identically.
   */
  cache::CacheOptions cache;

  /**
   * Optional span-trace recorder (serving/obs/trace.h). When set,
   * Serve appends admission/queue/batch/stage/cache/decode spans on
   * the virtual clock as it schedules; null (the default) records
   * nothing. Observation-only by contract: every RuntimeResult field,
   * including the outcome digest, is bit-identical with tracing on or
   * off — the invariance tests pin this. Not owned; must outlive
   * Serve. Appends happen on the serial scheduler loop only.
   */
  obs::TraceRecorder* trace = nullptr;
  /**
   * Optional metrics registry (common/metrics.h). When set, Serve
   * records its counters/gauges and streams TTFT/TPOT/queue-wait into
   * bounded histograms under "runtime.*" names. Same observation-only
   * contract as `trace`. Not owned; must outlive Serve.
   */
  MetricsRegistry* metrics = nullptr;
  /**
   * Optional windowed telemetry (serving/obs/timeseries.h). When set,
   * Serve rolls arrivals/rejections/completions/queue-depth/busy-time
   * into fixed virtual-clock windows with the retention ladder keeping
   * memory bounded for any run length, and closes windows as the event
   * loop passes their upper edge. Same observation-only contract as
   * `trace`; thread-count invariant. Not owned; must outlive Serve and
   * arrive unfinished (Serve calls Finish at the end of the run).
   */
  obs::TelemetryTimeSeries* timeseries = nullptr;
  /**
   * Optional burn-rate alerting (serving/obs/slo_alerts.h). Requires
   * `timeseries`; each closed fine window is fed to the engine and the
   * resulting transitions are emitted as trace instants (when tracing)
   * and flight records (when flying). Observation-only: transitions
   * never reach the outcome digest. Not owned; must outlive Serve.
   */
  obs::SloAlertEngine* alerts = nullptr;
  /**
   * Optional flight recorder (serving/obs/flight_recorder.h): a
   * bounded ring of recent window/alert/rejection/milestone records.
   * When serving aborts (RAGO_CHECK failure or any exception unwinding
   * the event loop) an "exception" record is appended before the
   * exception continues; callers dump the ring with
   * FlightRecorder::DumpToFile. Not owned.
   */
  obs::FlightRecorder* flight = nullptr;

  /// Throws ConfigError on invalid knobs.
  void Validate() const;
};

/// Per-stage telemetry of one Serve call.
struct StageTelemetry {
  core::StageType type = core::StageType::kPrefix;
  int server = 0;           ///< Collocation group id, or the dedicated
                            ///< retrieval server index.
  int64_t batches = 0;      ///< Batches flushed (full or timed out).
  int64_t full_batches = 0; ///< Batches flushed at the configured size.
  int64_t requests = 0;     ///< Requests processed.
  double busy_seconds = 0.0;  ///< Virtual server occupancy.
  double utilization = 0.0;   ///< busy_seconds / makespan.
  int max_queue_depth = 0;
  Histogram queue_wait;       ///< Virtual wait from enqueue to flush.
};

/// Outcome of one request (virtual seconds unless noted).
struct RequestOutcome {
  double arrival = 0.0;
  bool admitted = false;
  double ttft = -1.0;        ///< Arrival to first token; -1 if rejected.
  double decode_start = -1.0;  ///< Admission into the decode pool.
  double tpot = -1.0;        ///< Decode seconds per output token (from
                             ///< decode_start, matching the DES).
  double completion = -1.0;  ///< Absolute completion time.
  double queue_wait = 0.0;   ///< Summed pre-decode queue waits.
  int64_t first_neighbor = -1;  ///< Top-1 global id of the request's
                                ///< first query (a real scan result
                                ///< or its cached equivalent).
  bool slo_ok = false;       ///< Completed within both SLO targets.
  /// Served from the retrieval-result cache (no real scan ran).
  bool retrieval_cache_hit = false;
  /// Measured fraction of this request's retrieved documents resident
  /// in the KV cache when its results landed (0 when that level is
  /// disabled) — the measured prefix_cache_hit_rate.
  double prefix_hit_fraction = 0.0;
};

/// Aggregate result of one Serve call.
struct RuntimeResult {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  double makespan = 0.0;     ///< Last completion (virtual seconds).
  double throughput = 0.0;   ///< completed / makespan.

  Histogram ttft;            ///< Completed requests only.
  Histogram tpot;
  Histogram queue_wait;      ///< Summed pre-decode waits per request.

  /**
   * Fraction of *submitted* requests that completed within both SLO
   * targets — rejected requests score as violations, so shedding load
   * cannot inflate attainment.
   */
  double slo_attainment = 0.0;

  std::vector<StageTelemetry> stages;  ///< Pre-decode stages, in order.
  double decode_utilization = 0.0;
  int max_decode_queue_depth = 0;

  /**
   * Cache-tier telemetry: hit/miss/eviction/insertion counters of the
   * retrieval-result cache and the document KV cache, and the mean
   * measured prefix hit fraction over admitted requests — the
   * *measured* quantity that replaces the schema's assumed
   * prefix_cache_hit_rate. All folded into the outcome digest, so the
   * determinism sweep pins them for every thread count.
   */
  cache::CacheCounters retrieval_cache;
  cache::CacheCounters doc_cache;
  double measured_prefix_hit_rate = 0.0;

  /// Engine health (virtual, thread-count invariant): events popped
  /// from the scheduler heap, the heap's largest size, and decode
  /// steps executed.
  int64_t events_processed = 0;
  int64_t event_heap_high_water = 0;
  int64_t decode_steps = 0;

  /// Virtual occupancy per server (collocation groups by id, then the
  /// retrieval tier), summed in batch-start order.
  std::vector<double> server_busy_seconds;

  /// Real-scan accounting (host wall clock; *not* covered by the
  /// determinism contract, unlike everything above).
  double real_scan_seconds = 0.0;
  double real_scan_bytes = 0.0;
  int64_t real_queries_scanned = 0;

  std::vector<RequestOutcome> requests;  ///< Indexed by request id.

  /**
   * FNV-1a digest over every request outcome in id order: admission,
   * retrieved (id, distance-bit) pairs, and TTFT/TPOT/completion bit
   * patterns. Two runs serve identically iff digests match — the
   * determinism tests sweep num_threads against this.
   */
  uint64_t outcome_digest = 0;
};

/**
 * The serving engine for one (model, schedule, index) deployment.
 * Construction validates the schedule against the model and the
 * options; Serve may be called repeatedly (each call is independent).
 */
class ServingRuntime {
 public:
  /**
   * `model`, `index`, and (when set) `options.retrieval_model` are
   * borrowed and must outlive the runtime. The schema must not use
   * iterative retrieval (runtime counterpart of the DES restriction).
   */
  ServingRuntime(const core::PipelineModel& model, core::Schedule schedule,
                 const serving::ShardedIndex& index,
                 RuntimeOptions options = {});

  /**
   * Serves `workload` end to end. Each admitted request draws
   * queries_per_retrieval consecutive rows (wrapping) from
   * `query_pool`, starting at a seed-derived row (a fixed seed, so
   * every call assigns the same rows), and retrieves
   * top_k neighbors through the live sharded index.
   */
  RuntimeResult Serve(const ArrivalTrace& workload,
                      const ann::Matrix& query_pool) const;

  /**
   * Serves with an explicit per-request query assignment (workload.h
   * query streams — Zipfian, repeat-neighbor, ...): request i starts
   * drawing pool rows at stream.rows[i] instead of a seed-derived
   * row. stream.rows.size() must equal the arrival count; rows must
   * be in [0, query_pool.rows()). This is the path that exercises
   * realistic cache hit rates.
   */
  RuntimeResult Serve(const ArrivalTrace& workload,
                      const ann::Matrix& query_pool,
                      const QueryStream& stream) const;

  const core::Schedule& schedule() const { return schedule_; }
  const RuntimeOptions& options() const { return options_; }

 private:
  RuntimeResult ServeLive(const ArrivalTrace& workload,
                          const ann::Matrix& query_pool,
                          const std::vector<size_t>& row_start) const;

  const core::PipelineModel& model_;
  core::Schedule schedule_;
  const serving::ShardedIndex& index_;
  RuntimeOptions options_;
  /// Owned pool of ResolveNumThreads(options_.num_threads) workers
  /// (always allocated, even for a single worker, so scan parallelism
  /// follows this runtime's knob rather than the index's own default).
  std::unique_ptr<ThreadPool> pool_;
};

/**
 * Serves `workload` through ServingRuntime's event loop with the
 * retrieval stage priced only: its batches occupy the retrieval
 * servers for their modeled service time, but nothing is scanned, so
 * no neighbors are recorded (first_neighbor stays -1). Nonzero cache
 * capacities throw ConfigError (the cache tier needs real results);
 * num_threads and top_k have no effect. Schemas without a
 * retrieval stage are accepted. This is the serving DES: every
 * virtual-clock output equals a live Serve's under the same options,
 * and server g's utilization is server_busy_seconds[g] / makespan.
 */
RuntimeResult ServePriced(const core::PipelineModel& model,
                          const core::Schedule& schedule,
                          const ArrivalTrace& workload,
                          const RuntimeOptions& options);

}  // namespace rago::runtime

#endif  // RAGO_SERVING_RUNTIME_RUNTIME_H
