/**
 * @file serving_sim.h
 * Trace-driven discrete-event simulation of a RAG serving schedule.
 *
 * The analytical pipeline model (core/pipeline_model.h) predicts
 * steady-state throughput and batch-flow latency in closed form. This
 * simulator executes the same schedule event by event against an
 * arrival trace: requests queue per stage, collocation groups
 * time-multiplex their member stages (paper Fig. 14), the retrieval
 * tier serves fixed-size query batches, and decode runs continuous
 * batching. There is one serving engine: SimulateServing is a
 * priced-only run of the online runtime's event loop
 * (runtime::ServePriced) with admission unbounded and no cache, so it
 * agrees bit for bit on every virtual-clock output with a live Serve
 * of the same trace under the same conditions. It serves two purposes:
 *  - validation: at saturation the measured throughput must approach
 *    the analytical QPS; at low load the TTFT must approach the sum
 *    of stage latencies (tested in tests/test_serving_sim.cc);
 *  - queueing behavior the closed form cannot express (burst backlogs,
 *    partially filled batches under light load).
 */
#ifndef RAGO_SIM_SERVING_SIM_H
#define RAGO_SIM_SERVING_SIM_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline_model.h"
#include "core/schedule.h"
#include "retrieval/perf/retrieval_model.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "serving/obs/trace.h"
#include "serving/runtime/workload.h"

namespace rago::sim {

// The arrival-trace type and its generators live in the shared
// scenario library (serving/runtime/workload.h) so the DES and the
// online runtime consume identical traffic; these aliases keep the
// historical sim:: spellings working.
using ArrivalTrace = ::rago::runtime::ArrivalTrace;

/// Uniform (open-loop) arrivals: `count` requests at fixed `qps`.
inline ArrivalTrace UniformTrace(int count, double qps) {
  return ::rago::runtime::UniformTrace(count, qps);
}

/// Poisson arrivals at rate `qps`, seeded.
inline ArrivalTrace PoissonTrace(int count, double qps, uint64_t seed) {
  return ::rago::runtime::PoissonTrace(count, qps, seed);
}

/// One burst of `count` simultaneous arrivals at t = 0.
inline ArrivalTrace BurstTrace(int count) {
  return ::rago::runtime::BurstTrace(count);
}

/// Simulation knobs.
struct ServingSimOptions {
  /// Maximum time a stage waits to fill its batch before flushing a
  /// partial one (prevents starvation under light load). Must be
  /// non-negative (validated by SimulateServing).
  double batch_timeout = 0.050;
  /**
   * Pluggable retrieval tier: when set, retrieval service times come
   * from this model (e.g. a MeasuredRetrievalModel calibrated from a
   * functional sharded scan) instead of the pipeline model's
   * analytical EvalRetrieval. Not owned; must outlive the call.
   */
  const retrieval::RetrievalModel* retrieval_model = nullptr;
  /**
   * Optional span-trace recorder (serving/obs/trace.h): when set, the
   * simulation appends arrival/queue/batch/stage/decode spans and
   * queue-depth/utilization counters on the virtual clock — the
   * runtime's recording, minus the real-scan wall-clock args.
   * Observation-only: every ServingSimResult field is identical with
   * tracing on or off. Not owned; must outlive the call.
   */
  obs::TraceRecorder* trace = nullptr;
  /**
   * Optional windowed telemetry sink (serving/obs/timeseries.h): the
   * simulation rolls offered/completed counts, TTFT/TPOT/queue-wait
   * latencies, queue depths, and server busy time into fixed
   * virtual-clock windows — byte-identical to what the online runtime
   * feeds for the same trace with admission out of reach and no cache.
   * Observation-only. Not owned; must outlive the call.
   */
  obs::TelemetryTimeSeries* timeseries = nullptr;
  /**
   * Optional burn-rate alert engine (serving/obs/slo_alerts.h); fed
   * every closed telemetry window. Requires `timeseries`. The sim has
   * no outcome digest, so `fold_into_digest` has no effect here.
   * Not owned; must outlive the call.
   */
  obs::SloAlertEngine* alerts = nullptr;
  /**
   * Optional flight recorder (serving/obs/flight_recorder.h): a
   * bounded ring of recent begin/window/alert notes, dumped to
   * `flight_dump_path` (when non-empty) at the end of the run and on
   * any exception unwinding the simulation. Not owned.
   */
  obs::FlightRecorder* flight = nullptr;
  std::string flight_dump_path;
  /**
   * SLO bounds used to classify completions for windowed attainment
   * and burn-rate alerting. <= 0 disables that bound (the runtime's
   * SloTarget has no "disabled", so it becomes an infinite bound).
   */
  double slo_ttft_seconds = 0.0;
  double slo_tpot_seconds = 0.0;
};

/// Aggregate results of one simulation run. Percentiles use the
/// shared nearest-rank convention of common/histogram.h (the same
/// implementation the online runtime reports through).
struct ServingSimResult {
  int64_t completed = 0;
  double makespan = 0.0;        ///< Last completion time (s).
  double throughput = 0.0;      ///< Completed / makespan.
  double avg_ttft = 0.0;        ///< Mean time to first token (s).
  double p50_ttft = 0.0;        ///< Median TTFT (s).
  double p95_ttft = 0.0;        ///< 95th-percentile TTFT (s).
  double p99_ttft = 0.0;        ///< 99th-percentile TTFT (s).
  double avg_tpot = 0.0;        ///< Mean time per output token (s).
  double p50_tpot = 0.0;        ///< Median TPOT (s).
  double p95_tpot = 0.0;        ///< 95th-percentile TPOT (s).
  double p99_tpot = 0.0;        ///< 99th-percentile TPOT (s).
  /// Busy-time fraction of each collocation group, indexed by group.
  std::vector<double> group_utilization;
  double retrieval_utilization = 0.0;
  double decode_utilization = 0.0;
};

/**
 * Executes `schedule` on `model` against the arrival trace.
 * Deterministic; all stage service times come from the same cost
 * models the optimizer uses.
 */
ServingSimResult SimulateServing(const core::PipelineModel& model,
                                 const core::Schedule& schedule,
                                 const ArrivalTrace& trace,
                                 const ServingSimOptions& options = {});

}  // namespace rago::sim

#endif  // RAGO_SIM_SERVING_SIM_H
