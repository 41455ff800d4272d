#include "sim/serving_sim.h"

#include <limits>

#include "serving/runtime/runtime.h"

namespace rago::sim {

ServingSimResult
SimulateServing(const core::PipelineModel& model,
                const core::Schedule& schedule, const ArrivalTrace& trace,
                const ServingSimOptions& options) {
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  runtime::RuntimeOptions engine;
  // No admission control: a queue limit no trace can reach.
  engine.admission_queue_limit = std::numeric_limits<int>::max();
  engine.batch_timeout = options.batch_timeout;
  engine.retrieval_model = options.retrieval_model;
  // An SLO bound <= 0 is disabled: no latency misses an infinite one.
  engine.slo.ttft_seconds =
      options.slo_ttft_seconds > 0 ? options.slo_ttft_seconds : kUnbounded;
  engine.slo.tpot_seconds =
      options.slo_tpot_seconds > 0 ? options.slo_tpot_seconds : kUnbounded;
  // Timeline points carry the trace's counter tracks and nothing the
  // result reports, so keep every one while tracing and none otherwise.
  engine.timeline_limit =
      options.trace != nullptr ? std::numeric_limits<int>::max() : 0;
  engine.trace = options.trace;
  engine.timeseries = options.timeseries;
  engine.alerts = options.alerts;
  engine.flight = options.flight;
  engine.flight_dump_path = options.flight_dump_path;
  const runtime::RuntimeResult run =
      runtime::ServePriced(model, schedule, trace, engine);

  ServingSimResult result;
  result.completed = run.completed;
  result.makespan = run.makespan;
  result.throughput = run.throughput;
  result.avg_ttft = run.ttft.Mean();
  result.p50_ttft = run.ttft.Percentile(0.50);
  result.p95_ttft = run.ttft.Percentile(0.95);
  result.p99_ttft = run.ttft.Percentile(0.99);
  result.avg_tpot = run.tpot.Mean();
  result.p50_tpot = run.tpot.Percentile(0.50);
  result.p95_tpot = run.tpot.Percentile(0.95);
  result.p99_tpot = run.tpot.Percentile(0.99);
  // Per server, not per stage: a collocation group's stages share one
  // busy sum, accumulated in batch-start order.
  const auto groups = static_cast<size_t>(schedule.NumGroups());
  result.group_utilization.resize(groups);
  for (size_t g = 0; g < groups; ++g) {
    result.group_utilization[g] = run.server_busy_seconds[g] / run.makespan;
  }
  result.retrieval_utilization =
      run.server_busy_seconds[groups] / run.makespan;
  result.decode_utilization = run.decode_utilization;
  return result;
}

}  // namespace rago::sim
