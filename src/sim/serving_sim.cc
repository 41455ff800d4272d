#include "sim/serving_sim.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <limits>
#include <queue>
#include <string>

#include "common/check.h"
#include "common/histogram.h"
#include "core/stage.h"
#include "serving/runtime/decode_pool.h"

namespace rago::sim {
namespace {

using core::PipelineModel;
using core::Schedule;
using core::StageType;

/// One pipeline processing step in execution order.
struct SimStage {
  StageType type = StageType::kPrefix;
  int server = 0;       ///< Server index (group id, or dedicated ids).
  int64_t batch = 1;    ///< Configured batch size.
  double latency = 0.0; ///< Completion time for one batch.
  /// Time the server is occupied per batch. Pipeline-parallel plans
  /// overlap batches, so the initiation interval (batch / stage
  /// throughput) can be shorter than the completion latency.
  double interval = 0.0;
  std::deque<int> queue;
  /// Parallel to `queue`; maintained only while tracing (queue-wait
  /// spans need each member's enqueue time).
  std::deque<double> enqueue_times;
  double oldest_enqueue = 0.0;
};

struct Request {
  double arrival = 0.0;
  double ttft = -1.0;       ///< Set when the prefix stage completes.
  double decode_start = -1.0;
  double completion = -1.0;
};

/// Event-queue entry.
struct Event {
  double time = 0.0;
  int kind = 0;  // 0 = arrival, 1 = server-done, 2 = flush, 3 = step.
  int a = 0;     // arrival: request id; server-done/flush: stage index.

  friend bool operator>(const Event& lhs, const Event& rhs) {
    if (lhs.time != rhs.time) {
      return lhs.time > rhs.time;
    }
    if (lhs.kind != rhs.kind) {
      return lhs.kind > rhs.kind;  // Prefer arrivals first at ties.
    }
    // Payload ascending: simultaneous arrivals (burst traces) enqueue
    // in request-id order on every standard library, mirroring the
    // runtime's scheduler so the engines stay cross-checkable.
    return lhs.a > rhs.a;
  }
};

}  // namespace

ServingSimResult
SimulateServing(const PipelineModel& model, const Schedule& schedule,
                const ArrivalTrace& trace,
                const ServingSimOptions& options) {
  RAGO_REQUIRE(!trace.arrivals.empty(), "empty arrival trace");
  RAGO_REQUIRE(options.batch_timeout >= 0,
               "batch_timeout must be non-negative");
  RAGO_REQUIRE(options.alerts == nullptr || options.timeseries != nullptr,
               "burn-rate alerting requires a telemetry time-series");
  RAGO_REQUIRE(!model.schema().IterativeRetrieval(),
               "iterative retrieval uses SimulateIterativeDecode");
  schedule.Validate(model.chain().size());

  // --- Build the stage sequence with precomputed service times. ---
  const auto& chain = model.chain();
  std::vector<SimStage> stages;
  const int retrieval_server = schedule.NumGroups();
  size_t chain_index = 0;
  for (StageType type : model.schema().AllStages()) {
    if (type == StageType::kDecode) {
      continue;  // Decode is handled by the continuous-batching pool.
    }
    SimStage stage;
    stage.type = type;
    if (type == StageType::kRetrieval) {
      stage.server = retrieval_server;
      stage.batch = schedule.retrieval_batch;
      if (options.retrieval_model != nullptr) {
        // Swapped-in tier (e.g. measured sharded-scan costs): a batch
        // of requests issues queries_per_retrieval vectors each.
        const int64_t queries =
            stage.batch * model.schema().retrieval.queries_per_retrieval;
        const retrieval::RetrievalCost cost =
            options.retrieval_model->Search(queries);
        stage.latency = cost.latency;
        stage.interval =
            static_cast<double>(queries) / cost.throughput;
      } else {
        const core::StagePerf perf = model.EvalRetrieval(
            static_cast<int>(stage.batch), schedule.retrieval_servers);
        RAGO_REQUIRE(perf.feasible, "retrieval infeasible under schedule");
        stage.latency = perf.latency;
        stage.interval = static_cast<double>(stage.batch) / perf.throughput;
      }
    } else {
      RAGO_CHECK(chain_index < chain.size(), "chain/stage walk mismatch");
      const int group = schedule.chain_group[chain_index];
      stage.server = group;
      stage.batch = schedule.chain_batch[chain_index];
      const core::StagePerf perf = model.EvalChainStage(
          type, schedule.group_chips[static_cast<size_t>(group)],
          stage.batch);
      RAGO_REQUIRE(perf.feasible, "stage infeasible under schedule");
      stage.latency = perf.latency;
      stage.interval = static_cast<double>(stage.batch) / perf.throughput;
      ++chain_index;
    }
    stages.push_back(std::move(stage));
  }
  const int num_servers = retrieval_server + 1;

  const core::StagePerf decode_perf =
      model.EvalDecode(schedule.decode_chips, schedule.decode_batch);
  RAGO_REQUIRE(decode_perf.feasible, "decode infeasible under schedule");
  // Step cadence: the pool emits `batch` tokens per step and sustains
  // the plan's request throughput (pipeline-parallel plans interleave
  // batches, so the cadence can beat the raw step latency).
  const int decode_tokens = model.schema().workload.decode_tokens;
  const double step_latency =
      static_cast<double>(schedule.decode_batch) /
      (decode_perf.throughput * decode_tokens);

  // --- Span tracing (opt-in, observation-only: appends never feed
  // back into scheduling, so results are invariant to `recorder`).
  // Track layout matches the online runtime's so the two engines'
  // traces line up side by side in chrome://tracing. ---
  obs::TraceRecorder* recorder = options.trace;
  const int decode_row = num_servers;
  if (recorder != nullptr) {
    recorder->SetProcessName(0, "servers");
    recorder->SetProcessName(1, "requests");
    for (int g = 0; g < schedule.NumGroups(); ++g) {
      recorder->SetThreadName(0, g, "xpu group " + std::to_string(g));
    }
    recorder->SetThreadName(0, retrieval_server, "retrieval servers");
    recorder->SetThreadName(0, decode_row, "decode pool");
  }
  // Names recorded per request, per step or per queue change, interned
  // once so the event loop records by id.
  struct TraceNames {
    obs::TraceName admission, arrival, stage, queue, telemetry,
        first_token, decode_step, decode, request, active, batch, latency;
    std::vector<obs::TraceName> queue_of, exec_of, depth_of;  ///< Per stage.
  } names;
  if (recorder != nullptr) {
    names.admission = recorder->Intern("admission");
    names.arrival = recorder->Intern("arrival");
    names.stage = recorder->Intern("stage");
    names.queue = recorder->Intern("queue");
    names.telemetry = recorder->Intern("telemetry");
    names.first_token = recorder->Intern("first-token");
    names.decode_step = recorder->Intern("decode-step");
    names.decode = recorder->Intern("decode");
    names.request = recorder->Intern("request");
    names.active = recorder->Intern("active");
    names.batch = recorder->Intern("batch");
    names.latency = recorder->Intern("latency");
    for (size_t s = 0; s < stages.size(); ++s) {
      const std::string stage_name = core::StageName(stages[s].type);
      names.queue_of.push_back(recorder->Intern("queue:" + stage_name));
      names.exec_of.push_back(recorder->Intern("exec:" + stage_name));
      names.depth_of.push_back(recorder->Intern(
          "queue-depth: " + stage_name + " s" + std::to_string(s)));
    }
  }

  // --- Windowed telemetry, burn-rate alerting, flight recorder (all
  // opt-in and observation-only; driven on the virtual clock from the
  // serial loop, exactly like the online runtime's wiring, so the two
  // engines' telemetry is directly comparable). ---
  obs::TelemetryTimeSeries* series = options.timeseries;
  obs::SloAlertEngine* alerts = options.alerts;
  obs::FlightRecorder* flight = options.flight;
  const int alert_row = decode_row + 1;
  if (recorder != nullptr && alerts != nullptr) {
    recorder->SetThreadName(0, alert_row, "slo alerts");
  }
  if (flight != nullptr) {
    flight->Append(0.0, "note",
                   "sim begin: " + std::to_string(trace.arrivals.size()) +
                       " requests");
  }

  // --- Simulation state. ---
  std::vector<Request> requests(trace.arrivals.size());
  for (size_t i = 0; i < trace.arrivals.size(); ++i) {
    requests[i].arrival = trace.arrivals[i];
  }
  std::vector<double> server_busy_until(static_cast<size_t>(num_servers),
                                        0.0);
  std::vector<double> server_busy_time(static_cast<size_t>(num_servers),
                                       0.0);
  runtime::DecodePool decode_pool(schedule.decode_batch, decode_tokens);
  double decode_busy_time = 0.0;
  bool step_scheduled = false;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
      events;
  for (size_t i = 0; i < trace.arrivals.size(); ++i) {
    events.push(Event{trace.arrivals[i], 0, static_cast<int>(i)});
  }

  int64_t completed = 0;
  double now = 0.0;

  // In-flight batches keyed by stage; completion events pop the
  // oldest batch of their stage (FIFO per server).
  struct InFlight {
    size_t stage = 0;
    std::vector<int> members;
  };
  std::vector<InFlight> in_flight;

  // Feeds every closed fine window to the flight recorder and the
  // alert engine; alert transitions become trace instants and flight
  // records. (No digest fold here: the sim result has no digest.)
  auto drain_telemetry_windows = [&]() {
    for (const obs::WindowSummary& window : series->DrainClosed()) {
      const double end = window.start + window.span;
      if (flight != nullptr && (window.offered > 0 || window.completed > 0)) {
        flight->Append(end, "window",
                       "offered=" + std::to_string(window.offered) +
                           " completed=" + std::to_string(window.completed),
                       window.attainment);
      }
      if (alerts == nullptr) {
        continue;
      }
      for (const obs::AlertTransition& transition :
           alerts->Observe(window)) {
        const std::string& rule_name =
            alerts->options()
                .rules[static_cast<size_t>(transition.rule)]
                .name;
        if (flight != nullptr) {
          flight->Append(transition.time, "alert",
                         rule_name +
                             (transition.firing ? " firing" : " clear"),
                         transition.short_burn);
        }
        if (recorder != nullptr) {
          recorder
              ->AddInstant("alert:" + rule_name +
                               (transition.firing ? ":firing" : ":clear"),
                           "alert", 0, alert_row, transition.time)
              .Arg("short_burn", transition.short_burn)
              .Arg("long_burn", transition.long_burn);
        }
      }
    }
  };
  // Closes windows the virtual clock has passed; called once per
  // popped event so alert evaluation lags arrivals by at most one
  // event, never by wall time.
  auto advance_telemetry = [&]() {
    if (series == nullptr) {
      return;
    }
    series->AdvanceTo(now);
    drain_telemetry_windows();
  };

  // Queue-depth observations feed both the windowed rollup and (while
  // tracing) a Chrome counter track per stage, so viewers graph depth
  // next to the spans.
  auto record_queue_depth = [&](size_t s) {
    const auto depth = static_cast<int64_t>(stages[s].queue.size());
    if (series != nullptr) {
      series->RecordQueueDepth(now, static_cast<int>(s), depth);
    }
    if (recorder != nullptr) {
      recorder->AddCounter(names.depth_of[s], names.telemetry, 0,
                           static_cast<int>(s), now,
                           static_cast<double>(depth));
    }
  };

  auto start_batches = [&](bool force) {
    for (size_t s = 0; s < stages.size(); ++s) {
      SimStage& stage = stages[s];
      const auto server = static_cast<size_t>(stage.server);
      // A server may start several queued stages back to back only
      // when it frees up, so loop while it can start.
      while (!stage.queue.empty() && server_busy_until[server] <= now) {
        const bool full =
            static_cast<int64_t>(stage.queue.size()) >= stage.batch;
        // Tolerant comparison: a flush event fires at exactly
        // oldest + timeout, and (oldest + timeout) - oldest can round
        // below timeout in floating point.
        const bool timed_out =
            now >= stage.oldest_enqueue + options.batch_timeout - 1e-9;
        if (!full && !force && !timed_out) {
          break;
        }
        const auto take = static_cast<size_t>(std::min<int64_t>(
            stage.batch, static_cast<int64_t>(stage.queue.size())));
        InFlight batch;
        batch.stage = s;
        batch.members.assign(stage.queue.begin(),
                             stage.queue.begin() + static_cast<long>(take));
        stage.queue.erase(stage.queue.begin(),
                          stage.queue.begin() + static_cast<long>(take));
        stage.oldest_enqueue = now;
        server_busy_until[server] = now + stage.interval;
        server_busy_time[server] += stage.interval;
        if (series != nullptr) {
          // Occupancy attributed to the window containing the batch
          // start (windowed utilization is a rollup, not a partition).
          series->RecordBusy(now, static_cast<int>(s), stage.interval);
        }
        if (recorder != nullptr) {
          const obs::TraceName batch_name =
              recorder->Intern(std::string(core::StageName(stage.type)) +
                               " x" + std::to_string(take));
          recorder
              ->AddComplete(batch_name, names.stage, 0, stage.server, now,
                            stage.interval)
              .Arg(names.batch, static_cast<double>(take))
              .Arg(names.latency, stage.latency);
          for (size_t i = 0; i < take; ++i) {
            const int id = batch.members[i];
            const double enqueued = stage.enqueue_times[i];
            recorder->AddComplete(names.queue_of[s], names.queue, 1, id,
                                  enqueued, now - enqueued, id);
            recorder->AddComplete(names.exec_of[s], names.stage, 1, id, now,
                                  stage.latency, id);
          }
          stage.enqueue_times.erase(
              stage.enqueue_times.begin(),
              stage.enqueue_times.begin() + static_cast<long>(take));
        }
        in_flight.push_back(std::move(batch));
        events.push(Event{now + stage.latency, 1, static_cast<int>(s)});
        record_queue_depth(s);
      }
      if (!stage.queue.empty() && server_busy_until[server] <= now) {
        // Re-check at the flush deadline.
        events.push(
            Event{stage.oldest_enqueue + options.batch_timeout, 2,
                  static_cast<int>(s)});
      }
    }
  };

  auto enqueue = [&](size_t s, int request) {
    SimStage& stage = stages[s];
    if (stage.queue.empty()) {
      stage.oldest_enqueue = now;
      events.push(Event{now + options.batch_timeout, 2,
                        static_cast<int>(s)});
    }
    stage.queue.push_back(request);
    if (recorder != nullptr) {
      stage.enqueue_times.push_back(now);
    }
    record_queue_depth(s);
  };

  auto admit_decode = [&]() {
    decode_pool.Admit([&](int id) {
      requests[static_cast<size_t>(id)].decode_start = now;
    });
    if (decode_pool.active() > 0 && !step_scheduled) {
      events.push(Event{now + step_latency, 3, 0});
      step_scheduled = true;
      decode_busy_time += step_latency;
    }
  };

  auto decode_step = [&]() {
    step_scheduled = false;
    if (recorder != nullptr) {
      // The step that just finished occupied [now - step, now].
      recorder
          ->AddComplete(names.decode_step, names.stage, 0, decode_row,
                        now - step_latency, step_latency)
          .Arg(names.active, static_cast<double>(decode_pool.active()));
    }
    decode_pool.Step([&](int id) {
      Request& request = requests[static_cast<size_t>(id)];
      request.completion = now;
      ++completed;
      const double tpot =
          (request.completion - request.decode_start) / decode_tokens;
      // <= 0 disables a bound; the sim does not attribute per-request
      // queue wait, so the windowed queue-wait histogram stays empty
      // here (the runtime fills it).
      const bool within_slo =
          (options.slo_ttft_seconds <= 0 ||
           request.ttft <= options.slo_ttft_seconds) &&
          (options.slo_tpot_seconds <= 0 ||
           tpot <= options.slo_tpot_seconds);
      if (series != nullptr) {
        series->RecordCompletion(now, request.ttft, tpot, 0.0, within_slo);
      }
      if (recorder != nullptr) {
        recorder->AddComplete(names.decode, names.stage, 1, id,
                              request.decode_start,
                              now - request.decode_start, id);
        recorder->AddComplete(names.request, names.request, 1, id,
                              request.arrival, now - request.arrival, id);
        // Terminal: seal for sampling, scored by end-to-end latency.
        recorder->FinalizeRequest(id, now - request.arrival, !within_slo);
      }
    });
    admit_decode();
  };

  // On any exception below (including RAGO_CHECK invariant failures)
  // dump the flight recorder before unwinding, so the last moments of
  // the run survive the crash.
  struct FlightAbortGuard {
    obs::FlightRecorder* flight;
    const std::string* path;
    const double* now;
    ~FlightAbortGuard() {
      if (flight != nullptr && std::uncaught_exceptions() > 0) {
        flight->Append(*now, "exception", "sim aborted by exception");
        if (!path->empty()) {
          flight->DumpToFile(*path);
        }
      }
    }
  } flight_abort_guard{flight, &options.flight_dump_path, &now};

  while (!events.empty()) {
    const Event event = events.top();
    events.pop();
    now = std::max(now, event.time);
    advance_telemetry();

    switch (event.kind) {
      case 0: {  // Arrival.
        if (series != nullptr) {
          series->RecordOffered(now, /*admitted=*/true);
        }
        if (recorder != nullptr) {
          recorder->NameRequestTrack(event.a);
          recorder->AddInstant(names.arrival, names.admission, 1, event.a,
                               now, event.a);
        }
        enqueue(0, event.a);
        break;
      }
      case 1: {  // Server done: complete the oldest batch of stage a.
        const auto s = static_cast<size_t>(event.a);
        for (size_t b = 0; b < in_flight.size(); ++b) {
          if (in_flight[b].stage != s) {
            continue;
          }
          for (int id : in_flight[b].members) {
            if (s + 1 < stages.size()) {
              enqueue(s + 1, id);
            } else {
              // Prefix complete: first token emitted.
              requests[static_cast<size_t>(id)].ttft =
                  now - requests[static_cast<size_t>(id)].arrival;
              decode_pool.Enqueue(id);
              if (recorder != nullptr) {
                recorder->AddInstant(names.first_token, names.stage, 1, id,
                                     now, id);
              }
            }
          }
          in_flight.erase(in_flight.begin() + static_cast<long>(b));
          break;
        }
        admit_decode();
        break;
      }
      case 2: {  // Flush deadline.
        break;     // start_batches below handles it.
      }
      case 3: {  // Decode step.
        decode_step();
        break;
      }
      default:
        RAGO_CHECK(false, "unknown event kind");
    }
    start_batches(/*force=*/false);
  }

  // Drain any remainder (partial batches below timeout at the end).
  while (completed < static_cast<int64_t>(requests.size())) {
    start_batches(/*force=*/true);
    if (events.empty()) {
      break;
    }
    const Event event = events.top();
    events.pop();
    now = std::max(now, event.time);
    advance_telemetry();
    if (event.kind == 1) {
      const auto s = static_cast<size_t>(event.a);
      for (size_t b = 0; b < in_flight.size(); ++b) {
        if (in_flight[b].stage != s) {
          continue;
        }
        for (int id : in_flight[b].members) {
          if (s + 1 < stages.size()) {
            enqueue(s + 1, id);
          } else {
            requests[static_cast<size_t>(id)].ttft =
                now - requests[static_cast<size_t>(id)].arrival;
            decode_pool.Enqueue(id);
            if (recorder != nullptr) {
              recorder->AddInstant(names.first_token, names.stage, 1, id,
                                   now, id);
            }
          }
        }
        in_flight.erase(in_flight.begin() + static_cast<long>(b));
        break;
      }
      admit_decode();
    } else if (event.kind == 3) {
      decode_step();
    }
  }

  RAGO_CHECK(completed == static_cast<int64_t>(requests.size()),
             "serving simulation failed to drain all requests");

  // --- Seal the observation layer at virtual end-of-run. ---
  if (series != nullptr) {
    series->Finish(now);
    drain_telemetry_windows();
  }
  if (recorder != nullptr) {
    recorder->FlushTailKeep();
  }
  if (flight != nullptr) {
    flight->Append(now, "note",
                   "sim end: completed=" + std::to_string(completed),
                   static_cast<double>(completed));
    if (!options.flight_dump_path.empty()) {
      flight->DumpToFile(options.flight_dump_path);
    }
  }

  // --- Aggregate. ---
  ServingSimResult result;
  result.completed = completed;
  result.makespan = now;
  result.throughput = completed / std::max(now, 1e-12);
  Histogram ttft_hist;
  Histogram tpot_hist;
  for (const Request& request : requests) {
    RAGO_CHECK(request.ttft >= 0 && request.completion >= 0,
               "request did not finish");
    ttft_hist.Add(request.ttft);
    tpot_hist.Add((request.completion - request.decode_start) /
                  decode_tokens);
  }
  result.avg_ttft = ttft_hist.Mean();
  result.p50_ttft = ttft_hist.Percentile(0.50);
  result.p95_ttft = ttft_hist.Percentile(0.95);
  result.p99_ttft = ttft_hist.Percentile(0.99);
  result.avg_tpot = tpot_hist.Mean();
  result.p50_tpot = tpot_hist.Percentile(0.50);
  result.p95_tpot = tpot_hist.Percentile(0.95);
  result.p99_tpot = tpot_hist.Percentile(0.99);
  result.group_utilization.resize(static_cast<size_t>(schedule.NumGroups()));
  for (int g = 0; g < schedule.NumGroups(); ++g) {
    result.group_utilization[static_cast<size_t>(g)] =
        server_busy_time[static_cast<size_t>(g)] / now;
  }
  result.retrieval_utilization =
      server_busy_time[static_cast<size_t>(retrieval_server)] / now;
  result.decode_utilization = decode_busy_time / now;
  return result;
}

}  // namespace rago::sim
