#include "serving/runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <iterator>
#include <map>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "core/stage.h"
#include "serving/runtime/decode_pool.h"

namespace rago::runtime {
namespace {

using core::PipelineModel;
using core::StageType;

using Clock = std::chrono::steady_clock;

/// Seeds the query-vector assignment stream (request -> pool row) of
/// the Serve overload that takes no QueryStream.
constexpr uint64_t kQueryAssignmentSeed = 0x5eed;

double SecondsSince(Clock::time_point start) {
  // Measurement only: real-scan wall-clock telemetry, never virtual
  // time or control flow. rago-lint: allow(wallclock)
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One request waiting in a stage queue.
struct QueueEntry {
  int id = 0;
  double enqueued = 0.0;  ///< Virtual time it entered this queue.
};

/// One pipeline stage instantiated for execution.
struct ExecStage {
  StageType type = StageType::kPrefix;
  int server = 0;
  int64_t batch = 1;
  double latency = 0.0;   ///< Virtual completion time of one batch.
  double interval = 0.0;  ///< Virtual server occupancy per batch.
  std::deque<QueueEntry> queue;
  double oldest_enqueue = 0.0;
};

/// Scheduler event; kind ascending breaks time ties (arrivals first),
/// then payload ascending so simultaneous events pop in a fixed order
/// on every standard library, keeping outcomes platform-reproducible,
/// not just run-reproducible. The (time, kind, payload) tie-break
/// covers cache-hit deliveries too: simultaneous hits (e.g. a burst of
/// hot queries) carry their request id as the payload, so the order
/// results enter the post-retrieval stage — and therefore the outcome
/// digest — never depends on anything but the trace.
struct Event {
  double time = 0.0;
  int kind = 0;  // 0 = arrival, 1 = stage-done, 2 = flush, 3 = step,
                 // 4 = cache-hit delivery.
  int a = 0;     // arrival/cache-hit: request id; stage-done/flush:
                 // stage index.

  friend bool operator>(const Event& lhs, const Event& rhs) {
    if (lhs.time != rhs.time) {
      return lhs.time > rhs.time;
    }
    if (lhs.kind != rhs.kind) {
      return lhs.kind > rhs.kind;
    }
    return lhs.a > rhs.a;
  }
};

/// Stage index standing for "no such stage" (a schema without
/// retrieval has no retrieval stage).
constexpr size_t kNoStage = static_cast<size_t>(-1);

/// The live retrieval tier one Serve call scans: the index, the pool
/// its scans fan out on, the query pool, and each request's first row.
struct LiveRetrieval {
  const serving::ShardedIndex& index;
  ThreadPool* pool;
  const ann::Matrix& query_pool;
  const std::vector<size_t>& row_start;
};

/// Checks shared by live and priced-only serving.
void ValidateDeployment(const PipelineModel& model,
                        const core::Schedule& schedule,
                        const RuntimeOptions& options) {
  options.Validate();
  RAGO_REQUIRE(!model.schema().IterativeRetrieval(),
               "iterative retrieval is not supported by the runtime "
               "(use SimulateIterativeDecode)");
  schedule.Validate(model.chain().size());
}

/**
 * The serving event loop. With `live`, retrieval batches run real
 * ShardedIndex scans whose neighbors feed the outcome digest and the
 * cache tier. Without it, retrieval is priced only: batches occupy
 * the retrieval servers for their modeled time and nothing is
 * scanned. Virtual time is model-priced either way, so the two modes
 * schedule identically.
 */
RuntimeResult
RunEventLoop(const PipelineModel& model, const core::Schedule& schedule,
             const RuntimeOptions& options, const ArrivalTrace& workload,
             const LiveRetrieval* live) {
  RAGO_REQUIRE(!workload.arrivals.empty(), "empty arrival trace");
  for (double arrival : workload.arrivals) {
    // NaN would break the event heap's ordering, +inf would make TTFT
    // inf - inf, and a negative arrival would inflate its own TTFT.
    RAGO_REQUIRE(std::isfinite(arrival) && arrival >= 0.0,
                 "arrival times must be finite and non-negative");
  }

  // --- Instantiate the stage graph with model-priced service times,
  // the same for live and priced-only runs. ---
  const auto& chain = model.chain();
  std::vector<ExecStage> stages;
  const int retrieval_server = schedule.NumGroups();
  size_t retrieval_stage_index = kNoStage;
  size_t prefix_stage_index = 0;
  int prefix_chips = 0;
  size_t chain_index = 0;
  for (StageType type : model.schema().AllStages()) {
    if (type == StageType::kDecode) {
      continue;  // Decode runs in the continuous-batching pool below.
    }
    ExecStage stage;
    stage.type = type;
    if (type == StageType::kRetrieval) {
      retrieval_stage_index = stages.size();
      stage.server = retrieval_server;
      stage.batch = schedule.retrieval_batch;
      const int64_t queries =
          stage.batch * model.schema().retrieval.queries_per_retrieval;
      if (options.retrieval_model != nullptr) {
        const retrieval::RetrievalCost cost =
            options.retrieval_model->Search(queries);
        stage.latency = cost.latency;
        stage.interval = static_cast<double>(queries) / cost.throughput;
      } else {
        const core::StagePerf perf = model.EvalRetrieval(
            static_cast<int>(stage.batch), schedule.retrieval_servers);
        RAGO_REQUIRE(perf.feasible, "retrieval infeasible under schedule");
        stage.latency = perf.latency;
        stage.interval =
            static_cast<double>(stage.batch) / perf.throughput;
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
      if (type == StageType::kPrefix) {
        prefix_stage_index = stages.size();
        prefix_chips =
            schedule.group_chips[static_cast<size_t>(group)];
      }
      ++chain_index;
    }
    stages.push_back(std::move(stage));
  }
  const int num_servers = retrieval_server + 1;

  const core::StagePerf decode_perf =
      model.EvalDecode(schedule.decode_chips, schedule.decode_batch);
  RAGO_REQUIRE(decode_perf.feasible, "decode infeasible under schedule");
  const int decode_tokens = model.schema().workload.decode_tokens;
  const double step_latency =
      static_cast<double>(schedule.decode_batch) /
      (decode_perf.throughput * decode_tokens);

  // --- Serving state. ---
  RuntimeResult result;
  result.submitted = static_cast<int64_t>(workload.arrivals.size());
  result.requests.resize(workload.arrivals.size());
  for (size_t i = 0; i < workload.arrivals.size(); ++i) {
    result.requests[i].arrival = workload.arrivals[i];
  }
  result.stages.resize(stages.size());
  for (size_t s = 0; s < stages.size(); ++s) {
    result.stages[s].type = stages[s].type;
    result.stages[s].server = stages[s].server;
  }
  result.server_busy_seconds.assign(static_cast<size_t>(num_servers), 0.0);

  // --- Span tracing (opt-in, observation-only: appends never feed
  // back into scheduling, so the digest is invariant to `trace`). ---
  obs::TraceRecorder* trace = options.trace;
  const int decode_row = num_servers;
  if (trace != nullptr) {
    trace->SetProcessName(0, "servers");
    trace->SetProcessName(1, "requests");
    for (int g = 0; g < schedule.NumGroups(); ++g) {
      trace->SetThreadName(0, g, "xpu group " + std::to_string(g));
    }
    trace->SetThreadName(0, retrieval_server, "retrieval servers");
    trace->SetThreadName(0, decode_row, "decode pool");
  }
  // Names recorded per request or per step, interned once so the
  // event loop records by id.
  struct TraceNames {
    obs::TraceName admission, arrival, rejected, stage, queue, cache,
        cache_hit, telemetry, first_token, decode_step, decode, request,
        active, batch, latency, real_scan;
    /// Per stage: queue/exec spans and the depth/utilization counters.
    std::vector<obs::TraceName> queue_of, exec_of, depth_of, util_of;
  } names;
  if (trace != nullptr) {
    names.admission = trace->Intern("admission");
    names.arrival = trace->Intern("arrival");
    names.rejected = trace->Intern("rejected");
    names.stage = trace->Intern("stage");
    names.queue = trace->Intern("queue");
    names.cache = trace->Intern("cache");
    names.cache_hit = trace->Intern("retrieval-cache-hit");
    names.telemetry = trace->Intern("telemetry");
    names.first_token = trace->Intern("first-token");
    names.decode_step = trace->Intern("decode-step");
    names.decode = trace->Intern("decode");
    names.request = trace->Intern("request");
    names.active = trace->Intern("active");
    names.batch = trace->Intern("batch");
    names.latency = trace->Intern("latency");
    names.real_scan = trace->Intern("real_scan_wall_s");
    for (size_t s = 0; s < stages.size(); ++s) {
      const std::string stage_name = core::StageName(stages[s].type);
      const std::string label = stage_name + " s" + std::to_string(s);
      names.queue_of.push_back(trace->Intern("queue:" + stage_name));
      names.exec_of.push_back(trace->Intern("exec:" + stage_name));
      names.depth_of.push_back(trace->Intern("queue-depth: " + label));
      names.util_of.push_back(trace->Intern("utilization: " + label));
    }
  }

  // --- Windowed telemetry, burn-rate alerting, flight recorder (all
  // opt-in; driven on the virtual clock from the serial loop, so every
  // surface is thread-count invariant, and observation-only except the
  // explicitly-opted-in alert digest fold). ---
  obs::TelemetryTimeSeries* series = options.timeseries;
  obs::SloAlertEngine* alerts = options.alerts;
  obs::FlightRecorder* flight = options.flight;
  const int alert_row = decode_row + 1;
  if (trace != nullptr && alerts != nullptr) {
    trace->SetThreadName(0, alert_row, "slo alerts");
  }
  if (flight != nullptr) {
    flight->Append(0.0, "note",
                   "serve begin: " + std::to_string(result.submitted) +
                       " requests");
  }

  const int qpr = model.schema().retrieval.queries_per_retrieval;
  RAGO_CHECK(live == nullptr ||
                 live->row_start.size() == workload.arrivals.size(),
             "row-start assignment length mismatch");

  // --- Cache tier (per Serve call: the engine is reusable and each
  // call's cache state is a pure function of the trace + stream). ---
  cache::LruRetrievalCache retrieval_cache(
      options.cache.retrieval_capacity);
  cache::LruDocCache doc_cache(options.cache.doc_capacity);
  // Content-based query fingerprints, computed up front so lookup
  // cost in the event loop is O(1) per request.
  std::vector<uint64_t> fingerprints;
  if (retrieval_cache.enabled()) {
    fingerprints.resize(workload.arrivals.size());
    for (size_t i = 0; i < fingerprints.size(); ++i) {
      fingerprints[i] = cache::FingerprintQueries(
          live->query_pool, live->row_start[i], qpr);
    }
  }
  // Measured-hit-rate prefix pricing, memoized per distinct rate (an
  // ordered map: iteration order never matters, lookups are exact).
  std::map<double, std::pair<double, double>> prefix_price_memo;
  const int64_t prefix_batch = stages[prefix_stage_index].batch;
  auto price_prefix = [&](double rate) {
    auto it = prefix_price_memo.find(rate);
    if (it == prefix_price_memo.end()) {
      const core::StagePerf perf =
          model.EvalPrefixCached(prefix_chips, prefix_batch, rate);
      RAGO_REQUIRE(perf.feasible,
                   "prefix infeasible at measured cache hit rate");
      it = prefix_price_memo
               .emplace(rate,
                        std::make_pair(perf.latency,
                                       static_cast<double>(prefix_batch) /
                                           perf.throughput))
               .first;
    }
    return it->second;
  };

  std::vector<double> server_busy_until(static_cast<size_t>(num_servers),
                                        0.0);
  DecodePool decode_pool(schedule.decode_batch, decode_tokens);
  double decode_busy_time = 0.0;
  bool step_scheduled = false;
  uint64_t digest = kFnvOffset;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
      events;
  for (size_t i = 0; i < workload.arrivals.size(); ++i) {
    events.push(Event{workload.arrivals[i], 0, static_cast<int>(i)});
  }

  int64_t completed = 0;
  double now = 0.0;

  struct InFlight {
    size_t stage = 0;
    std::vector<int> members;
  };
  std::vector<InFlight> in_flight;

  // Feeds every closed fine window to the flight recorder and the
  // alert engine; alert transitions become trace instants and flight
  // records, never digest folds.
  auto drain_telemetry_windows = [&]() {
    for (const obs::WindowSummary& window : series->DrainClosed()) {
      const double end = window.start + window.span;
      if (flight != nullptr && (window.offered > 0 || window.completed > 0)) {
        flight->Append(end, "window",
                       "offered=" + std::to_string(window.offered) +
                           " completed=" + std::to_string(window.completed) +
                           " rejected=" + std::to_string(window.rejected),
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
        if (trace != nullptr) {
          trace
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

  // While tracing, each queue-depth sample of a stage is also a pair of
  // Chrome counter events (depth, utilization so far), so viewers graph
  // both next to the spans; timeline_limit caps the pairs per stage.
  std::vector<int> counter_samples(stages.size(), 0);
  auto record_timeline = [&](size_t s) {
    const auto depth = static_cast<int64_t>(stages[s].queue.size());
    if (series != nullptr) {
      series->RecordQueueDepth(now, static_cast<int>(s), depth);
    }
    if (trace == nullptr || counter_samples[s] >= options.timeline_limit) {
      return;
    }
    ++counter_samples[s];
    trace->AddCounter(names.depth_of[s], names.telemetry, 0,
                      static_cast<int>(s), now, static_cast<double>(depth));
    trace->AddCounter(names.util_of[s], names.telemetry, 0,
                      static_cast<int>(s), now,
                      now > 0.0 ? result.stages[s].busy_seconds / now : 0.0);
  };

  // Folds one request's retrieved neighbor lists into the digest and
  // outcome, measures its documents against the KV cache, and admits
  // them. Shared by the real-scan and cache-hit delivery paths so the
  // two are byte-for-byte interchangeable in the digest.
  auto record_retrieval = [&](int id,
                              const std::vector<std::vector<ann::Neighbor>>&
                                  per_query) {
    RequestOutcome& outcome = result.requests[static_cast<size_t>(id)];
    digest = FnvFoldU64(digest, static_cast<uint64_t>(id));
    std::vector<int64_t> doc_ids;
    for (size_t q = 0; q < per_query.size(); ++q) {
      for (const ann::Neighbor& neighbor : per_query[q]) {
        digest = FnvFoldU64(digest, static_cast<uint64_t>(neighbor.id));
        digest = FnvFoldFloat(digest, neighbor.dist);
        if (doc_cache.enabled()) {
          doc_ids.push_back(neighbor.id);
        }
      }
      if (q == 0 && !per_query[q].empty()) {
        outcome.first_neighbor = per_query[q].front().id;
      }
    }
    if (doc_cache.enabled()) {
      outcome.prefix_hit_fraction = doc_cache.MeasureAndAdmit(doc_ids);
    }
  };

  // Executes the real scatter-gather scan for one retrieval batch and
  // records each member's retrieved neighbors into the digest. Virtual
  // time is unaffected: the batch's service time stays model-priced.
  auto run_retrieval_scan = [&](const std::vector<int>& members) {
    const ann::Matrix& query_pool = live->query_pool;
    const size_t pool_rows = query_pool.rows();
    ann::Matrix batch_queries(members.size() * static_cast<size_t>(qpr),
                              query_pool.dim());
    size_t row = 0;
    for (int id : members) {
      const size_t start = live->row_start[static_cast<size_t>(id)];
      for (int q = 0; q < qpr; ++q) {
        batch_queries.CopyRowFrom(
            query_pool, (start + static_cast<size_t>(q)) % pool_rows,
            row++);
      }
    }
    // Measurement only (real_scan_wall_s). rago-lint: allow(wallclock)
    const Clock::time_point scan_start = Clock::now();
    serving::ShardSearchStats stats;
    auto neighbors = live->index.SearchBatch(
        batch_queries, static_cast<size_t>(options.top_k), live->pool,
        &stats);
    result.real_scan_seconds += SecondsSince(scan_start);
    result.real_scan_bytes += stats.TotalScanBytes();
    result.real_queries_scanned +=
        static_cast<int64_t>(batch_queries.rows());

    row = 0;
    for (int id : members) {
      // Each member's lists are moved out, not copied: `neighbors` is
      // not read again.
      std::vector<std::vector<ann::Neighbor>> per_query(
          std::make_move_iterator(neighbors.begin() +
                                  static_cast<long>(row)),
          std::make_move_iterator(neighbors.begin() +
                                  static_cast<long>(row + qpr)));
      row += static_cast<size_t>(qpr);
      record_retrieval(id, per_query);
      if (retrieval_cache.enabled()) {
        retrieval_cache.Insert(fingerprints[static_cast<size_t>(id)],
                               cache::CachedRetrieval{std::move(per_query)});
      }
    }
  };

  auto start_batches = [&](bool force) {
    for (size_t s = 0; s < stages.size(); ++s) {
      ExecStage& stage = stages[s];
      StageTelemetry& telemetry = result.stages[s];
      const auto server = static_cast<size_t>(stage.server);
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
        batch.members.reserve(take);
        double hit_fraction_sum = 0.0;
        for (size_t i = 0; i < take; ++i) {
          const QueueEntry& entry = stage.queue[i];
          batch.members.push_back(entry.id);
          const double wait = now - entry.enqueued;
          telemetry.queue_wait.Add(wait);
          RequestOutcome& outcome =
              result.requests[static_cast<size_t>(entry.id)];
          outcome.queue_wait += wait;
          hit_fraction_sum += outcome.prefix_hit_fraction;
          if (trace != nullptr) {
            trace->AddComplete(names.queue_of[s], names.queue, 1, entry.id,
                               entry.enqueued, wait, entry.id);
          }
        }
        stage.queue.erase(stage.queue.begin(),
                          stage.queue.begin() + static_cast<long>(take));
        stage.oldest_enqueue = now;
        // Prefix batches are re-priced with the batch's *measured*
        // document-cache hit fraction when the KV level is live;
        // every other stage (and the cacheless default) keeps its
        // schedule-time pricing.
        double latency = stage.latency;
        double interval = stage.interval;
        if (s == prefix_stage_index && doc_cache.enabled()) {
          const auto priced = price_prefix(
              hit_fraction_sum / static_cast<double>(take));
          latency = priced.first;
          interval = priced.second;
        }
        server_busy_until[server] = now + interval;
        result.server_busy_seconds[server] += interval;
        telemetry.busy_seconds += interval;
        if (series != nullptr) {
          // Occupancy attributed to the window containing the batch
          // start (windowed utilization is a rollup, not a partition).
          series->RecordBusy(now, static_cast<int>(s), interval);
        }
        telemetry.batches += 1;
        telemetry.full_batches +=
            static_cast<int64_t>(take) == stage.batch ? 1 : 0;
        telemetry.requests += static_cast<int64_t>(take);
        const bool scanned = s == retrieval_stage_index && live != nullptr;
        const double scan_seconds_before = result.real_scan_seconds;
        if (scanned) {
          run_retrieval_scan(batch.members);
        }
        if (trace != nullptr) {
          // Server row: occupancy (interval); request rows: the
          // batch's completion latency each member experiences.
          const obs::TraceName batch_name =
              trace->Intern(std::string(core::StageName(stage.type)) + " x" +
                            std::to_string(take));
          obs::TraceRecorder::EventRef span = trace->AddComplete(
              batch_name, names.stage, 0, stage.server, now, interval);
          span.Arg(names.batch, static_cast<double>(take))
              .Arg(names.latency, latency);
          if (scanned) {
            span.Arg(names.real_scan,
                     result.real_scan_seconds - scan_seconds_before);
          }
          for (int id : batch.members) {
            trace->AddComplete(names.exec_of[s], names.stage, 1, id, now,
                               latency, id);
          }
        }
        record_timeline(s);
        in_flight.push_back(std::move(batch));
        events.push(Event{now + latency, 1, static_cast<int>(s)});
      }
      if (!stage.queue.empty() && server_busy_until[server] <= now) {
        events.push(Event{stage.oldest_enqueue + options.batch_timeout,
                          2, static_cast<int>(s)});
      }
    }
  };

  auto enqueue = [&](size_t s, int request) {
    ExecStage& stage = stages[s];
    if (stage.queue.empty()) {
      stage.oldest_enqueue = now;
      events.push(Event{now + options.batch_timeout, 2,
                        static_cast<int>(s)});
    }
    stage.queue.push_back(QueueEntry{request, now});
    StageTelemetry& telemetry = result.stages[s];
    telemetry.max_queue_depth =
        std::max(telemetry.max_queue_depth,
                 static_cast<int>(stage.queue.size()));
    record_timeline(s);
  };

  // Entry of a request into stage `s`. The retrieval stage consults
  // the retrieval-result cache first: a hit skips the batch queue and
  // the real scan entirely — the cached neighbors are recorded now (in
  // serial event-loop order, so the digest never depends on thread
  // interleaving) and delivery into the post-retrieval stage is
  // scheduled after only the lookup cost. That is the
  // retrieval/prefill overlap: hot queries reach prefix immediately
  // instead of waiting out batch formation plus a scan.
  auto enter_stage = [&](size_t s, int request) {
    if (s == retrieval_stage_index && retrieval_cache.enabled()) {
      const cache::CachedRetrieval* cached = retrieval_cache.Lookup(
          fingerprints[static_cast<size_t>(request)]);
      if (cached != nullptr) {
        result.requests[static_cast<size_t>(request)]
            .retrieval_cache_hit = true;
        record_retrieval(request, cached->neighbors);
        if (trace != nullptr) {
          trace->AddComplete(names.cache_hit, names.cache, 1, request, now,
                             cache::kLookupSeconds, request);
        }
        events.push(Event{now + cache::kLookupSeconds, 4, request});
        return;
      }
    }
    enqueue(s, request);
  };

  // Cached results are ready: advance past retrieval. Retrieval is
  // never the last pre-decode stage (prefix always follows it), so
  // the successor index is in range.
  auto deliver_cache_hit = [&](int request) {
    RAGO_CHECK(retrieval_stage_index + 1 < stages.size(),
               "retrieval must precede another pre-decode stage");
    enter_stage(retrieval_stage_index + 1, request);
  };

  auto admit_decode = [&]() {
    decode_pool.Admit([&](int id) {
      result.requests[static_cast<size_t>(id)].decode_start = now;
    });
    if (decode_pool.active() > 0 && !step_scheduled) {
      events.push(Event{now + step_latency, 3, 0});
      step_scheduled = true;
      decode_busy_time += step_latency;
    }
  };

  // Completes the oldest in-flight batch of stage `s`: members advance
  // to the next stage, or emit their first token and join decode.
  auto complete_stage = [&](size_t s) {
    for (size_t b = 0; b < in_flight.size(); ++b) {
      if (in_flight[b].stage != s) {
        continue;
      }
      for (int id : in_flight[b].members) {
        if (s + 1 < stages.size()) {
          enter_stage(s + 1, id);
        } else {
          RequestOutcome& outcome =
              result.requests[static_cast<size_t>(id)];
          outcome.ttft = now - outcome.arrival;
          decode_pool.Enqueue(id);
          if (trace != nullptr) {
            trace->AddInstant(names.first_token, names.stage, 1, id, now,
                              id);
          }
          result.max_decode_queue_depth =
              std::max(result.max_decode_queue_depth,
                       static_cast<int>(decode_pool.waiting()));
        }
      }
      in_flight.erase(in_flight.begin() + static_cast<long>(b));
      break;
    }
    admit_decode();
  };

  auto decode_step = [&]() {
    step_scheduled = false;
    if (trace != nullptr) {
      // The step that just finished occupied [now - step, now].
      trace
          ->AddComplete(names.decode_step, names.stage, 0, decode_row,
                        now - step_latency, step_latency)
          .Arg(names.active, static_cast<double>(decode_pool.active()));
    }
    decode_pool.Step([&](int id) {
      RequestOutcome& outcome = result.requests[static_cast<size_t>(id)];
      outcome.completion = now;
      outcome.tpot = (now - outcome.decode_start) / decode_tokens;
      ++completed;
      // Same predicate the end-of-run aggregation applies; computed
      // here so windowed telemetry sees the verdict at completion time.
      const bool within_slo_now =
          outcome.ttft <= options.slo.ttft_seconds &&
          outcome.tpot <= options.slo.tpot_seconds;
      if (series != nullptr) {
        series->RecordCompletion(now, outcome.ttft, outcome.tpot,
                                 outcome.queue_wait, within_slo_now);
      }
      if (trace != nullptr) {
        trace->AddComplete(names.decode, names.stage, 1, id,
                           outcome.decode_start, now - outcome.decode_start,
                           id);
        trace->AddComplete(names.request, names.request, 1, id,
                           outcome.arrival, now - outcome.arrival, id);
        // Terminal: seal for sampling, scored by end-to-end latency.
        trace->FinalizeRequest(id, now - outcome.arrival, !within_slo_now);
      }
    });
    admit_decode();
  };

  // On any exception below (including RAGO_CHECK invariant failures)
  // note the abort in the flight recorder before unwinding, so a dump
  // of the ring shows how the run ended.
  struct FlightAbortGuard {
    obs::FlightRecorder* flight;
    const double* now;
    ~FlightAbortGuard() {
      if (flight != nullptr && std::uncaught_exceptions() > 0) {
        flight->Append(*now, "exception", "serve aborted by exception");
      }
    }
  } flight_abort_guard{flight, &now};

  // Pops the next event, advances the virtual clock to it (closing the
  // telemetry windows it passes) and handles it. Tracks the heap's
  // high-water mark, which peaks just before a pop.
  auto run_next_event = [&]() {
    result.event_heap_high_water = std::max(
        result.event_heap_high_water, static_cast<int64_t>(events.size()));
    ++result.events_processed;
    const Event event = events.top();
    events.pop();
    now = std::max(now, event.time);
    advance_telemetry();

    switch (event.kind) {
      case 0: {  // Arrival: bounded admission into the first stage.
        RequestOutcome& outcome =
            result.requests[static_cast<size_t>(event.a)];
        if (static_cast<int64_t>(stages[0].queue.size()) >=
            options.admission_queue_limit) {
          outcome.admitted = false;
          ++result.rejected;
          if (series != nullptr) {
            series->RecordOffered(now, /*admitted=*/false);
          }
          if (flight != nullptr) {
            flight->Append(now, "reject",
                           "request " + std::to_string(event.a) +
                               " shed at admission",
                           static_cast<double>(stages[0].queue.size()));
          }
          if (trace != nullptr) {
            trace->NameRequestTrack(event.a);
            trace->AddInstant(names.rejected, names.admission, 1, event.a,
                              now, event.a);
            // A rejection is terminal: seal the request for sampling
            // (it scores as an SLO violation with zero latency).
            trace->FinalizeRequest(event.a, 0.0, /*slo_violation=*/true);
          }
        } else {
          outcome.admitted = true;
          ++result.admitted;
          if (series != nullptr) {
            series->RecordOffered(now, /*admitted=*/true);
          }
          if (trace != nullptr) {
            trace->NameRequestTrack(event.a);
            trace->AddInstant(names.arrival, names.admission, 1, event.a,
                              now, event.a);
          }
          enter_stage(0, event.a);
        }
        break;
      }
      case 1: {
        complete_stage(static_cast<size_t>(event.a));
        break;
      }
      case 2: {
        break;  // Flush deadline; the caller's start_batches handles it.
      }
      case 3: {
        decode_step();
        break;
      }
      case 4: {
        deliver_cache_hit(event.a);
        break;
      }
      default:
        RAGO_CHECK(false, "unknown event kind");
    }
  };

  // --- Main loop. ---
  while (!events.empty()) {
    run_next_event();
    start_batches(/*force=*/false);
  }

  // --- Drain partial batches below the flush timeout at the end. ---
  while (completed < result.admitted) {
    start_batches(/*force=*/true);
    if (events.empty()) {
      break;
    }
    run_next_event();
  }
  RAGO_CHECK(completed == result.admitted,
             "serving runtime failed to drain all admitted requests");
  result.completed = completed;
  result.decode_steps = decode_pool.steps();

  // --- Seal the observation layer at virtual end-of-run. ---
  if (series != nullptr) {
    series->Finish(now);
    drain_telemetry_windows();
  }
  if (trace != nullptr) {
    trace->FlushTailKeep();
  }
  if (flight != nullptr) {
    flight->Append(now, "note",
                   "serve end: completed=" + std::to_string(completed),
                   static_cast<double>(completed));
  }

  // --- Aggregate telemetry (id order: independent of event order). ---
  result.makespan = now;
  result.throughput =
      static_cast<double>(completed) / std::max(now, 1e-12);
  int64_t within_slo = 0;
  for (RequestOutcome& outcome : result.requests) {
    if (!outcome.admitted) {
      continue;
    }
    RAGO_CHECK(outcome.ttft >= 0 && outcome.completion >= 0,
               "admitted request did not finish");
    result.ttft.Add(outcome.ttft);
    result.tpot.Add(outcome.tpot);
    result.queue_wait.Add(outcome.queue_wait);
    outcome.slo_ok = outcome.ttft <= options.slo.ttft_seconds &&
                     outcome.tpot <= options.slo.tpot_seconds;
    within_slo += outcome.slo_ok ? 1 : 0;
  }
  result.slo_attainment =
      static_cast<double>(within_slo) /
      static_cast<double>(result.submitted);
  for (StageTelemetry& telemetry : result.stages) {
    telemetry.utilization =
        telemetry.busy_seconds / std::max(result.makespan, 1e-12);
  }
  result.decode_utilization =
      decode_busy_time / std::max(result.makespan, 1e-12);

  // Cache-tier telemetry (id order / counter state: both independent
  // of event interleaving by construction — the caches only ever
  // mutate inside the serial event loop).
  result.retrieval_cache = retrieval_cache.counters();
  result.doc_cache = doc_cache.counters();
  double hit_fraction_total = 0.0;
  for (const RequestOutcome& outcome : result.requests) {
    if (outcome.admitted) {
      hit_fraction_total += outcome.prefix_hit_fraction;
    }
  }
  result.measured_prefix_hit_rate =
      result.admitted > 0
          ? hit_fraction_total / static_cast<double>(result.admitted)
          : 0.0;

  for (const RequestOutcome& outcome : result.requests) {
    digest = FnvFoldU64(digest, outcome.admitted ? 1u : 0u);
    digest = FnvFoldDouble(digest, outcome.ttft);
    digest = FnvFoldDouble(digest, outcome.tpot);
    digest = FnvFoldDouble(digest, outcome.completion);
    digest = FnvFoldU64(digest,
                        static_cast<uint64_t>(outcome.first_neighbor));
    digest = FnvFoldU64(digest, outcome.retrieval_cache_hit ? 1u : 0u);
    digest = FnvFoldDouble(digest, outcome.prefix_hit_fraction);
  }
  for (const cache::CacheCounters* counters :
       {&result.retrieval_cache, &result.doc_cache}) {
    digest = FnvFoldU64(digest, static_cast<uint64_t>(counters->hits));
    digest = FnvFoldU64(digest, static_cast<uint64_t>(counters->misses));
    digest = FnvFoldU64(digest,
                        static_cast<uint64_t>(counters->evictions));
    digest = FnvFoldU64(digest,
                        static_cast<uint64_t>(counters->insertions));
  }
  digest = FnvFoldDouble(digest, result.measured_prefix_hit_rate);
  result.outcome_digest = digest;

  // --- Metrics export (opt-in; reads the finished result only, so it
  // can never perturb it). ---
  if (options.metrics != nullptr) {
    MetricsRegistry& metrics = *options.metrics;
    metrics.GetCounter("runtime.requests_submitted").Inc(result.submitted);
    metrics.GetCounter("runtime.requests_admitted").Inc(result.admitted);
    metrics.GetCounter("runtime.requests_rejected").Inc(result.rejected);
    metrics.GetCounter("runtime.requests_completed").Inc(result.completed);
    int64_t batches = 0;
    int64_t full_batches = 0;
    for (const StageTelemetry& telemetry : result.stages) {
      batches += telemetry.batches;
      full_batches += telemetry.full_batches;
    }
    metrics.GetCounter("runtime.batches_flushed").Inc(batches);
    metrics.GetCounter("runtime.full_batches").Inc(full_batches);
    metrics.GetCounter("runtime.retrieval_cache_hits")
        .Inc(result.retrieval_cache.hits);
    metrics.GetCounter("runtime.retrieval_cache_misses")
        .Inc(result.retrieval_cache.misses);
    metrics.GetGauge("runtime.throughput_rps").Set(result.throughput);
    metrics.GetGauge("runtime.makespan_seconds").Set(result.makespan);
    metrics.GetGauge("runtime.slo_attainment").Set(result.slo_attainment);
    metrics.GetGauge("runtime.decode_utilization")
        .Set(result.decode_utilization);
    metrics.GetGauge("runtime.measured_prefix_hit_rate")
        .Set(result.measured_prefix_hit_rate);
    StreamingHistogram& ttft_hist =
        metrics.GetHistogram("runtime.ttft_seconds");
    StreamingHistogram& tpot_hist =
        metrics.GetHistogram("runtime.tpot_seconds");
    StreamingHistogram& wait_hist =
        metrics.GetHistogram("runtime.queue_wait_seconds");
    for (const RequestOutcome& outcome : result.requests) {
      if (!outcome.admitted) {
        continue;
      }
      ttft_hist.Add(outcome.ttft);
      tpot_hist.Add(outcome.tpot);
      wait_hist.Add(outcome.queue_wait);
    }
  }
  return result;
}

}  // namespace

void
RuntimeOptions::Validate() const {
  RAGO_REQUIRE(admission_queue_limit > 0,
               "admission_queue_limit must be positive");
  RAGO_REQUIRE(batch_timeout >= 0, "batch_timeout must be non-negative");
  RAGO_REQUIRE(num_threads >= 0,
               "num_threads must be >= 0 (0 = hardware concurrency)");
  RAGO_REQUIRE(top_k >= 1, "top_k must be >= 1");
  RAGO_REQUIRE(slo.ttft_seconds > 0 && slo.tpot_seconds > 0,
               "SLO targets must be positive");
  RAGO_REQUIRE(timeline_limit >= 0, "timeline_limit must be >= 0");
  RAGO_REQUIRE(alerts == nullptr || timeseries != nullptr,
               "burn-rate alerting requires a telemetry time-series");
  cache.Validate();
}

ServingRuntime::ServingRuntime(const PipelineModel& model,
                               core::Schedule schedule,
                               const serving::ShardedIndex& index,
                               RuntimeOptions options)
    : model_(model), schedule_(std::move(schedule)), index_(index),
      options_(std::move(options)) {
  ValidateDeployment(model_, schedule_, options_);
  RAGO_REQUIRE(model_.schema().retrieval_enabled,
               "the serving runtime requires a retrieval stage");
  // A dedicated pool (even of one worker) so scan parallelism follows
  // this runtime's knob, not the index's own num_threads default.
  pool_ = std::make_unique<ThreadPool>(
      ResolveNumThreads(options_.num_threads));
}

RuntimeResult
ServingRuntime::Serve(const ArrivalTrace& workload,
                      const ann::Matrix& query_pool) const {
  RAGO_REQUIRE(!query_pool.empty(), "empty query pool");
  // Legacy assignment: each request's starting pool row derives from
  // the seed (uniform over the pool), exactly as before query streams
  // existed.
  std::vector<size_t> row_start(workload.arrivals.size());
  for (size_t i = 0; i < row_start.size(); ++i) {
    row_start[i] = static_cast<size_t>(
        Rng::DeriveSeed(kQueryAssignmentSeed, static_cast<uint64_t>(i)) %
        query_pool.rows());
  }
  return ServeLive(workload, query_pool, row_start);
}

RuntimeResult
ServingRuntime::Serve(const ArrivalTrace& workload,
                      const ann::Matrix& query_pool,
                      const QueryStream& stream) const {
  RAGO_REQUIRE(!query_pool.empty(), "empty query pool");
  RAGO_REQUIRE(stream.rows.size() == workload.arrivals.size(),
               "query stream length must match the arrival trace");
  std::vector<size_t> row_start(stream.rows.size());
  for (size_t i = 0; i < stream.rows.size(); ++i) {
    const int64_t row = stream.rows[i];
    RAGO_REQUIRE(row >= 0 &&
                     row < static_cast<int64_t>(query_pool.rows()),
                 "query stream row out of pool range");
    row_start[i] = static_cast<size_t>(row);
  }
  return ServeLive(workload, query_pool, row_start);
}

RuntimeResult
ServingRuntime::ServeLive(const ArrivalTrace& workload,
                          const ann::Matrix& query_pool,
                          const std::vector<size_t>& row_start) const {
  RAGO_REQUIRE(query_pool.dim() == index_.dim(),
               "query pool dimensionality mismatch with the index");
  const LiveRetrieval live{index_, pool_.get(), query_pool, row_start};
  return RunEventLoop(model_, schedule_, options_, workload, &live);
}

RuntimeResult
ServePriced(const PipelineModel& model, const core::Schedule& schedule,
            const ArrivalTrace& workload, const RuntimeOptions& options) {
  ValidateDeployment(model, schedule, options);
  RAGO_REQUIRE(options.cache.retrieval_capacity == 0 &&
                   options.cache.doc_capacity == 0,
               "priced-only serving scans nothing, so it cannot cache");
  return RunEventLoop(model, schedule, options, workload, nullptr);
}

}  // namespace rago::runtime
