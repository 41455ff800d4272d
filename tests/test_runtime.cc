/**
 * @file test_runtime.cc
 * Tests for the online serving runtime and its workload scenario
 * library: determinism across thread counts (bit-identical outcomes
 * and telemetry), exact runtime-vs-DES agreement (the DES is the same
 * event loop run priced-only), SLO-attainment monotonicity under
 * rising offered load, trace-file round-trips, and option validation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "core/pipeline_model.h"
#include "hardware/cluster.h"
#include "hardware/cpu_server.h"
#include "rago/optimizer.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/perf/measured_model.h"
#include "retrieval/serving/sharded_index.h"
#include "common/json_reader.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "serving/runtime/decode_pool.h"
#include "serving/runtime/runtime.h"
#include "serving/runtime/workload.h"
#include "tests/testing/test_support.h"

namespace rago::runtime {
namespace {

core::Schedule SimpleSchedule(const core::PipelineModel& model,
                              int group_chips, int decode_chips,
                              int64_t batch, int64_t decode_batch) {
  core::Schedule schedule;
  schedule.chain_group.assign(model.chain().size(), 0);
  schedule.group_chips = {group_chips};
  schedule.chain_batch.assign(model.chain().size(), batch);
  schedule.decode_chips = decode_chips;
  schedule.decode_batch = decode_batch;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = batch;
  return schedule;
}

/// Small live retrieval tier + query pool shared by the tests.
struct LiveTier {
  serving::ShardedIndex index;
  ann::Matrix queries;
};

LiveTier MakeLiveTier(serving::ShardBackend backend =
                          serving::ShardBackend::kFlat) {
  Rng rng(91);
  ann::Matrix data = ann::GenClustered(2000, 16, 16, 0.3f, rng);
  ann::Matrix queries = ann::GenQueriesNear(data, 64, 0.1f, rng);
  serving::ShardedIndexOptions options;
  options.num_shards = 3;
  options.backend = backend;
  options.num_threads = 1;  // The runtime's pool drives parallelism.
  return LiveTier{serving::ShardedIndex(std::move(data), options),
                  std::move(queries)};
}

// ---------------------------------------------------------------------------
// Workload scenario library
// ---------------------------------------------------------------------------

TEST(Workload, MmppTraceIsSeededBurstyAndRateConsistent) {
  MmppOptions options;
  options.quiet_qps = 40.0;
  options.burst_qps = 400.0;
  options.mean_quiet_seconds = 1.0;
  options.mean_burst_seconds = 0.25;
  const ArrivalTrace trace = MmppTrace(4000, options, 5);
  ASSERT_EQ(trace.arrivals.size(), 4000u);
  for (size_t i = 1; i < trace.arrivals.size(); ++i) {
    EXPECT_GE(trace.arrivals[i], trace.arrivals[i - 1]);
  }
  // Long-run rate within 20% of the dwell-weighted mean.
  RAGO_EXPECT_REL_NEAR(OfferedQps(trace), options.MeanQps(), 0.20);
  // Same seed reproduces the trace bit-exactly; another seed does not.
  const ArrivalTrace again = MmppTrace(4000, options, 5);
  EXPECT_EQ(trace.arrivals, again.arrivals);
  const ArrivalTrace other = MmppTrace(4000, options, 6);
  EXPECT_NE(trace.arrivals, other.arrivals);
}

TEST(Workload, DiurnalTraceOscillatesAroundMeanRate) {
  DiurnalOptions options;
  options.mean_qps = 80.0;
  options.period_seconds = 10.0;
  options.amplitude = 0.9;
  const ArrivalTrace trace = DiurnalTrace(6000, options, 7);
  for (size_t i = 1; i < trace.arrivals.size(); ++i) {
    EXPECT_GE(trace.arrivals[i], trace.arrivals[i - 1]);
  }
  RAGO_EXPECT_REL_NEAR(OfferedQps(trace), options.mean_qps, 0.20);
  // The peak window must be visibly denser than the trough window:
  // count arrivals in the first quarter-period vs the third.
  int peak = 0;
  int trough = 0;
  for (double t : trace.arrivals) {
    const double phase = std::fmod(t, options.period_seconds) /
                         options.period_seconds;
    if (phase < 0.25) {
      ++peak;
    } else if (phase >= 0.5 && phase < 0.75) {
      ++trough;
    }
  }
  EXPECT_GT(peak, trough * 2);
}

TEST(Workload, TraceFileRoundTripsBitExactly) {
  const std::string path =
      ::testing::TempDir() + "/rago_roundtrip.trace";
  for (const ArrivalTrace& trace :
       {PoissonTrace(500, 73.0, 11),
        MmppTrace(300, MmppOptions{}, 13),
        BurstTrace(32)}) {
    SaveTrace(trace, path);
    const ArrivalTrace loaded = LoadTrace(path);
    ASSERT_EQ(loaded.arrivals.size(), trace.arrivals.size());
    for (size_t i = 0; i < trace.arrivals.size(); ++i) {
      EXPECT_EQ(loaded.arrivals[i], trace.arrivals[i]) << "index " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(Workload, SaveTraceThrowsWhenTheWriteFails) {
  // /dev/full opens fine and fails every write with ENOSPC, which a
  // buffered stream first reports at fclose.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  std::fclose(probe);
  EXPECT_THROW(SaveTrace(PoissonTrace(50, 10.0, 3), "/dev/full"),
               ConfigError);
}

TEST(Workload, ZipfianStreamIsSeededAndSkewed) {
  const QueryStream stream = ZipfianQueryStream(5000, 100, 1.1, 9);
  ASSERT_EQ(stream.rows.size(), 5000u);
  for (int64_t row : stream.rows) {
    EXPECT_GE(row, 0);
    EXPECT_LT(row, 100);
  }
  // Fixed seed reproduces the stream bit-exactly; another seed and
  // another skew both perturb it.
  EXPECT_EQ(stream.rows, ZipfianQueryStream(5000, 100, 1.1, 9).rows);
  EXPECT_NE(stream.rows, ZipfianQueryStream(5000, 100, 1.1, 10).rows);
  EXPECT_NE(stream.rows, ZipfianQueryStream(5000, 100, 0.5, 9).rows);

  // Skewed popularity: the head row dominates far beyond its uniform
  // share; at skew 0 it stays near 1/pool.
  auto head_count = [](const QueryStream& s) {
    int count = 0;
    for (int64_t row : s.rows) {
      count += row == 0 ? 1 : 0;
    }
    return count;
  };
  EXPECT_GT(head_count(stream), 500);  // Uniform share would be ~50.
  const QueryStream uniform = ZipfianQueryStream(5000, 100, 0.0, 9);
  EXPECT_LT(head_count(uniform), 150);
}

TEST(Workload, RepeatNeighborStreamIsSeededAndRepeats) {
  RepeatNeighborOptions options;
  options.repeat_probability = 0.8;
  options.window = 16;
  const QueryStream stream =
      RepeatNeighborQueryStream(2000, 500, options, 21);
  ASSERT_EQ(stream.rows.size(), 2000u);
  for (int64_t row : stream.rows) {
    EXPECT_GE(row, 0);
    EXPECT_LT(row, 500);
  }
  EXPECT_EQ(stream.rows,
            RepeatNeighborQueryStream(2000, 500, options, 21).rows);
  EXPECT_NE(stream.rows,
            RepeatNeighborQueryStream(2000, 500, options, 22).rows);
  // Repeats must actually repeat: most requests re-ask a recent row.
  int repeats = 0;
  for (size_t i = 1; i < stream.rows.size(); ++i) {
    const size_t window_start =
        i >= static_cast<size_t>(options.window)
            ? i - static_cast<size_t>(options.window)
            : 0;
    for (size_t j = window_start; j < i; ++j) {
      if (stream.rows[j] == stream.rows[i]) {
        ++repeats;
        break;
      }
    }
  }
  EXPECT_GT(repeats, 1400);  // ~80% of 2000, minus fresh collisions.

  // The repeat-only limit collapses the stream onto its first row.
  options.repeat_probability = 1.0;
  const QueryStream collapsed =
      RepeatNeighborQueryStream(200, 500, options, 23);
  for (int64_t row : collapsed.rows) {
    EXPECT_EQ(row, collapsed.rows.front());
  }
}

TEST(Workload, QueryStreamsRejectInvalidOptions) {
  EXPECT_THROW(ZipfianQueryStream(0, 100, 1.0, 0), ConfigError);
  EXPECT_THROW(ZipfianQueryStream(10, 0, 1.0, 0), ConfigError);
  EXPECT_THROW(ZipfianQueryStream(10, 100, -0.5, 0), ConfigError);
  RepeatNeighborOptions options;
  options.repeat_probability = 1.5;
  EXPECT_THROW(RepeatNeighborQueryStream(10, 100, options, 0),
               ConfigError);
  options = RepeatNeighborOptions{};
  options.window = 0;
  EXPECT_THROW(RepeatNeighborQueryStream(10, 100, options, 0),
               ConfigError);
  EXPECT_THROW(RepeatNeighborQueryStream(0, 100, RepeatNeighborOptions{},
                                         0),
               ConfigError);
}

TEST(Workload, RejectsInvalidOptionsAndFiles) {
  EXPECT_THROW(UniformTrace(0, 10.0), ConfigError);
  EXPECT_THROW(PoissonTrace(10, -1.0, 0), ConfigError);
  EXPECT_THROW(BurstTrace(0), ConfigError);

  MmppOptions mmpp;
  mmpp.burst_qps = 0.0;
  EXPECT_THROW(MmppTrace(10, mmpp, 0), ConfigError);
  mmpp = MmppOptions{};
  mmpp.mean_burst_seconds = -1.0;
  EXPECT_THROW(MmppTrace(10, mmpp, 0), ConfigError);

  DiurnalOptions diurnal;
  diurnal.amplitude = 1.0;  // Would make the trough rate zero.
  EXPECT_THROW(DiurnalTrace(10, diurnal, 0), ConfigError);
  diurnal = DiurnalOptions{};
  diurnal.period_seconds = 0.0;
  EXPECT_THROW(DiurnalTrace(10, diurnal, 0), ConfigError);

  EXPECT_THROW(LoadTrace("/nonexistent/rago.trace"), ConfigError);
  // A malformed header must be rejected, not parsed as arrivals.
  const std::string path = ::testing::TempDir() + "/rago_bad.trace";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("not-a-trace\n1.0\n", file);
  std::fclose(file);
  EXPECT_THROW(LoadTrace(path), ConfigError);
  // A lying (huge) header count must report ConfigError when the
  // arrivals run out, not die in a giant up-front allocation.
  file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("rago-trace v1 18446744073709551615\n0.5\n1.5\n", file);
  std::fclose(file);
  EXPECT_THROW(LoadTrace(path), ConfigError);
  // Arrivals are non-negative: a sorted trace may not start below 0.
  file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("rago-trace v1 2\n-1\n0\n", file);
  std::fclose(file);
  EXPECT_THROW(LoadTrace(path), ConfigError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Runtime option validation
// ---------------------------------------------------------------------------

TEST(RuntimeOptionsTest, RejectsInvalidKnobs) {
  RuntimeOptions options;
  options.admission_queue_limit = 0;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = RuntimeOptions{};
  options.batch_timeout = -0.001;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = RuntimeOptions{};
  options.top_k = 0;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = RuntimeOptions{};
  options.slo.ttft_seconds = 0.0;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = RuntimeOptions{};
  options.timeline_limit = -1;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = RuntimeOptions{};
  EXPECT_NO_THROW(options.Validate());
}

TEST(RuntimeOptionsTest, ConstructorRejectsBadConfigurations) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const LiveTier tier = MakeLiveTier();
  RuntimeOptions bad;
  bad.admission_queue_limit = -3;
  EXPECT_THROW(ServingRuntime(model, SimpleSchedule(model, 8, 8, 4, 64),
                              tier.index, bad),
               ConfigError);
  // Iterative schemas are the DES's SimulateIterativeDecode territory.
  const core::PipelineModel iterative(core::MakeIterativeSchema(8, 4),
                                      DefaultCluster());
  EXPECT_THROW(
      ServingRuntime(iterative, SimpleSchedule(iterative, 8, 8, 4, 64),
                     tier.index, RuntimeOptions{}),
      ConfigError);
}

// ---------------------------------------------------------------------------
// Decode pool
// ---------------------------------------------------------------------------

/// Where and when one sequence finished: position in the global finish
/// order and the step that finished it.
struct Finish {
  int64_t order = 0;
  int64_t step = 0;
};

TEST(DecodePoolTest, MatchesPerTokenOracle) {
  // The oracle is the per-token loop the pool replaced: every step
  // walks the active set, bumps each token count, and keeps the ones
  // still short of decode_tokens.
  struct Seq {
    int id = 0;
    int tokens = 0;
  };
  for (const int decode_tokens : {0, 1, 7}) {
    Rng rng(static_cast<uint64_t>(31 + decode_tokens));
    const int64_t capacity = 3;  // Below the bursts below.
    DecodePool pool(capacity, decode_tokens);
    std::deque<int> oracle_waiting;
    std::vector<Seq> oracle_active;
    std::map<int, Finish> got;
    std::map<int, Finish> want;
    int next_id = 0;
    int64_t steps = 0;
    for (int op = 0; op < 400; ++op) {
      const uint64_t kind = rng.NextBounded(3);
      if (kind == 0) {
        for (uint64_t n = rng.NextBounded(6); n > 0; --n) {
          pool.Enqueue(next_id);
          oracle_waiting.push_back(next_id);
          ++next_id;
        }
      } else if (kind == 1) {
        std::vector<int> admitted;
        pool.Admit([&](int id) { admitted.push_back(id); });
        std::vector<int> expected;
        while (static_cast<int64_t>(oracle_active.size()) < capacity &&
               !oracle_waiting.empty()) {
          expected.push_back(oracle_waiting.front());
          oracle_active.push_back(Seq{oracle_waiting.front(), 0});
          oracle_waiting.pop_front();
        }
        EXPECT_EQ(admitted, expected);
      } else {
        ++steps;
        pool.Step([&](int id) {
          got[id] = Finish{static_cast<int64_t>(got.size()), steps};
        });
        std::vector<Seq> still;
        for (Seq& seq : oracle_active) {
          if (++seq.tokens >= decode_tokens) {
            want[seq.id] = Finish{static_cast<int64_t>(want.size()), steps};
          } else {
            still.push_back(seq);
          }
        }
        oracle_active = std::move(still);
      }
      ASSERT_EQ(pool.active(), oracle_active.size());
      ASSERT_EQ(pool.waiting(), oracle_waiting.size());
    }
    EXPECT_EQ(pool.steps(), steps);
    ASSERT_EQ(got.size(), want.size()) << "decode_tokens " << decode_tokens;
    EXPECT_GT(got.size(), 20u);
    for (const auto& [id, finish] : want) {
      ASSERT_EQ(got.count(id), 1u) << id;
      EXPECT_EQ(got[id].order, finish.order) << id;
      EXPECT_EQ(got[id].step, finish.step) << id;
    }
  }
}

TEST(DecodePoolTest, EveryRequestSpansExactlyItsDecodeSteps) {
  // Each completed request is resident for max(decode_tokens, 1)
  // decode-step spans: the steps whose midpoint falls inside its
  // decode span (a step ending at the admission instant is not its).
  const LiveTier tier = MakeLiveTier();
  for (const int decode_tokens : {1, 7}) {
    core::RAGSchema schema = rago::testing::TinyHyperscaleSchema();
    schema.workload.decode_tokens = decode_tokens;
    const core::PipelineModel model(schema, DefaultCluster());
    // Decode batch 4: admissions queue behind a full pool.
    const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 4);
    obs::TraceRecorder recorder;
    RuntimeOptions options;
    options.trace = &recorder;
    const ServingRuntime runtime(model, schedule, tier.index, options);
    const RuntimeResult result =
        runtime.Serve(PoissonTrace(60, 400.0, 11), tier.queries);
    ASSERT_EQ(result.completed, 60);

    std::vector<double> step_mids;
    for (const obs::TraceEvent& event : recorder.events()) {
      if (event.name == "decode-step") {
        step_mids.push_back(event.start + 0.5 * event.duration);
      }
    }
    EXPECT_EQ(static_cast<int64_t>(step_mids.size()), result.decode_steps);
    for (size_t id = 0; id < result.requests.size(); ++id) {
      const RequestOutcome& outcome = result.requests[id];
      int64_t resident = 0;
      for (double mid : step_mids) {
        resident +=
            mid > outcome.decode_start && mid < outcome.completion ? 1 : 0;
      }
      EXPECT_EQ(resident, decode_tokens) << "request " << id;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end serving
// ---------------------------------------------------------------------------

TEST(ServingRuntimeTest, ServesPoissonWorkloadEndToEnd) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  RuntimeOptions options;
  options.num_threads = 2;
  options.top_k = 5;
  const ServingRuntime runtime(model, schedule, tier.index, options);
  const RuntimeResult result =
      runtime.Serve(PoissonTrace(200, 100.0, 3), tier.queries);

  EXPECT_EQ(result.submitted, 200);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(result.completed, 200);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_EQ(result.ttft.count(), 200);
  EXPECT_GE(result.ttft.Percentile(0.99), result.ttft.Percentile(0.50));
  EXPECT_GT(result.tpot.Mean(), 0.0);

  // Stage telemetry: the retrieval stage ran real scans.
  ASSERT_EQ(result.stages.size(), 2u);  // retrieval, prefix.
  EXPECT_EQ(result.stages[0].type, core::StageType::kRetrieval);
  EXPECT_EQ(result.stages[0].requests, 200);
  EXPECT_GT(result.stages[0].batches, 0);
  EXPECT_GE(result.stages[0].batches, result.stages[0].full_batches);
  EXPECT_EQ(result.stages[0].queue_wait.count(), 200);
  for (const StageTelemetry& stage : result.stages) {
    EXPECT_GE(stage.utilization, 0.0);
    EXPECT_LE(stage.utilization, 1.01);
  }
  EXPECT_LE(result.decode_utilization, 1.01);

  // Real-scan accounting: every admitted request retrieved neighbors.
  const int qpr = model.schema().retrieval.queries_per_retrieval;
  EXPECT_EQ(result.real_queries_scanned, 200 * qpr);
  EXPECT_GT(result.real_scan_bytes, 0.0);
  for (const RequestOutcome& outcome : result.requests) {
    EXPECT_TRUE(outcome.admitted);
    EXPECT_GE(outcome.first_neighbor, 0);
    EXPECT_LT(outcome.first_neighbor,
              static_cast<int64_t>(tier.index.size()));
    EXPECT_GE(outcome.ttft, 0.0);
    EXPECT_GE(outcome.completion, outcome.arrival);
  }
}

TEST(ServingRuntimeTest, BoundedAdmissionShedsLoadAndScoresAgainstSlo) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 16);
  const LiveTier tier = MakeLiveTier();
  RuntimeOptions options;
  options.admission_queue_limit = 4;
  options.num_threads = 1;
  const ServingRuntime runtime(model, schedule, tier.index, options);
  const RuntimeResult result =
      runtime.Serve(BurstTrace(64), tier.queries);

  EXPECT_GT(result.rejected, 0);
  EXPECT_EQ(result.admitted + result.rejected, 64);
  EXPECT_EQ(result.completed, result.admitted);
  // Rejected requests count as SLO violations by construction.
  EXPECT_LT(result.slo_attainment, 1.0);
  for (const RequestOutcome& outcome : result.requests) {
    if (!outcome.admitted) {
      EXPECT_LT(outcome.ttft, 0.0);
      EXPECT_EQ(outcome.first_neighbor, -1);
    }
  }
}

TEST(ServingRuntimeTest, DeterministicAcrossThreadCounts) {
  // The PR-3 contract extended to the runtime: a fixed seed must give
  // bit-identical request outcomes, digests, and percentile telemetry
  // for every worker-pool size, with real scans in the loop.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier(serving::ShardBackend::kIvf);
  const ArrivalTrace trace = PoissonTrace(150, 120.0, 17);

  std::vector<RuntimeResult> results;
  for (int threads : {1, 2, 8}) {
    RuntimeOptions options;
    options.num_threads = threads;
    options.top_k = 5;
    const ServingRuntime runtime(model, schedule, tier.index, options);
    results.push_back(runtime.Serve(trace, tier.queries));
  }
  const RuntimeResult& base = results.front();
  for (size_t i = 1; i < results.size(); ++i) {
    const RuntimeResult& other = results[i];
    EXPECT_EQ(base.outcome_digest, other.outcome_digest);
    EXPECT_EQ(base.completed, other.completed);
    EXPECT_EQ(base.events_processed, other.events_processed);
    EXPECT_EQ(base.event_heap_high_water, other.event_heap_high_water);
    EXPECT_EQ(base.decode_steps, other.decode_steps);
    EXPECT_EQ(base.makespan, other.makespan);
    EXPECT_EQ(base.throughput, other.throughput);
    EXPECT_EQ(base.slo_attainment, other.slo_attainment);
    for (double p : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(base.ttft.Percentile(p), other.ttft.Percentile(p));
      EXPECT_EQ(base.tpot.Percentile(p), other.tpot.Percentile(p));
      EXPECT_EQ(base.queue_wait.Percentile(p),
                other.queue_wait.Percentile(p));
    }
    EXPECT_EQ(base.ttft.Mean(), other.ttft.Mean());
    ASSERT_EQ(base.requests.size(), other.requests.size());
    for (size_t r = 0; r < base.requests.size(); ++r) {
      EXPECT_EQ(base.requests[r].first_neighbor,
                other.requests[r].first_neighbor);
      EXPECT_EQ(base.requests[r].ttft, other.requests[r].ttft);
      EXPECT_EQ(base.requests[r].completion,
                other.requests[r].completion);
    }
    ASSERT_EQ(base.stages.size(), other.stages.size());
    for (size_t s = 0; s < base.stages.size(); ++s) {
      EXPECT_EQ(base.stages[s].batches, other.stages[s].batches);
      EXPECT_EQ(base.stages[s].busy_seconds,
                other.stages[s].busy_seconds);
      EXPECT_EQ(base.stages[s].queue_wait.Percentile(0.95),
                other.stages[s].queue_wait.Percentile(0.95));
    }
  }
}

TEST(ServingRuntimeTest, ObservabilityIsDigestNeutralAcrossThreadCounts) {
  // Attaching the trace recorder and the metrics registry must not
  // change a single RuntimeResult field: observation is append-only
  // from the serial event loop. Pinned against the untraced run for
  // every worker-pool size.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier(serving::ShardBackend::kIvf);
  const ArrivalTrace trace = PoissonTrace(150, 120.0, 17);

  RuntimeOptions plain_options;
  plain_options.top_k = 5;
  const RuntimeResult plain =
      ServingRuntime(model, schedule, tier.index, plain_options)
          .Serve(trace, tier.queries);

  for (int threads : {1, 2, 8}) {
    obs::TraceRecorder recorder;
    MetricsRegistry metrics;
    RuntimeOptions options;
    options.num_threads = threads;
    options.top_k = 5;
    options.trace = &recorder;
    options.metrics = &metrics;
    const ServingRuntime runtime(model, schedule, tier.index, options);
    const RuntimeResult traced = runtime.Serve(trace, tier.queries);

    // Observation actually happened...
    EXPECT_GT(recorder.size(), 0u) << "threads " << threads;
    EXPECT_GT(metrics.size(), 0u);
    ASSERT_NE(metrics.FindCounter("runtime.requests_completed"), nullptr);
    EXPECT_EQ(metrics.FindCounter("runtime.requests_completed")->value(),
              plain.completed);

    // ...and changed nothing.
    EXPECT_EQ(traced.outcome_digest, plain.outcome_digest)
        << "threads " << threads;
    EXPECT_EQ(traced.submitted, plain.submitted);
    EXPECT_EQ(traced.admitted, plain.admitted);
    EXPECT_EQ(traced.rejected, plain.rejected);
    EXPECT_EQ(traced.completed, plain.completed);
    EXPECT_EQ(traced.makespan, plain.makespan);
    EXPECT_EQ(traced.throughput, plain.throughput);
    EXPECT_EQ(traced.slo_attainment, plain.slo_attainment);
    EXPECT_EQ(traced.decode_utilization, plain.decode_utilization);
    EXPECT_EQ(traced.max_decode_queue_depth, plain.max_decode_queue_depth);
    EXPECT_EQ(traced.measured_prefix_hit_rate,
              plain.measured_prefix_hit_rate);
    for (double p : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(traced.ttft.Percentile(p), plain.ttft.Percentile(p));
      EXPECT_EQ(traced.tpot.Percentile(p), plain.tpot.Percentile(p));
      EXPECT_EQ(traced.queue_wait.Percentile(p),
                plain.queue_wait.Percentile(p));
    }
    ASSERT_EQ(traced.requests.size(), plain.requests.size());
    for (size_t r = 0; r < plain.requests.size(); ++r) {
      EXPECT_EQ(traced.requests[r].first_neighbor,
                plain.requests[r].first_neighbor);
      EXPECT_EQ(traced.requests[r].ttft, plain.requests[r].ttft);
      EXPECT_EQ(traced.requests[r].completion,
                plain.requests[r].completion);
    }
    ASSERT_EQ(traced.stages.size(), plain.stages.size());
    for (size_t s = 0; s < plain.stages.size(); ++s) {
      EXPECT_EQ(traced.stages[s].batches, plain.stages[s].batches);
      EXPECT_EQ(traced.stages[s].busy_seconds,
                plain.stages[s].busy_seconds);
      EXPECT_EQ(traced.stages[s].max_queue_depth,
                plain.stages[s].max_queue_depth);
    }

    // The trace itself is also thread-count invariant on the virtual
    // clock: same spans, same timestamps, for every pool size. The
    // request summary is the deterministic view — the Chrome export
    // additionally carries the measured real_scan_wall_s arg, which
    // is wall-clock and legitimately varies run to run.
    obs::TraceRecorder base_recorder;
    RuntimeOptions base_options = options;
    base_options.num_threads = 1;
    base_options.trace = &base_recorder;
    base_options.metrics = nullptr;
    ServingRuntime(model, schedule, tier.index, base_options)
        .Serve(trace, tier.queries);
    EXPECT_EQ(recorder.RequestSummaryJson(),
              base_recorder.RequestSummaryJson());
    EXPECT_EQ(recorder.size(), base_recorder.size());
  }
}

TEST(ServingRuntimeTest, TracksServingDesAcrossOptimizerPoints) {
  // Runtime-vs-DES cross-check: Serve and ServePriced run one event
  // loop on model-priced virtual time, and the real scans feed
  // results, never the clock. Under one RuntimeOptions every
  // virtual-clock output must therefore agree bit for bit, not merely
  // within a tolerance.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  opt::SearchOptions search = rago::testing::SmallSearchGrid();
  search.num_threads = 2;
  const opt::OptimizerResult frontier =
      opt::Optimizer(model, search).Search();
  ASSERT_FALSE(frontier.pareto.empty());
  const LiveTier tier = MakeLiveTier();
  RuntimeOptions options;
  options.num_threads = 2;

  const size_t stride = std::max<size_t>(1, frontier.pareto.size() / 3);
  int points_checked = 0;
  for (size_t i = 0; i < frontier.pareto.size(); i += stride) {
    const opt::ScheduledPoint& point = frontier.pareto[i];
    const ArrivalTrace trace =
        PoissonTrace(400, point.perf.qps * 0.6, 23);

    const RuntimeResult des =
        ServePriced(model, point.schedule, trace, options);
    const RuntimeResult live =
        ServingRuntime(model, point.schedule, tier.index, options)
            .Serve(trace, tier.queries);

    EXPECT_EQ(live.completed, des.completed);
    EXPECT_EQ(live.makespan, des.makespan);
    ASSERT_EQ(live.requests.size(), des.requests.size());
    for (size_t r = 0; r < live.requests.size(); ++r) {
      const RequestOutcome& a = live.requests[r];
      const RequestOutcome& b = des.requests[r];
      EXPECT_EQ(a.ttft, b.ttft) << "request " << r;
      EXPECT_EQ(a.tpot, b.tpot) << "request " << r;
      EXPECT_EQ(a.completion, b.completion) << "request " << r;
      EXPECT_EQ(a.queue_wait, b.queue_wait) << "request " << r;
    }
    ASSERT_EQ(live.stages.size(), des.stages.size());
    for (size_t s = 0; s < live.stages.size(); ++s) {
      EXPECT_EQ(live.stages[s].batches, des.stages[s].batches) << s;
      EXPECT_EQ(live.stages[s].full_batches, des.stages[s].full_batches)
          << s;
      EXPECT_EQ(live.stages[s].busy_seconds, des.stages[s].busy_seconds)
          << s;
    }
    EXPECT_EQ(live.server_busy_seconds, des.server_busy_seconds);
    EXPECT_EQ(live.events_processed, des.events_processed);
    EXPECT_EQ(live.event_heap_high_water, des.event_heap_high_water);
    EXPECT_EQ(live.decode_steps, des.decode_steps);
    EXPECT_EQ(live.decode_utilization, des.decode_utilization);
    EXPECT_EQ(live.throughput, des.throughput);
    EXPECT_EQ(live.ttft.Mean(), des.ttft.Mean());
    EXPECT_EQ(live.ttft.Percentile(0.99), des.ttft.Percentile(0.99));
    EXPECT_EQ(live.tpot.Mean(), des.tpot.Mean());
    EXPECT_EQ(live.tpot.Percentile(0.99), des.tpot.Percentile(0.99));
    ++points_checked;
  }
  EXPECT_GE(points_checked, 2);
}

TEST(ServingRuntimeTest, DesObservationSurfacesMatchTheRuntimeBytes) {
  // Without a cache, ServePriced is the runtime's event loop with
  // retrieval priced instead of scanned. The serialized observation
  // surfaces carry no scan results, so under the same options they
  // must be the same bytes from both entry points.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const core::EndToEndPerf perf = model.Evaluate(schedule);
  ASSERT_TRUE(perf.feasible);
  // Over capacity, so queues build and queue waits are non-zero.
  const ArrivalTrace trace = PoissonTrace(300, perf.qps * 1.2, 31);
  const LiveTier tier = MakeLiveTier();
  const SloTarget slo{perf.ttft * 2.0, perf.tpot * 2.0};
  obs::TimeSeriesOptions ts_options;
  ts_options.window_seconds = 0.1;
  obs::SloAlertOptions alert_options;
  alert_options.rules.push_back({});
  alert_options.rules.back().short_window_seconds = 0.2;
  alert_options.rules.back().long_window_seconds = 0.6;

  RuntimeOptions options;
  options.num_threads = 1;
  options.slo = slo;

  obs::TelemetryTimeSeries live_series(ts_options);
  obs::SloAlertEngine live_alerts(alert_options);
  obs::FlightRecorder live_flight(64);
  obs::TraceRecorder live_trace;
  RuntimeOptions live_options = options;
  live_options.timeseries = &live_series;
  live_options.alerts = &live_alerts;
  live_options.flight = &live_flight;
  live_options.trace = &live_trace;
  const RuntimeResult live =
      ServingRuntime(model, schedule, tier.index, live_options)
          .Serve(trace, tier.queries);

  obs::TelemetryTimeSeries des_series(ts_options);
  obs::SloAlertEngine des_alerts(alert_options);
  obs::FlightRecorder des_flight(64);
  obs::TraceRecorder des_trace;
  RuntimeOptions des_options = options;
  des_options.timeseries = &des_series;
  des_options.alerts = &des_alerts;
  des_options.flight = &des_flight;
  des_options.trace = &des_trace;
  const RuntimeResult des = ServePriced(model, schedule, trace, des_options);

  EXPECT_EQ(live.completed, des.completed);
  EXPECT_EQ(des_series.Json(), live_series.Json());
  EXPECT_EQ(des_alerts.Json(), live_alerts.Json());
  EXPECT_EQ(des_flight.Json(), live_flight.Json());
  EXPECT_EQ(des_trace.RequestSummaryJson(), live_trace.RequestSummaryJson());

  EXPECT_NE(des_flight.Json().find("rejected="), std::string::npos);
  double des_queue_wait = 0.0;
  for (const obs::WindowStats& window : des_series.Level(0)) {
    des_queue_wait += window.queue_wait.Sum();
  }
  EXPECT_GT(des_queue_wait, 0.0);
}

TEST(ServingRuntimeTest, ServePricedScansNothingAndRejectsCaches) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const ArrivalTrace trace = PoissonTrace(60, 100.0, 7);

  const RuntimeResult priced = ServePriced(model, schedule, trace, {});
  EXPECT_EQ(priced.completed, 60);
  EXPECT_EQ(priced.real_queries_scanned, 0);
  for (const RequestOutcome& outcome : priced.requests) {
    EXPECT_EQ(outcome.first_neighbor, -1);
  }
  ASSERT_EQ(priced.server_busy_seconds.size(),
            static_cast<size_t>(schedule.NumGroups() + 1));
  EXPECT_GT(priced.server_busy_seconds.back(), 0.0);

  RuntimeOptions cached;
  cached.cache.retrieval_capacity = 8;
  EXPECT_THROW(ServePriced(model, schedule, trace, cached), ConfigError);
  cached = {};
  cached.cache.doc_capacity = 8;
  EXPECT_THROW(ServePriced(model, schedule, trace, cached), ConfigError);
}

TEST(ServingRuntimeTest, AbortNotesTheExceptionInTheFlightRecorder) {
  // A time-series that is already finished rejects the first record
  // the event loop sends it, so serving aborts mid-run.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const ArrivalTrace trace = PoissonTrace(20, 100.0, 5);
  obs::TelemetryTimeSeries series(obs::TimeSeriesOptions{});
  series.Finish(0.0);
  obs::FlightRecorder flight(16);
  RuntimeOptions options;
  options.timeseries = &series;
  options.flight = &flight;
  EXPECT_THROW(ServePriced(model, schedule, trace, options), ConfigError);
  ASSERT_FALSE(flight.records().empty());
  EXPECT_EQ(flight.records().back().kind, "exception");
  EXPECT_EQ(flight.records().back().message, "serve aborted by exception");
}

TEST(ServingRuntimeTest, SloAttainmentMonotoneUnderRisingLoad) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const core::EndToEndPerf perf = model.Evaluate(schedule);
  ASSERT_TRUE(perf.feasible);
  const LiveTier tier = MakeLiveTier();

  RuntimeOptions options;
  options.num_threads = 1;
  // SLO placed between the unloaded and the saturated operating
  // points, so attainment must degrade as queues build. The light-load
  // TTFT includes up to one batch-forming timeout per pre-decode
  // stage, so the target budgets for those on top of the batch-flow
  // latency.
  options.batch_timeout = 0.005;
  options.slo.ttft_seconds = perf.ttft * 3.0 + 3 * options.batch_timeout;
  options.slo.tpot_seconds = perf.tpot * 3.0;
  options.admission_queue_limit = 64;
  const ServingRuntime runtime(model, schedule, tier.index, options);

  std::vector<double> attainment;
  for (double load : {0.3, 1.2, 4.0}) {
    const RuntimeResult result = runtime.Serve(
        PoissonTrace(300, perf.qps * load, 29), tier.queries);
    attainment.push_back(result.slo_attainment);
  }
  EXPECT_GT(attainment[0], 0.9);  // Light load comfortably meets SLO.
  // Monotone non-increasing (tiny tolerance for Poisson luck).
  EXPECT_GE(attainment[0] + 0.02, attainment[1]);
  EXPECT_GE(attainment[1] + 0.02, attainment[2]);
  EXPECT_LT(attainment[2], attainment[0]);
}

TEST(ServingRuntimeTest, RetrievalModelOverridePricesVirtualTime) {
  // Swapping in a pluggable retrieval model must change the virtual
  // timing (like the DES) while the scans keep returning real ids.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();

  retrieval::MeasuredScanProfile profile;
  profile.bytes_per_query_per_server = 64.0 * kMiB;
  profile.scan_bytes_per_core = 2.0 * kGiB;
  profile.merge_seconds_per_query = 1e-5;
  const retrieval::MeasuredRetrievalModel slow(
      profile, DefaultCpuServer(), schedule.retrieval_servers);

  RuntimeOptions options;
  options.num_threads = 1;
  const ServingRuntime baseline(model, schedule, tier.index, options);
  options.retrieval_model = &slow;
  const ServingRuntime priced(model, schedule, tier.index, options);

  const ArrivalTrace trace = PoissonTrace(60, 40.0, 31);
  const RuntimeResult fast_result = baseline.Serve(trace, tier.queries);
  const RuntimeResult slow_result = priced.Serve(trace, tier.queries);
  EXPECT_GT(slow_result.ttft.Mean(), fast_result.ttft.Mean());
  ASSERT_EQ(fast_result.requests.size(), slow_result.requests.size());
  for (size_t r = 0; r < fast_result.requests.size(); ++r) {
    EXPECT_EQ(fast_result.requests[r].first_neighbor,
              slow_result.requests[r].first_neighbor);
  }
}

TEST(ServingRuntimeTest, FullTelemetryLayerIsThreadInvariantAndNeutral) {
  // The whole observation stack at once — windowed ladder, burn-rate
  // alerting, flight recorder, sampled tracing — attached for every
  // worker-pool size: the outcome digest must equal the unobserved
  // run's, and every serialized observation surface must be
  // byte-identical across pool sizes.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier(serving::ShardBackend::kIvf);
  const ArrivalTrace trace = PoissonTrace(150, 120.0, 17);

  RuntimeOptions plain_options;
  plain_options.top_k = 5;
  const uint64_t plain_digest =
      ServingRuntime(model, schedule, tier.index, plain_options)
          .Serve(trace, tier.queries)
          .outcome_digest;

  obs::TimeSeriesOptions ts_options;
  ts_options.window_seconds = 0.1;
  ts_options.windows_per_level = 4;  // Small: force folds.
  obs::SloAlertOptions alert_options;
  alert_options.rules.push_back({});
  alert_options.rules.back().short_window_seconds = 0.2;
  alert_options.rules.back().long_window_seconds = 0.6;
  obs::TraceSamplingOptions sampling;
  sampling.head_rate = 0.25;
  sampling.tail_keep = 4;
  sampling.seed = 11;

  std::vector<std::string> series_jsons;
  std::vector<std::string> alert_jsons;
  std::vector<std::string> summary_jsons;
  for (int threads : {1, 2, 8}) {
    obs::TelemetryTimeSeries series(ts_options);
    obs::SloAlertEngine alerts(alert_options);
    obs::FlightRecorder flight(64);
    obs::TraceRecorder recorder;
    recorder.SetSampling(sampling);

    RuntimeOptions options;
    options.num_threads = threads;
    options.top_k = 5;
    options.timeseries = &series;
    options.alerts = &alerts;
    options.flight = &flight;
    options.trace = &recorder;
    const ServingRuntime runtime(model, schedule, tier.index, options);
    const RuntimeResult result = runtime.Serve(trace, tier.queries);

    EXPECT_EQ(result.outcome_digest, plain_digest) << threads;
    EXPECT_GT(series.windows_closed(), 0) << threads;
    EXPECT_EQ(recorder.finalized_requests(), 150) << threads;
    EXPECT_EQ(recorder.pending_requests(), 0u) << threads;
    EXPECT_GT(flight.appended(), 0) << threads;
    series_jsons.push_back(series.Json());
    alert_jsons.push_back(alerts.Json());
    summary_jsons.push_back(recorder.RequestSummaryJson());
  }
  for (size_t i = 1; i < series_jsons.size(); ++i) {
    EXPECT_EQ(series_jsons[i], series_jsons[0]);
    EXPECT_EQ(alert_jsons[i], alert_jsons[0]);
    EXPECT_EQ(summary_jsons[i], summary_jsons[0]);
  }
}

TEST(ServingRuntimeTest, AlertDigestFoldIsOptInAndDeterministic) {
  // Overload + an unmeetable SLO so the page rule definitely fires.
  // Alert transitions are observation-only: the digest matches the
  // unobserved run, and the transitions are the same for every pool
  // size.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 16);
  const LiveTier tier = MakeLiveTier();
  const ArrivalTrace trace = BurstTrace(64);

  RuntimeOptions base;
  base.admission_queue_limit = 4;
  base.slo.ttft_seconds = 1e-9;
  const uint64_t plain_digest =
      ServingRuntime(model, schedule, tier.index, base)
          .Serve(trace, tier.queries)
          .outcome_digest;

  obs::TimeSeriesOptions ts_options;
  ts_options.window_seconds = 0.05;
  obs::SloAlertOptions alert_options;
  alert_options.rules.push_back({});
  alert_options.rules.back().short_window_seconds = 0.1;
  alert_options.rules.back().long_window_seconds = 0.3;

  std::vector<std::vector<obs::AlertTransition>> transitions;
  for (int threads : {1, 2, 8}) {
    obs::TelemetryTimeSeries series(ts_options);
    obs::SloAlertEngine alerts(alert_options);
    RuntimeOptions options = base;
    options.num_threads = threads;
    options.timeseries = &series;
    options.alerts = &alerts;
    const RuntimeResult result =
        ServingRuntime(model, schedule, tier.index, options)
            .Serve(trace, tier.queries);
    ASSERT_FALSE(alerts.transitions().empty()) << threads;
    EXPECT_EQ(result.outcome_digest, plain_digest) << threads;
    transitions.push_back(alerts.transitions());
  }
  for (size_t run = 1; run < transitions.size(); ++run) {
    ASSERT_EQ(transitions[run].size(), transitions[0].size());
    for (size_t i = 0; i < transitions[0].size(); ++i) {
      const obs::AlertTransition& got = transitions[run][i];
      const obs::AlertTransition& want = transitions[0][i];
      EXPECT_EQ(got.time, want.time);
      EXPECT_EQ(got.rule, want.rule);
      EXPECT_EQ(got.firing, want.firing);
      EXPECT_EQ(got.short_burn, want.short_burn);
      EXPECT_EQ(got.long_burn, want.long_burn);
    }
  }
}

TEST(ServingRuntimeTest, AlertsWithoutTimeseriesAreRejected) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 16);
  const LiveTier tier = MakeLiveTier();
  obs::SloAlertOptions alert_options;
  alert_options.rules.push_back({});
  obs::SloAlertEngine alerts(alert_options);
  RuntimeOptions options;
  options.alerts = &alerts;  // No timeseries feeding it.
  EXPECT_THROW(ServingRuntime(model, schedule, tier.index, options)
                   .Serve(BurstTrace(4), tier.queries),
               ConfigError);
}

TEST(ServingRuntimeTest, CounterTracksExportStageTimelines) {
  // While tracing, every queue-depth sample of a stage is a pair of
  // Chrome "C" counter events (queue depth, utilization so far), and
  // timeline_limit = L caps each stage at L pairs: a stage with more
  // than L samples emits exactly 2L counter events.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  const ArrivalTrace trace = PoissonTrace(40, 100.0, 7);

  // Counter events per stage label, split into the two tracks.
  using TrackCounts = std::map<std::string, std::pair<int64_t, int64_t>>;
  const auto count_counters = [&](int limit) {
    obs::TraceRecorder recorder;
    RuntimeOptions options;
    options.trace = &recorder;
    options.timeline_limit = limit;
    ServingRuntime(model, schedule, tier.index, options)
        .Serve(trace, tier.queries);
    TrackCounts counts;
    const JsonValue doc = JsonValue::Parse(recorder.ChromeTraceJson());
    for (const JsonValue& event : doc.At("traceEvents").Items()) {
      if (event.At("ph").AsString() != "C") {
        continue;
      }
      const std::string& name = event.At("name").AsString();
      EXPECT_GE(event.At("args").At("value").AsNumber(), 0.0);
      const std::string depth = "queue-depth: ";
      const std::string util = "utilization: ";
      if (name.rfind(depth, 0) == 0) {
        ++counts[name.substr(depth.size())].first;
      } else if (name.rfind(util, 0) == 0) {
        ++counts[name.substr(util.size())].second;
      } else {
        ADD_FAILURE() << "unexpected counter track: " << name;
      }
    }
    return counts;
  };

  const TrackCounts uncapped = count_counters(1 << 20);
  ASSERT_EQ(uncapped.size(), 2u);  // retrieval, prefix.
  int64_t most = 0;
  for (const auto& [stage, pair] : uncapped) {
    EXPECT_EQ(pair.first, pair.second) << stage;
    EXPECT_GT(pair.first, 0) << stage;
    most = std::max(most, pair.first);
  }

  const int limit = static_cast<int>(most / 2);
  ASSERT_GT(limit, 0);
  const TrackCounts capped = count_counters(limit);
  ASSERT_EQ(capped.size(), uncapped.size());
  int capped_stages = 0;
  for (const auto& [stage, pair] : uncapped) {
    const int64_t expected = std::min<int64_t>(pair.first, limit);
    EXPECT_EQ(capped.at(stage).first, expected) << stage;
    EXPECT_EQ(capped.at(stage).second, expected) << stage;
    capped_stages += pair.first > limit ? 1 : 0;
  }
  EXPECT_GE(capped_stages, 1);
  EXPECT_TRUE(count_counters(0).empty());
}

}  // namespace
}  // namespace rago::runtime
