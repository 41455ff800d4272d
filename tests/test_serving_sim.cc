/**
 * @file test_serving_sim.cc
 * Tests for the trace-driven serving DES (runtime::ServePriced: the
 * runtime's event loop with retrieval priced, not scanned), including
 * the key validation property: the DES and the analytical pipeline
 * model must agree at the operating points the closed form describes.
 */
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/check.h"
#include "common/fnv.h"
#include "common/histogram.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "hardware/cluster.h"
#include "rago/optimizer.h"
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

TEST(ServingSim, Traces) {
  const ArrivalTrace uniform = UniformTrace(10, 100.0);
  EXPECT_EQ(uniform.arrivals.size(), 10u);
  EXPECT_DOUBLE_EQ(uniform.arrivals[1] - uniform.arrivals[0], 0.01);

  const ArrivalTrace poisson = PoissonTrace(1000, 50.0, 7);
  EXPECT_EQ(poisson.arrivals.size(), 1000u);
  for (size_t i = 1; i < poisson.arrivals.size(); ++i) {
    EXPECT_GE(poisson.arrivals[i], poisson.arrivals[i - 1]);
  }
  // Mean rate close to 50 QPS.
  EXPECT_NEAR(1000.0 / poisson.arrivals.back(), 50.0, 5.0);

  const ArrivalTrace burst = BurstTrace(16);
  EXPECT_DOUBLE_EQ(burst.arrivals.back(), 0.0);

  EXPECT_THROW(UniformTrace(0, 1.0), rago::ConfigError);
}

TEST(ServingSim, AllRequestsComplete) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const RuntimeResult result =
      ServePriced(model, schedule, PoissonTrace(200, 100.0, 3), {});
  EXPECT_EQ(result.completed, 200);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_GT(result.ttft.Mean(), 0.0);
  EXPECT_GE(result.ttft.Percentile(0.99), result.ttft.Mean());
}

TEST(ServingSim, PercentilesOrderedAndPopulated) {
  // TTFT/TPOT percentiles flow through the shared histogram; they must
  // be ordered and consistent with the means.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const RuntimeResult result =
      ServePriced(model, schedule, PoissonTrace(400, 150.0, 5), {});
  const Histogram& ttft = result.ttft;
  const Histogram& tpot = result.tpot;
  EXPECT_GT(ttft.Percentile(0.50), 0.0);
  EXPECT_LE(ttft.Percentile(0.50), ttft.Percentile(0.95));
  EXPECT_LE(ttft.Percentile(0.95), ttft.Percentile(0.99));
  EXPECT_LE(ttft.Percentile(0.50), ttft.Mean() * 2.0);
  EXPECT_GT(tpot.Percentile(0.50), 0.0);
  EXPECT_LE(tpot.Percentile(0.50), tpot.Percentile(0.95));
  EXPECT_LE(tpot.Percentile(0.95), tpot.Percentile(0.99));
}

TEST(ServingSim, RejectsNegativeBatchTimeout) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  RuntimeOptions options;
  options.batch_timeout = -0.01;
  EXPECT_THROW(ServePriced(model, schedule, UniformTrace(10, 5.0), options),
               rago::ConfigError);
}

TEST(ServingSim, RejectsNonFiniteAndNegativeArrivals) {
  // A NaN arrival would break the event heap's ordering, +inf would
  // make TTFT inf - inf, and a negative one would inflate its own TTFT.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& arrivals :
       std::vector<std::vector<double>>{{0.1, nan}, {-1.0}, {inf}}) {
    ArrivalTrace trace;
    trace.arrivals = arrivals;
    EXPECT_THROW(ServePriced(model, schedule, trace, {}),
                 rago::ConfigError);
  }
}

TEST(ServingSim, LowLoadTtftApproachesAnalyticalLatency) {
  // One request at a time: no queueing, so TTFT ~= sum of stage
  // latencies plus at most the batch-forming timeout per stage.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 1, 16);
  const core::EndToEndPerf analytic = model.Evaluate(schedule);
  ASSERT_TRUE(analytic.feasible);
  const RuntimeResult result =
      ServePriced(model, schedule, UniformTrace(50, 2.0), {});
  RAGO_EXPECT_REL_NEAR(result.ttft.Mean(), analytic.ttft, 0.25);
}

TEST(ServingSim, SaturationThroughputMatchesAnalyticalQps) {
  // Offered load far above capacity: the measured completion rate must
  // approach the analytical min-stage throughput.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 16, 16, 16, 256);
  const core::EndToEndPerf analytic = model.Evaluate(schedule);
  ASSERT_TRUE(analytic.feasible);
  const RuntimeResult result = ServePriced(
      model, schedule, UniformTrace(3000, analytic.qps * 5.0), {});
  EXPECT_NEAR(result.throughput / analytic.qps, 1.0, 0.20);
}

TEST(ServingSim, ThroughputCappedByOfferedLoad) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 16, 16, 4, 64);
  const core::EndToEndPerf analytic = model.Evaluate(schedule);
  const double offered = analytic.qps * 0.3;
  const RuntimeResult result =
      ServePriced(model, schedule, UniformTrace(500, offered), {});
  EXPECT_LE(result.throughput, offered * 1.1);
  RAGO_EXPECT_REL_NEAR(result.throughput, offered, 0.1);
}

TEST(ServingSim, UtilizationBoundedAndBottleneckHighest) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 16, 16, 16, 256);
  const core::EndToEndPerf analytic = model.Evaluate(schedule);
  const RuntimeResult result = ServePriced(
      model, schedule, UniformTrace(2000, analytic.qps * 3.0), {});
  // Every server (the collocation groups, then retrieval) is busy at
  // most the whole makespan.
  for (double busy : result.server_busy_seconds) {
    EXPECT_GE(busy / result.makespan, 0.0);
    EXPECT_LE(busy / result.makespan, 1.01);
  }
  EXPECT_LE(result.decode_utilization, 1.01);
}

TEST(ServingSim, BurstBenefitsFromMicroBatching) {
  // Same burst, micro-batched vs monolithic pre-decode batching: the
  // micro-batched schedule should deliver lower average TTFT, echoing
  // BurstAverageTtft and paper Fig. 19.
  const core::PipelineModel model(
      core::MakeLongContextSchema(8, 1'000'000), DefaultCluster());
  const core::Schedule micro = SimpleSchedule(model, 32, 8, 2, 64);
  const core::Schedule mono = SimpleSchedule(model, 32, 8, 32, 64);
  RuntimeOptions options;
  options.batch_timeout = 10.0;  // Force full batches.
  const RuntimeResult micro_result =
      ServePriced(model, micro, BurstTrace(32), options);
  const RuntimeResult mono_result =
      ServePriced(model, mono, BurstTrace(32), options);
  EXPECT_LT(micro_result.ttft.Mean(), mono_result.ttft.Mean());
}

TEST(ServingSim, MultiGroupPipelineRuns) {
  const core::PipelineModel model(core::MakeRewriterRerankerSchema(8),
                                  DefaultCluster());
  core::Schedule schedule;
  schedule.chain_group = {0, 0, 1, 1};
  schedule.group_chips = {4, 16};
  schedule.chain_batch = {4, 4, 4, 4};
  schedule.decode_chips = 16;
  schedule.decode_batch = 64;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = 4;
  const RuntimeResult result =
      ServePriced(model, schedule, PoissonTrace(200, 50.0, 11), {});
  EXPECT_EQ(result.completed, 200);
  // Two collocation groups, then the retrieval tier.
  ASSERT_EQ(result.server_busy_seconds.size(), 3u);
}

TEST(ServingSim, RejectsIterativeSchemas) {
  const core::PipelineModel model(core::MakeIterativeSchema(8, 4),
                                  DefaultCluster());
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  EXPECT_THROW(ServePriced(model, schedule, BurstTrace(4), {}),
               rago::ConfigError);
}

TEST(ServingSim, DeterministicForIdenticalInputs) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const ArrivalTrace trace = PoissonTrace(100, 80.0, 13);
  const RuntimeResult a = ServePriced(model, schedule, trace, {});
  const RuntimeResult b = ServePriced(model, schedule, trace, {});
  EXPECT_DOUBLE_EQ(a.ttft.Mean(), b.ttft.Mean());
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

// The values the pin has always folded, in their historical order:
// completion count, makespan, throughput, TTFT and TPOT mean/p50/p95/
// p99, retrieval and decode utilization, then each collocation group's
// utilization (busy seconds per server over the makespan).
uint64_t FoldResult(uint64_t hash, const RuntimeResult& result) {
  const std::vector<double>& busy = result.server_busy_seconds;
  const size_t groups = busy.size() - 1;  // Retrieval is the last server.
  const Histogram& ttft = result.ttft;
  const Histogram& tpot = result.tpot;
  hash = FnvFoldU64(hash, static_cast<uint64_t>(result.completed));
  for (double value :
       {result.makespan, result.throughput, ttft.Mean(),
        ttft.Percentile(0.50), ttft.Percentile(0.95), ttft.Percentile(0.99),
        tpot.Mean(), tpot.Percentile(0.50), tpot.Percentile(0.95),
        tpot.Percentile(0.99), busy[groups] / result.makespan,
        result.decode_utilization}) {
    hash = FnvFoldDouble(hash, value);
  }
  hash = FnvFoldU64(hash, groups);
  for (size_t g = 0; g < groups; ++g) {
    hash = FnvFoldDouble(hash, busy[g] / result.makespan);
  }
  return hash;
}

// Every folded value, bit for bit, over the optimizer frontier x
// {Poisson, burst, uniform} traffic x two flush timeouts. Case IV adds
// collocated multi-stage groups, whose utilization sums several stages
// per server. The hash was taken from the DES's own event loop, before
// it became a priced-only run of the runtime's engine, so it pins that
// the merge moved no result bit.
TEST(ServingSim, ResultsArePinnedAcrossFrontierAndTraffic) {
  const core::PipelineModel models[] = {
      rago::testing::TinyHyperscaleModel(),
      core::PipelineModel(rago::testing::TinyRewriterRerankerSchema(),
                          DefaultCluster())};
  uint64_t hash = kFnvOffset;
  size_t runs = 0;
  size_t points = 0;
  for (const core::PipelineModel& model : models) {
    opt::SearchOptions search = rago::testing::SmallSearchGrid();
    search.num_threads = 2;
    const opt::OptimizerResult frontier =
        opt::Optimizer(model, search).Search();
    ASSERT_FALSE(frontier.pareto.empty());
    points += frontier.pareto.size();
    for (const opt::ScheduledPoint& point : frontier.pareto) {
      const double qps = point.perf.qps;
      const ArrivalTrace traces[] = {PoissonTrace(200, qps * 0.8, 41),
                                     BurstTrace(48),
                                     UniformTrace(150, qps * 1.2)};
      for (const ArrivalTrace& trace : traces) {
        for (double timeout : {0.005, 0.05}) {
          RuntimeOptions options;
          options.batch_timeout = timeout;
          const RuntimeResult result =
              ServePriced(model, point.schedule, trace, options);
          EXPECT_EQ(result.completed,
                    static_cast<int64_t>(trace.arrivals.size()));
          hash = FoldResult(hash, result);
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 6 * points);
  EXPECT_EQ(points, 18u);
  EXPECT_EQ(hash, 5236333281597725790ull);
}

}  // namespace
}  // namespace rago::runtime
