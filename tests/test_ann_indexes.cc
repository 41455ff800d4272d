/**
 * @file test_ann_indexes.cc
 * Tests for the functional ANN indexes: flat, IVF, IVF-PQ, and the
 * ScaNN-style tree — including the recall-vs-scanned-work trade-off
 * that drives the paper's P_scan knob (Fig. 7b).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/ann/hnsw_index.h"
#include "retrieval/ann/ivf_index.h"
#include "retrieval/ann/ivfpq_index.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/recall.h"
#include "retrieval/ann/scann_tree.h"
#include "tests/testing/test_support.h"

namespace rago::ann {
namespace {

// The substrate defaults (seed 17, 32 clusters, 0.3 spread, 0.1 query
// noise) are exactly this file's historical bed parameters.
using TestBed = rago::testing::AnnTestBed;
using rago::testing::MakeAnnTestBed;

TestBed MakeBed(size_t n = 4000, size_t dim = 16, size_t num_queries = 32,
                uint64_t seed = 17) {
  return MakeAnnTestBed(n, dim, num_queries, seed);
}

Matrix Copy(const Matrix& m) { return rago::testing::CopyMatrix(m); }

TEST(FlatIndex, ReturnsExactSortedNeighbors) {
  Rng rng(1);
  const Matrix data = GenUniform(100, 4, rng);
  const FlatIndex index(Copy(data), Metric::kL2);
  const Matrix queries = GenUniform(5, 4, rng);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto result = index.Search(queries.Row(q), 10);
    ASSERT_EQ(result.size(), 10u);
    for (size_t i = 1; i < result.size(); ++i) {
      EXPECT_LE(result[i - 1].dist, result[i].dist);
    }
    // Brute-force verify the top hit.
    float best = 1e30f;
    int64_t best_id = -1;
    for (size_t i = 0; i < data.rows(); ++i) {
      const float d = L2Sq(queries.Row(q), data.Row(i), 4);
      if (d < best) {
        best = d;
        best_id = static_cast<int64_t>(i);
      }
    }
    EXPECT_EQ(result[0].id, best_id);
  }
}

TEST(FlatIndex, SelfQueryFindsSelf) {
  Rng rng(2);
  const Matrix data = GenUniform(50, 8, rng);
  const FlatIndex index(Copy(data), Metric::kL2);
  for (size_t i = 0; i < 10; ++i) {
    const auto result = index.Search(data.Row(i), 1);
    EXPECT_EQ(result[0].id, static_cast<int64_t>(i));
    EXPECT_NEAR(result[0].dist, 0.0f, 1e-9f);
  }
}

TEST(FlatIndex, InnerProductMetricPrefersLargerDot) {
  Matrix data(2, 2);
  data.Row(0)[0] = 1.0f;   // dot with q = 1
  data.Row(1)[0] = 10.0f;  // dot with q = 10
  const FlatIndex index(Copy(data), Metric::kInnerProduct);
  const float q[2] = {1.0f, 0.0f};
  EXPECT_EQ(index.Search(q, 1)[0].id, 1);
}

TEST(TopK, KeepsSmallestAndBreaksTiesDeterministically) {
  TopK topk(3);
  topk.Push(5.0f, 1);
  topk.Push(2.0f, 2);
  topk.Push(9.0f, 3);
  topk.Push(1.0f, 4);
  topk.Push(2.0f, 5);
  const auto out = topk.SortedTake();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 4);
  EXPECT_EQ(out[1].id, 2);  // dist 2.0, lower id first
  EXPECT_EQ(out[2].id, 5);
}

TEST(IvfIndex, FullProbeMatchesExactSearch) {
  const TestBed bed = MakeBed(1000, 8, 8);
  Rng rng(3);
  IvfOptions options;
  options.nlist = 16;
  const IvfIndex ivf(Copy(bed.data), Metric::kL2, options, rng);
  const FlatIndex flat(Copy(bed.data), Metric::kL2);
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    const auto approx = ivf.Search(bed.queries.Row(q), 5, /*nprobe=*/16);
    const auto exact = flat.Search(bed.queries.Row(q), 5);
    ASSERT_EQ(approx.size(), exact.size());
    for (size_t i = 0; i < approx.size(); ++i) {
      EXPECT_EQ(approx[i].id, exact[i].id);
    }
  }
}

TEST(IvfIndex, RecallImprovesWithNprobe) {
  const TestBed bed = MakeBed();
  Rng rng(4);
  IvfOptions options;
  options.nlist = 64;
  const IvfIndex ivf(Copy(bed.data), Metric::kL2, options, rng);
  std::vector<double> recalls;
  for (int nprobe : {1, 4, 16, 64}) {
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      results.push_back(ivf.Search(bed.queries.Row(q), 10, nprobe));
    }
    recalls.push_back(MeanRecallAtK(results, bed.truth, 10));
  }
  for (size_t i = 1; i < recalls.size(); ++i) {
    EXPECT_GE(recalls[i], recalls[i - 1] - 1e-9);
  }
  EXPECT_NEAR(recalls.back(), 1.0, 1e-9);  // nprobe = nlist is exact.
  EXPECT_LT(recalls.front(), 1.0);         // Tiny probe misses some.
}

TEST(IvfIndex, FullProbeIsBitIdenticalToFlatForBothMetrics) {
  // The split-plane list scan is exact: probing every list returns the
  // flat fp32 scan's ids and distance bits, under scalar and dispatched
  // kernels alike.
  const TestBed bed = MakeBed(1500, 24, 12);
  for (Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    Rng rng(8);
    IvfOptions options;
    options.nlist = 12;
    const IvfIndex ivf(Copy(bed.data), metric, options, rng);
    const FlatIndex flat(Copy(bed.data), metric);
    for (bool force_scalar : {true, false}) {
      const bool was_forced = kernels::ForceScalarActive();
      kernels::SetForceScalar(force_scalar);
      for (size_t q = 0; q < bed.queries.rows(); ++q) {
        const auto got = ivf.Search(bed.queries.Row(q), 7, /*nprobe=*/12);
        const auto want = flat.Search(bed.queries.Row(q), 7);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << "query " << q;
          EXPECT_EQ(got[i].dist, want[i].dist) << "query " << q;
        }
      }
      kernels::SetForceScalar(was_forced);
    }
  }
}

TEST(IvfIndex, SearchBatchEqualsSearchAndCountsProbedRows) {
  const TestBed bed = MakeBed(2000, 16, 20);
  for (Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    Rng rng(9);
    IvfOptions options;
    options.nlist = 16;
    const IvfIndex ivf(Copy(bed.data), metric, options, rng);
    IvfScanStats stats;
    const auto batched = ivf.SearchBatch(bed.queries, 10, /*nprobe=*/3,
                                         &stats);
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      const auto single = ivf.Search(bed.queries.Row(q), 10, 3);
      ASSERT_EQ(batched[q].size(), single.size());
      for (size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(batched[q][i].id, single[i].id);
        EXPECT_EQ(batched[q][i].dist, single[i].dist);
      }
    }
    // Three lists per query, each read in its high plane; only the
    // rows that can still reach the top-10 also read the low plane.
    EXPECT_GT(stats.probed_rows, 0);
    EXPECT_GE(stats.verified_rows,
              static_cast<int64_t>(10 * bed.queries.rows()));
    EXPECT_LT(stats.verified_rows, stats.probed_rows);
    // Probing every list reads every row once per query.
    IvfScanStats full;
    ivf.SearchBatch(bed.queries, 10, /*nprobe=*/16, &full);
    EXPECT_EQ(full.probed_rows,
              static_cast<int64_t>(2000 * bed.queries.rows()));
  }
}

TEST(IvfIndex, ExpectedScannedVectorsScalesWithProbe) {
  const TestBed bed = MakeBed(2000, 8, 4);
  Rng rng(5);
  IvfOptions options;
  options.nlist = 20;
  const IvfIndex ivf(Copy(bed.data), Metric::kL2, options, rng);
  EXPECT_NEAR(ivf.ExpectedScannedVectors(5), 500.0, 1e-9);
  EXPECT_NEAR(ivf.ExpectedScannedVectors(20), 2000.0, 1e-9);
  EXPECT_NEAR(ivf.ExpectedScannedVectors(40), 2000.0, 1e-9);  // Clamped.
}

TEST(IvfPq, RecallReasonableAndImprovesWithRerank) {
  const TestBed bed = MakeBed();
  Rng rng(6);
  IvfPqOptions options;
  options.nlist = 32;
  options.pq_subspaces = 8;
  const IvfPqIndex index(Copy(bed.data), options, rng);
  std::vector<std::vector<Neighbor>> plain;
  std::vector<std::vector<Neighbor>> reranked;
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    plain.push_back(index.Search(bed.queries.Row(q), 10, /*nprobe=*/8));
    reranked.push_back(
        index.Search(bed.queries.Row(q), 10, /*nprobe=*/8, /*rerank=*/50));
  }
  const double recall_plain = MeanRecallAtK(plain, bed.truth, 10);
  const double recall_reranked = MeanRecallAtK(reranked, bed.truth, 10);
  EXPECT_GT(recall_plain, 0.5);
  EXPECT_GE(recall_reranked, recall_plain - 1e-9);
  EXPECT_GT(recall_reranked, 0.8);
}

TEST(IvfPq, ScannedBytesMatchCodeGeometry) {
  const TestBed bed = MakeBed(1000, 16, 4);
  Rng rng(7);
  IvfPqOptions options;
  options.nlist = 10;
  options.pq_subspaces = 4;
  const IvfPqIndex index(Copy(bed.data), options, rng);
  // nprobe=1 scans ~1/10 of 1000 vectors at 4 bytes each.
  EXPECT_NEAR(index.ExpectedScannedBytes(1), 400.0, 1e-9);
  EXPECT_NEAR(index.ExpectedScannedBytes(10), 4000.0, 1e-9);
}

TEST(ScannTree, RecallImprovesWithBeamWidth) {
  const TestBed bed = MakeBed();
  Rng rng(9);
  ScannTreeOptions options;
  options.levels = 2;
  options.fanout = 8;  // 64 leaves over 4000 vectors.
  options.pq_subspaces = 8;
  const ScannTree tree(Copy(bed.data), options, rng);
  std::vector<double> recalls;
  for (int beam : {1, 4, 16, 64}) {
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      results.push_back(
          tree.Search(bed.queries.Row(q), 10, beam, /*rerank=*/50));
    }
    recalls.push_back(MeanRecallAtK(results, bed.truth, 10));
  }
  for (size_t i = 1; i < recalls.size(); ++i) {
    EXPECT_GE(recalls[i], recalls[i - 1] - 0.05);
  }
  EXPECT_GT(recalls.back(), 0.9);
}

TEST(ScannTree, LeafBytesScaleWithBeam) {
  const TestBed bed = MakeBed(2000, 8, 2);
  Rng rng(10);
  ScannTreeOptions options;
  options.levels = 2;
  options.fanout = 8;
  options.pq_subspaces = 4;
  const ScannTree tree(Copy(bed.data), options, rng);
  EXPECT_GT(tree.NumLeaves(), 8u);
  const double one = tree.ExpectedLeafBytesScanned(1);
  const double four = tree.ExpectedLeafBytesScanned(4);
  EXPECT_NEAR(four / one, 4.0, 1e-9);
}

TEST(ScannTree, ThreeLevelTreeMirrorsPaperShape) {
  // The paper's hyperscale index is a balanced 3-level tree; verify a
  // miniature 3-level build searches correctly.
  const TestBed bed = MakeBed(3000, 8, 8);
  Rng rng(11);
  ScannTreeOptions options;
  options.levels = 3;
  options.fanout = 6;
  options.pq_subspaces = 4;
  const ScannTree tree(Copy(bed.data), options, rng);
  std::vector<std::vector<Neighbor>> results;
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    results.push_back(tree.Search(bed.queries.Row(q), 10, /*beam=*/12,
                                  /*rerank=*/60));
  }
  EXPECT_GT(MeanRecallAtK(results, bed.truth, 10), 0.6);
}

TEST(ApproximateIndexes, DegenerateShapesMatchFlatWhenSearchedExhaustively) {
  // k > n, one dimension, and rows repeated five ways (distance ties).
  // Searched with every list/leaf probed and every candidate re-ranked
  // (HNSW: ef = n), each approximate backend returns min(k, n)
  // neighbors at recall 1.0 against FlatIndex. PQ trains 256 centroids
  // per subspace, so every shape has n = 300 rows.
  struct Shape {
    const char* name;
    Matrix data;
    size_t k;
    int pq_subspaces;
  };
  Rng rng(41);
  std::vector<Shape> shapes;
  shapes.push_back({"k>n", GenUniform(300, 8, rng), 400, 4});
  shapes.push_back({"dim1", GenUniform(300, 1, rng), 10, 1});
  const Matrix distinct = GenUniform(60, 8, rng);
  Matrix repeated(300, 8);
  for (size_t row = 0; row < repeated.rows(); ++row) {
    repeated.CopyRowFrom(distinct, row % distinct.rows(), row);
  }
  shapes.push_back({"repeated", std::move(repeated), 10, 4});

  for (const Shape& shape : shapes) {
    const size_t n = shape.data.rows();
    const int all = static_cast<int>(n);
    const size_t want = std::min(shape.k, n);
    const Matrix queries = GenUniform(6, shape.data.dim(), rng);
    const FlatIndex flat(Copy(shape.data), Metric::kL2);

    Rng build_rng(43);
    const HnswIndex hnsw(Copy(shape.data), Metric::kL2, HnswOptions{},
                         build_rng);
    IvfPqOptions ivfpq_options;
    ivfpq_options.nlist = 8;
    ivfpq_options.pq_subspaces = shape.pq_subspaces;
    const IvfPqIndex ivfpq(Copy(shape.data), ivfpq_options, build_rng);
    ScannTreeOptions tree_options;
    tree_options.levels = 2;
    tree_options.fanout = 4;
    tree_options.pq_subspaces = shape.pq_subspaces;
    const ScannTree tree(Copy(shape.data), tree_options, build_rng);

    for (size_t q = 0; q < queries.rows(); ++q) {
      const float* query = queries.Row(q);
      const auto truth = flat.Search(query, shape.k);
      ASSERT_EQ(truth.size(), want) << shape.name;
      const std::vector<std::pair<const char*, std::vector<Neighbor>>>
          results = {
              {"hnsw", hnsw.Search(query, shape.k, all)},
              {"ivfpq", ivfpq.Search(query, shape.k, ivfpq_options.nlist,
                                     all)},
              {"scann", tree.Search(query, shape.k, all, all)},
          };
      for (const auto& [backend, got] : results) {
        EXPECT_EQ(got.size(), want) << shape.name << " " << backend;
        EXPECT_EQ(RecallAtK(got, truth, shape.k), 1.0)
            << shape.name << " " << backend << " query " << q;
      }
    }
  }
}

TEST(Recall, ComputesFractionOfTruthFound) {
  std::vector<Neighbor> truth = {{0.1f, 1}, {0.2f, 2}, {0.3f, 3}};
  std::vector<Neighbor> approx = {{0.1f, 1}, {0.4f, 9}, {0.3f, 3}};
  EXPECT_NEAR(RecallAtK(approx, truth, 3), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(RecallAtK(approx, truth, 1), 1.0, 1e-12);
  EXPECT_THROW(RecallAtK(approx, truth, 0), rago::ConfigError);
}

}  // namespace
}  // namespace rago::ann
