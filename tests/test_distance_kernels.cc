/**
 * @file test_distance_kernels.cc
 * Tests for the batched distance-kernel layer: scalar/dispatched
 * parity across remainder-lane dims and unaligned bases, batch-vs-tile
 * bit-identity, ADC bit-identity to a scalar strided-code oracle,
 * deterministic tie-breaks, split-plane scans bit-identical to fp32
 * scans in every variant, and
 * end-to-end id parity (exact paths) / recall parity (approximate
 * paths) between the scalar and dispatched variants.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/ann/hnsw_index.h"
#include "retrieval/ann/ivf_index.h"
#include "retrieval/ann/ivfpq_index.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/packed_codes.h"
#include "retrieval/ann/recall.h"
#include "retrieval/ann/scann_tree.h"
#include "tests/testing/adc_oracle.h"
#include "tests/testing/test_support.h"

namespace rago::ann::kernels {
namespace {

/// Dims that exercise the empty vector body (1, 7), exact multiples of
/// the 8-float lane width (8, 64), and remainder lanes (9, 100).
const size_t kDims[] = {1, 7, 8, 9, 64, 100};

/// Restores the force-scalar state on scope exit so tests can toggle
/// the process-wide dispatch without leaking into each other.
class ForceScalarGuard {
 public:
  explicit ForceScalarGuard(bool force) : previous_(ForceScalarActive()) {
    SetForceScalar(force);
  }
  ~ForceScalarGuard() { SetForceScalar(previous_); }

 private:
  bool previous_;
};

std::vector<float> RandomBlock(Rng& rng, size_t count) {
  std::vector<float> out(count);
  for (float& x : out) {
    x = static_cast<float>(rng.NextGaussian());
  }
  return out;
}

TEST(DistanceKernels, DispatchReportsConsistentState) {
  {
    ForceScalarGuard guard(true);
    EXPECT_TRUE(ForceScalarActive());
    EXPECT_STREQ(Active().name, "scalar");
  }
  ForceScalarGuard guard(false);
  // Priority scalar < avx2 < avx512: the best compiled-in, host-
  // supported tier at or below the RAGO_KERNEL_VARIANT cap wins (CI's
  // avx2 job sets the cap; unset means no cap).
  const char* cap_env = std::getenv("RAGO_KERNEL_VARIANT");
  const std::string cap = cap_env == nullptr ? "" : cap_env;
  const bool allow_avx512 = cap.empty() || cap == "avx512";
  const bool allow_avx2 = allow_avx512 || cap == "avx2";
  if (allow_avx512 && Avx512KernelsCompiled() && CpuSupportsAvx512()) {
    EXPECT_STREQ(Active().name, "avx512");
  } else if (allow_avx2 && Avx2KernelsCompiled() && CpuSupportsAvx2()) {
    EXPECT_STREQ(Active().name, "avx2");
  } else {
    EXPECT_STREQ(Active().name, "scalar");
  }
  // VariantByName mirrors the probes and always knows scalar.
  ASSERT_NE(VariantByName("scalar"), nullptr);
  EXPECT_STREQ(VariantByName("scalar")->name, "scalar");
  EXPECT_EQ(VariantByName("avx2") != nullptr,
            Avx2KernelsCompiled() && CpuSupportsAvx2());
  EXPECT_EQ(VariantByName("avx512") != nullptr,
            Avx512KernelsCompiled() && CpuSupportsAvx512());
  EXPECT_EQ(VariantByName("neon"), nullptr);
}

/// The compiled-in, host-supported kernel tables (scalar always).
std::vector<const KernelTable*> CompiledVariants() {
  std::vector<const KernelTable*> tables;
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    if (const KernelTable* table = VariantByName(name)) {
      tables.push_back(table);
    }
  }
  return tables;
}

TEST(DistanceKernels, ScalarBatchBitIdenticalToLegacyLoops) {
  Rng rng(11);
  for (size_t dim : kDims) {
    const size_t rows = 13;
    const std::vector<float> query = RandomBlock(rng, dim);
    const std::vector<float> data = RandomBlock(rng, rows * dim);
    std::vector<float> l2(rows);
    std::vector<float> dot(rows);
    ScalarKernels().l2sq_batch(query.data(), data.data(), rows, dim,
                               l2.data());
    ScalarKernels().dot_batch(query.data(), data.data(), rows, dim,
                              dot.data());
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(l2[i], L2Sq(query.data(), data.data() + i * dim, dim))
          << "dim " << dim << " row " << i;
      EXPECT_EQ(dot[i], Dot(query.data(), data.data() + i * dim, dim))
          << "dim " << dim << " row " << i;
    }
  }
}

TEST(DistanceKernels, DispatchedBatchAgreesWithScalarAcrossRemainderDims) {
  Rng rng(12);
  for (size_t dim : kDims) {
    const size_t rows = 13;  // Exercises the 4-row groups + remainder.
    const std::vector<float> query = RandomBlock(rng, dim);
    const std::vector<float> data = RandomBlock(rng, rows * dim);
    std::vector<float> scalar_out(rows);
    std::vector<float> active_out(rows);
    ScalarKernels().l2sq_batch(query.data(), data.data(), rows, dim,
                               scalar_out.data());
    {
      ForceScalarGuard guard(false);
      Active().l2sq_batch(query.data(), data.data(), rows, dim,
                          active_out.data());
    }
    for (size_t i = 0; i < rows; ++i) {
      if (dim < 8) {
        // The SIMD vector body is empty below one lane width, so tiny
        // dims are bit-identical across variants.
        EXPECT_EQ(scalar_out[i], active_out[i]) << "dim " << dim;
      } else {
        // SIMD reassociates the accumulation: near-equality only.
        const float scale = std::max(std::fabs(scalar_out[i]), 1.0f);
        EXPECT_NEAR(scalar_out[i], active_out[i], 1e-5f * scale)
            << "dim " << dim << " row " << i;
      }
    }
  }
}

TEST(DistanceKernels, TileBitIdenticalToBatchInEveryVariant) {
  Rng rng(13);
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    for (size_t dim : kDims) {
      const size_t rows = 9;     // 4-row groups + remainder.
      const size_t queries = 6;  // One 4-query group + remainder.
      const std::vector<float> query_block = RandomBlock(rng, queries * dim);
      const std::vector<float> data = RandomBlock(rng, rows * dim);
      std::vector<float> tiled(queries * rows);
      std::vector<float> batched(rows);
      Active().l2sq_tile(query_block.data(), queries, data.data(), rows, dim,
                         tiled.data());
      for (size_t q = 0; q < queries; ++q) {
        Active().l2sq_batch(query_block.data() + q * dim, data.data(), rows,
                            dim, batched.data());
        for (size_t i = 0; i < rows; ++i) {
          EXPECT_EQ(tiled[q * rows + i], batched[i])
              << (force_scalar ? "scalar" : "dispatched") << " dim " << dim;
        }
      }
      Active().dot_tile(query_block.data(), queries, data.data(), rows, dim,
                        tiled.data());
      for (size_t q = 0; q < queries; ++q) {
        Active().dot_batch(query_block.data() + q * dim, data.data(), rows,
                           dim, batched.data());
        for (size_t i = 0; i < rows; ++i) {
          EXPECT_EQ(tiled[q * rows + i], batched[i])
              << (force_scalar ? "scalar" : "dispatched") << " dim " << dim;
        }
      }
    }
  }
}

TEST(DistanceKernels, UnalignedRowBasesMatchAligned) {
  // Row bases offset by one float are 4-byte aligned only — the
  // kernels must produce the same values as from the aligned copy.
  Rng rng(14);
  for (size_t dim : kDims) {
    const size_t rows = 7;
    const std::vector<float> query = RandomBlock(rng, dim);
    const std::vector<float> data = RandomBlock(rng, rows * dim);
    std::vector<float> shifted(rows * dim + 1);
    std::memcpy(shifted.data() + 1, data.data(),
                rows * dim * sizeof(float));
    std::vector<float> aligned_out(rows);
    std::vector<float> unaligned_out(rows);
    ForceScalarGuard guard(false);
    Active().l2sq_batch(query.data(), data.data(), rows, dim,
                        aligned_out.data());
    Active().l2sq_batch(query.data(), shifted.data() + 1, rows, dim,
                        unaligned_out.data());
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(aligned_out[i], unaligned_out[i]) << "dim " << dim;
    }
  }
}

TEST(DistanceKernels, PackedCodesRoundTripsAndPadsBlocks) {
  Rng rng(45);
  for (size_t m : {1u, 3u, 8u, 16u}) {
    for (size_t codes : {1u, 31u, 32u, 33u, 64u, 97u}) {
      std::vector<uint8_t> strided(codes * m);
      for (uint8_t& c : strided) {
        c = static_cast<uint8_t>(rng.NextBounded(kAdcCentroids));
      }
      const PackedCodes packed(strided.data(), codes, m);
      EXPECT_EQ(packed.num_codes(), codes);
      EXPECT_EQ(packed.m(), m);
      const size_t blocks = (codes + kPackedBlock - 1) / kPackedBlock;
      EXPECT_EQ(packed.PackedBytes(), blocks * kPackedBlock * m);
      EXPECT_EQ(packed.UnpackAll(), strided) << "m " << m << " codes "
                                             << codes;
      std::vector<uint8_t> one(m);
      packed.Unpack(codes - 1, one.data());
      EXPECT_TRUE(std::memcmp(one.data(), strided.data() + (codes - 1) * m,
                              m) == 0);
      // Incremental Append builds the identical packed image.
      PackedCodes appended(m);
      for (size_t i = 0; i < codes; ++i) {
        appended.Append(strided.data() + i * m);
      }
      EXPECT_TRUE(std::memcmp(appended.data(), packed.data(),
                              packed.PackedBytes()) == 0);
    }
  }
}

TEST(DistanceKernels, AdcPackedBitIdenticalToStridedInEveryVariant) {
  // The ADC contract: every compiled variant's packed scan equals the
  // subspace-ordered scalar loop over the strided codes bit for bit,
  // including tail blocks (codes % 32 != 0) and odd subspace counts.
  Rng rng(46);
  for (size_t m : {1u, 3u, 8u, 16u}) {
    for (size_t codes : {1u, 31u, 32u, 33u, 64u, 97u}) {
      const std::vector<float> table = RandomBlock(rng, m * kAdcCentroids);
      std::vector<uint8_t> strided(codes * m);
      for (uint8_t& c : strided) {
        c = static_cast<uint8_t>(rng.NextBounded(kAdcCentroids));
      }
      const PackedCodes packed(strided.data(), codes, m);
      const std::vector<float> reference = rago::testing::StridedAdcOracle(
          table.data(), strided.data(), codes, m);
      for (const KernelTable* variant : CompiledVariants()) {
        std::vector<float> packed_out(codes);
        variant->adc_packed(table.data(), packed.data(), codes, m,
                            packed_out.data());
        for (size_t i = 0; i < codes; ++i) {
          EXPECT_EQ(reference[i], packed_out[i])
              << variant->name << " m " << m << " codes " << codes;
        }
      }
    }
  }
}

TEST(DistanceKernels, AdcKernelsWellDefinedOnDegenerateShapes) {
  // num_codes == 0 writes nothing; m == 0 writes 0.0f per code — in
  // every compiled variant.
  const std::vector<float> table(kAdcCentroids, 1.0f);
  const std::vector<uint8_t> codes(4 * kPackedBlock, 7);
  for (const KernelTable* variant : CompiledVariants()) {
    std::vector<float> out(kPackedBlock + 1, -1.0f);
    variant->adc_packed(table.data(), codes.data(), 0, 4, out.data());
    for (float x : out) {
      EXPECT_EQ(x, -1.0f) << variant->name;  // Untouched.
    }
    variant->adc_packed(table.data(), codes.data(), out.size(), 0,
                        out.data());
    for (float x : out) {
      EXPECT_EQ(x, 0.0f) << variant->name;
    }
  }
}

TEST(DistanceKernels, ScanCodesPackedIntoTopKMatchesStridedScan) {
  // Same distances, same scan order, same tie-breaks: the packed TopK
  // scan must reproduce the oracle's distances offered in code order
  // exactly — ids and distance bits — under every variant, including
  // multi-tile lists.
  Rng rng(47);
  const size_t m = 8;
  const size_t codes = 1111;  // > 2 scan tiles, partial tail block.
  const std::vector<float> table = RandomBlock(rng, m * kAdcCentroids);
  std::vector<uint8_t> strided(codes * m);
  for (uint8_t& c : strided) {
    c = static_cast<uint8_t>(rng.NextBounded(kAdcCentroids));
  }
  const PackedCodes packed(strided.data(), codes, m);
  const std::vector<float> reference =
      rago::testing::StridedAdcOracle(table.data(), strided.data(), codes, m);
  TopK strided_top(17);
  for (size_t i = 0; i < codes; ++i) {
    strided_top.Push(reference[i], 5 + static_cast<int64_t>(i));
  }
  const std::vector<Neighbor> a = strided_top.SortedTake();
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    TopK packed_top(17);
    ScanCodesPackedIntoTopK(table.data(), packed.data(), codes, m,
                            /*ids=*/nullptr, /*base_id=*/5, packed_top);
    const std::vector<Neighbor> b = packed_top.SortedTake();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id)
          << (force_scalar ? "scalar" : "dispatched") << " rank " << i;
      EXPECT_EQ(a[i].dist, b[i].dist);
    }
  }
}

TEST(DistanceKernels, ScanRowsIntoTopKKeepsIdTieBreak) {
  // Duplicate rows produce equal distances in any one variant; the
  // deterministic TopK tie-break must keep the lower id first.
  const size_t dim = 9;
  Rng rng(16);
  const std::vector<float> target = RandomBlock(rng, dim);
  std::vector<float> rows(6 * dim);
  for (size_t i = 0; i < 6; ++i) {
    std::vector<float> noise = RandomBlock(rng, dim);
    for (size_t d = 0; d < dim; ++d) {
      rows[i * dim + d] = target[d] + 10.0f + noise[d];  // Far away.
    }
  }
  // Rows 1 and 4 are identical copies of the target (distance 0).
  std::memcpy(rows.data() + 1 * dim, target.data(), dim * sizeof(float));
  std::memcpy(rows.data() + 4 * dim, target.data(), dim * sizeof(float));
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    TopK topk(2);
    std::vector<float> scratch;
    ScanRowsIntoTopK(Metric::kL2, target.data(), rows.data(), 6, dim,
                     /*ids=*/nullptr, /*base_id=*/100, topk, scratch);
    const std::vector<Neighbor> out = topk.SortedTake();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].id, 101);  // Equal distances: lower id first.
    EXPECT_EQ(out[1].id, 104);
  }
}

TEST(DistanceKernels, ArgMinFirstIndexWinsTies) {
  const size_t dim = 8;
  Rng rng(17);
  const std::vector<float> query = RandomBlock(rng, dim);
  std::vector<float> rows(5 * dim, 100.0f);
  // Rows 2 and 3 both equal the query exactly.
  std::memcpy(rows.data() + 2 * dim, query.data(), dim * sizeof(float));
  std::memcpy(rows.data() + 3 * dim, query.data(), dim * sizeof(float));
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    float min_dist = -1.0f;
    EXPECT_EQ(ArgMinL2(query.data(), rows.data(), 5, dim, &min_dist), 2u);
    EXPECT_EQ(min_dist, 0.0f);
  }
}

// ---------------------------------------------------------------------------
// End-to-end variant parity on the indexes (ISSUE acceptance criteria).
// ---------------------------------------------------------------------------

TEST(DistanceKernels, FlatExactIdsIdenticalScalarVsDispatched) {
  // dim 25 exercises remainder lanes inside the index scan.
  rago::testing::AnnTestBedOptions bed_options;
  bed_options.rows = 2000;
  bed_options.dim = 25;
  bed_options.num_queries = 16;
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(bed_options);
  const FlatIndex flat(rago::testing::CopyMatrix(bed.data), Metric::kL2);
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    std::vector<Neighbor> scalar_out;
    std::vector<Neighbor> dispatched_out;
    {
      ForceScalarGuard guard(true);
      scalar_out = flat.Search(bed.queries.Row(q), 10);
    }
    {
      ForceScalarGuard guard(false);
      dispatched_out = flat.Search(bed.queries.Row(q), 10);
    }
    ASSERT_EQ(scalar_out.size(), dispatched_out.size());
    for (size_t i = 0; i < scalar_out.size(); ++i) {
      EXPECT_EQ(scalar_out[i].id, dispatched_out[i].id)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(DistanceKernels, IvfFullProbeIdsIdenticalScalarVsDispatched) {
  // Full-probe IVF scans every leaf exactly; the returned ids must not
  // depend on the kernel variant.
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(1000, 24, 8);
  Rng rng(21);
  IvfOptions options;
  options.nlist = 16;
  const IvfIndex ivf(rago::testing::CopyMatrix(bed.data), Metric::kL2,
                     options, rng);
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    std::vector<Neighbor> scalar_out;
    std::vector<Neighbor> dispatched_out;
    {
      ForceScalarGuard guard(true);
      scalar_out = ivf.Search(bed.queries.Row(q), 5, /*nprobe=*/16);
    }
    {
      ForceScalarGuard guard(false);
      dispatched_out = ivf.Search(bed.queries.Row(q), 5, /*nprobe=*/16);
    }
    ASSERT_EQ(scalar_out.size(), dispatched_out.size());
    for (size_t i = 0; i < scalar_out.size(); ++i) {
      EXPECT_EQ(scalar_out[i].id, dispatched_out[i].id)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(DistanceKernels, IvfBatchedCoarseRankingMatchesPerQuerySearch) {
  // SearchBatch ranks coarse centroids for the whole block through the
  // micro-tile kernel; within one variant tile and batch kernels are
  // bit-identical, so batched results must equal per-query Search
  // exactly — ids and distance bits — under every variant.
  rago::testing::AnnTestBedOptions bed_options;
  bed_options.rows = 1500;
  bed_options.dim = 25;  // Remainder lanes in the centroid ranking.
  bed_options.num_queries = 21;  // Partial query tile at the end.
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(bed_options);
  Rng rng(33);
  IvfOptions options;
  options.nlist = 24;
  const IvfIndex ivf(rago::testing::CopyMatrix(bed.data), Metric::kL2,
                     options, rng);
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    const auto batched = ivf.SearchBatch(bed.queries, 7, /*nprobe=*/4);
    ASSERT_EQ(batched.size(), bed.queries.rows());
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      const auto single = ivf.Search(bed.queries.Row(q), 7, /*nprobe=*/4);
      ASSERT_EQ(batched[q].size(), single.size());
      for (size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(batched[q][i].id, single[i].id)
            << "variant " << (force_scalar ? "scalar" : "dispatched")
            << " query " << q << " rank " << i;
        EXPECT_EQ(batched[q][i].dist, single[i].dist);
      }
    }
  }
}

TEST(DistanceKernels, IvfPqBatchedCoarseRankingMatchesPerQuerySearch) {
  // Same contract for the ADC path, with exact re-ranking in the mix.
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(1200, 24, 19);
  Rng rng(35);
  IvfPqOptions options;
  options.nlist = 24;
  options.pq_subspaces = 8;
  const IvfPqIndex index(rago::testing::CopyMatrix(bed.data), options,
                         rng);
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    for (int rerank : {0, 40}) {
      const auto batched =
          index.SearchBatch(bed.queries, 6, /*nprobe=*/5, rerank);
      ASSERT_EQ(batched.size(), bed.queries.rows());
      for (size_t q = 0; q < bed.queries.rows(); ++q) {
        const auto single =
            index.Search(bed.queries.Row(q), 6, /*nprobe=*/5, rerank);
        ASSERT_EQ(batched[q].size(), single.size());
        for (size_t i = 0; i < single.size(); ++i) {
          EXPECT_EQ(batched[q][i].id, single[i].id)
              << "variant " << (force_scalar ? "scalar" : "dispatched")
              << " rerank " << rerank << " query " << q << " rank " << i;
          EXPECT_EQ(batched[q][i].dist, single[i].dist);
        }
      }
    }
  }
}

TEST(DistanceKernels, IvfPqRecallParityScalarVsDispatched) {
  // The ADC path is approximate: pin recall parity, not ids. Each
  // variant builds its own index (training also runs on the kernels).
  const rago::testing::AnnTestBed bed = rago::testing::MakeAnnTestBed();
  auto recall_under = [&](bool force_scalar) {
    ForceScalarGuard guard(force_scalar);
    Rng rng(6);
    IvfPqOptions options;
    options.nlist = 32;
    options.pq_subspaces = 8;
    const IvfPqIndex index(rago::testing::CopyMatrix(bed.data), options,
                           rng);
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      results.push_back(
          index.Search(bed.queries.Row(q), 10, /*nprobe=*/8, /*rerank=*/50));
    }
    return MeanRecallAtK(results, bed.truth, 10);
  };
  const double scalar_recall = recall_under(true);
  const double dispatched_recall = recall_under(false);
  EXPECT_GT(scalar_recall, 0.8);
  EXPECT_GT(dispatched_recall, 0.8);
  EXPECT_NEAR(scalar_recall, dispatched_recall, 0.05);
}

TEST(DistanceKernels, ScannTreeRecallParityScalarVsDispatched) {
  // The tree's leaf scan runs on the packed layout; recall must not
  // depend on the kernel variant.
  const rago::testing::AnnTestBed bed = rago::testing::MakeAnnTestBed();
  auto recall_under = [&](bool force_scalar) {
    ForceScalarGuard guard(force_scalar);
    Rng rng(9);
    ScannTreeOptions options;
    options.levels = 2;
    options.fanout = 8;
    const ScannTree tree(rago::testing::CopyMatrix(bed.data), options, rng);
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      results.push_back(
          tree.Search(bed.queries.Row(q), 10, /*beam=*/8, /*rerank=*/50));
    }
    return MeanRecallAtK(results, bed.truth, 10);
  };
  const double scalar_recall = recall_under(true);
  const double dispatched_recall = recall_under(false);
  EXPECT_GT(scalar_recall, 0.8);
  EXPECT_GT(dispatched_recall, 0.8);
  EXPECT_NEAR(scalar_recall, dispatched_recall, 0.05);
}

TEST(DistanceKernels, HnswRecallParityScalarVsDispatched) {
  const rago::testing::AnnTestBed bed = rago::testing::MakeAnnTestBed();
  auto recall_under = [&](bool force_scalar) {
    ForceScalarGuard guard(force_scalar);
    Rng rng(7);
    const HnswIndex index(rago::testing::CopyMatrix(bed.data), Metric::kL2,
                          HnswOptions{}, rng);
    const auto results = index.SearchBatch(bed.queries, 10, /*ef_search=*/64);
    return MeanRecallAtK(results, bed.truth, 10);
  };
  const double scalar_recall = recall_under(true);
  const double dispatched_recall = recall_under(false);
  EXPECT_GT(scalar_recall, 0.85);
  EXPECT_GT(dispatched_recall, 0.85);
  EXPECT_NEAR(scalar_recall, dispatched_recall, 0.05);
}

// ---------------------------------------------------------------------------
// Split-plane scans: ScanSplitRowsIntoTopK must equal an fp32 scan of the
// reassembled rows bit for bit (ids, distance bits, tie-breaks) through
// every compiled kernel table.
// ---------------------------------------------------------------------------

float FromBits(uint32_t bits) {
  float value = 0.0f;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint32_t ToBits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Rows held both as fp32 and as split planes with residual bounds.
struct SplitFixture {
  SplitFixture(std::vector<float> values, size_t row_dim, Metric metric)
      : dim(row_dim), rows(std::move(values)), hi(rows.size()),
        lo(rows.size()), residuals(rows.size() / row_dim) {
    for (size_t i = 0; i < residuals.size(); ++i) {
      SplitRow(rows.data() + i * dim, dim, hi.data() + i * dim,
               lo.data() + i * dim);
      residuals[i] = SplitResidualBound(metric, rows.data() + i * dim, dim);
    }
  }
  size_t num_rows() const { return residuals.size(); }
  /// Rows [first, first + count) as a split view.
  SplitRows View(size_t first) const {
    return {hi.data() + first * dim, lo.data() + first * dim,
            residuals.data() + first};
  }

  size_t dim;
  std::vector<float> rows;
  std::vector<uint16_t> hi;
  std::vector<uint16_t> lo;
  std::vector<float> residuals;
};

/// ScanRowsIntoTopK's loop through an explicit table: distances of every
/// row in order (inner product negated like DistanceBatch), pushed in
/// row order.
std::vector<Neighbor> ReferenceScan(const KernelTable& table, Metric metric,
                                    const float* query,
                                    const SplitFixture& fx,
                                    const int64_t* ids, size_t k) {
  std::vector<float> dists(fx.num_rows());
  if (metric == Metric::kL2) {
    table.l2sq_batch(query, fx.rows.data(), fx.num_rows(), fx.dim,
                     dists.data());
  } else {
    table.dot_batch(query, fx.rows.data(), fx.num_rows(), fx.dim,
                    dists.data());
    for (float& d : dists) {
      d = -d;
    }
  }
  TopK topk(k);
  for (size_t i = 0; i < fx.num_rows(); ++i) {
    topk.Push(dists[i], ids != nullptr ? ids[i] : static_cast<int64_t>(i));
  }
  return topk.SortedTake();
}

/// The split scan over `fx`, cut into lists at `cuts` (one TopK across
/// them, as an IVF probe sequence carries it).
std::vector<Neighbor> SplitScan(const KernelTable& table, Metric metric,
                                const float* query, const SplitFixture& fx,
                                const int64_t* ids, size_t k,
                                const std::vector<size_t>& cuts,
                                size_t* verified = nullptr) {
  TopK topk(k);
  size_t first = 0;
  size_t total = 0;
  std::vector<size_t> ends = cuts;
  ends.push_back(fx.num_rows());
  for (size_t end : ends) {
    total += ScanSplitRowsIntoTopK(table, metric, query, fx.View(first),
                                   end - first, fx.dim,
                                   ids != nullptr ? ids + first : nullptr,
                                   static_cast<int64_t>(first), topk);
    first = end;
  }
  if (verified != nullptr) {
    *verified = total;
  }
  return topk.SortedTake();
}

void ExpectBitIdentical(const std::vector<Neighbor>& want,
                        const std::vector<Neighbor>& got,
                        const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << what << " rank " << i;
    EXPECT_EQ(ToBits(want[i].dist), ToBits(got[i].dist))
        << what << " rank " << i;
  }
}

const char* MetricName(Metric metric) {
  return metric == Metric::kL2 ? "l2" : "ip";
}

TEST(SplitPlanes, SplitThenJoinRoundTripsEveryBitPattern) {
  // (hi << 16) | lo must restore every float bit pattern exactly:
  // NaN payloads, signed zeros, subnormals and infinities included.
  Rng rng(41);
  std::vector<uint32_t> patterns = {
      0x00000000u, 0x80000000u, 0x00000001u, 0x0000FFFFu, 0x00010000u,
      0x807FFFFFu, 0x7F7FFFFFu, 0xFF7FFFFFu, 0x7F800000u, 0xFF800000u,
      0x7FC00000u, 0x7F800001u, 0xFFFFFFFFu, 0x3F800000u, 0x3F80FFFFu};
  for (int i = 0; i < 4000; ++i) {
    patterns.push_back(static_cast<uint32_t>(rng.NextU64()));
  }
  std::vector<float> row(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    row[i] = FromBits(patterns[i]);
  }
  std::vector<uint16_t> hi(row.size());
  std::vector<uint16_t> lo(row.size());
  std::vector<float> joined(row.size());
  SplitRow(row.data(), row.size(), hi.data(), lo.data());
  JoinRow(hi.data(), lo.data(), row.size(), joined.data());
  EXPECT_EQ(std::memcmp(row.data(), joined.data(), row.size() * sizeof(float)),
            0);
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(ToBits(HighHalfToFloat(hi[i])), patterns[i] & 0xFFFF0000u);
  }
}

TEST(SplitPlanes, KernelErrorStaysWithinTheBoundsMargin) {
  // The split scan's margin assumes every variant's fp32 kernels and
  // high-plane slots err by at most gamma = 2 (dim + 8) 2^-24 times the
  // sum of the terms' magnitudes. Check it against double-precision
  // sums, on the original rows (fp32 kernels) and on the widened high
  // halves (high-plane slots).
  Rng rng(45);
  const size_t rows = 13;  // Three 4-row groups and a single-row tail.
  for (size_t dim : {size_t{1}, size_t{7}, size_t{9}, size_t{64},
                     size_t{100}, size_t{1000}}) {
    const double gamma = 2.0 * (static_cast<double>(dim) + 8.0) * 0x1p-24;
    const std::vector<float> query = RandomBlock(rng, dim);
    const std::vector<float> data = RandomBlock(rng, rows * dim);
    std::vector<uint16_t> hi(rows * dim);
    std::vector<uint16_t> lo(rows * dim);
    std::vector<float> widened(rows * dim);
    for (size_t i = 0; i < rows; ++i) {
      SplitRow(data.data() + i * dim, dim, hi.data() + i * dim,
               lo.data() + i * dim);
    }
    for (size_t j = 0; j < rows * dim; ++j) {
      widened[j] = HighHalfToFloat(hi[j]);
    }
    auto check = [&](const std::vector<float>& got,
                     const std::vector<float>& values, bool l2,
                     const std::string& what) {
      for (size_t i = 0; i < rows; ++i) {
        double exact = 0.0;
        double magnitude = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          const double q = query[d];
          const double x = values[i * dim + d];
          const double term = l2 ? (q - x) * (q - x) : q * x;
          exact += term;
          magnitude += std::fabs(term);
        }
        EXPECT_LE(std::fabs(got[i] - exact), gamma * magnitude)
            << what << " dim " << dim << " row " << i;
      }
    };
    for (const KernelTable* table : CompiledVariants()) {
      const std::string name = table->name;
      std::vector<float> out(rows);
      table->l2sq_batch(query.data(), data.data(), rows, dim, out.data());
      check(out, data, true, name + " l2sq_batch");
      table->dot_batch(query.data(), data.data(), rows, dim, out.data());
      check(out, data, false, name + " dot_batch");
      table->l2sq_hi_batch(query.data(), hi.data(), rows, dim, out.data());
      check(out, widened, true, name + " l2sq_hi_batch");
      table->dot_hi_batch(query.data(), hi.data(), rows, dim, out.data());
      check(out, widened, false, name + " dot_hi_batch");
    }
  }
}

TEST(SplitPlanes, ScanBitIdenticalToFp32ScanInEveryVariant) {
  // Shapes: empty-vector-body dims (1, 7), a remainder lane past two
  // vectors (33), the tier's 64; k of 1, 10, and beyond the row count;
  // duplicate rows; two lists sharing one TopK.
  Rng rng(42);
  const size_t num_rows = 150;
  for (Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    for (size_t dim : {size_t{1}, size_t{7}, size_t{33}, size_t{64}}) {
      std::vector<float> values = RandomBlock(rng, num_rows * dim);
      for (size_t dup : {size_t{40}, size_t{90}, size_t{141}}) {
        std::copy_n(values.begin() + 3 * dim, dim,
                    values.begin() + dup * dim);
      }
      const SplitFixture fx(std::move(values), dim, metric);
      for (int q = 0; q < 6; ++q) {
        // Queries near a stored row make the top-k tight (most rows
        // prunable); the last is an unrelated point.
        std::vector<float> query = RandomBlock(rng, dim);
        if (q < 5) {
          const float* near = fx.rows.data() + (q * 29 % num_rows) * dim;
          for (size_t d = 0; d < dim; ++d) {
            query[d] = near[d] + 0.05f * query[d];
          }
        }
        for (size_t k : {size_t{1}, size_t{10}, size_t{300}}) {
          for (const KernelTable* table : CompiledVariants()) {
            const std::string what = std::string(table->name) + " " +
                                     MetricName(metric) + " dim " +
                                     std::to_string(dim) + " k " +
                                     std::to_string(k);
            ExpectBitIdentical(
                ReferenceScan(*table, metric, query.data(), fx, nullptr, k),
                SplitScan(*table, metric, query.data(), fx, nullptr, k,
                          {70}),
                what);
          }
          // And literally ScanRowsIntoTopK under the dispatched table.
          TopK want(k);
          ScanRowsIntoTopK(metric, query.data(), fx.rows.data(), num_rows,
                           dim, nullptr, 0, want);
          ExpectBitIdentical(want.SortedTake(),
                             SplitScan(Active(), metric, query.data(), fx,
                                       nullptr, k, {70}),
                             std::string("active ") + MetricName(metric));
        }
      }
    }
  }
}

TEST(SplitPlanes, NearTiesAtTheBoundMarginSurvive) {
  // Rows built to sit on the threshold: exact duplicates of the k-th
  // best row placed later with smaller ids (so the id tie-break must
  // admit them), and copies differing only in a low mantissa bit of one
  // element (same high plane, distances an ulp apart). The base row is
  // bf16-exact, so its residual is 0 and the bound is as tight as it
  // gets: only the fp32 margin keeps the duplicates. Any row the bound
  // dropped wrongly would change the result.
  const size_t dim = 33;
  Rng rng(43);
  for (Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    std::vector<float> query = RandomBlock(rng, dim);
    std::vector<float> values;
    // Far rows first, so the heap fills before the ties arrive.
    for (int i = 0; i < 60; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        values.push_back(query[d] * -1.5f +
                         3.0f * static_cast<float>(rng.NextGaussian()));
      }
    }
    std::vector<float> base(dim);
    for (size_t d = 0; d < dim; ++d) {
      const float value =
          query[d] + 0.01f * static_cast<float>(rng.NextGaussian());
      base[d] = FromBits(ToBits(value) & 0xFFFF0000u);
    }
    for (int i = 0; i < 80; ++i) {
      std::vector<float> row = base;
      if (i % 2 == 1) {
        const size_t d = static_cast<size_t>(i) % dim;
        row[d] = FromBits(ToBits(row[d]) ^ (1u + static_cast<uint32_t>(i % 3)));
      }
      values.insert(values.end(), row.begin(), row.end());
    }
    const SplitFixture fx(std::move(values), dim, metric);
    // Descending ids: later rows win equal-distance tie-breaks.
    std::vector<int64_t> ids(fx.num_rows());
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<int64_t>(10 * (ids.size() - i));
    }
    for (size_t k : {size_t{1}, size_t{4}, size_t{25}}) {
      for (const KernelTable* table : CompiledVariants()) {
        ExpectBitIdentical(
            ReferenceScan(*table, metric, query.data(), fx, ids.data(), k),
            SplitScan(*table, metric, query.data(), fx, ids.data(), k,
                      {37, 101}),
            std::string(table->name) + " " + MetricName(metric) + " k " +
                std::to_string(k));
      }
    }
  }
}

TEST(SplitPlanes, NonFiniteAndSubnormalRowsMatchFp32Scan) {
  const size_t dim = 9;
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {
      inf,
      -inf,
      std::numeric_limits<float>::quiet_NaN(),
      FromBits(0x7F800001u),  // NaN whose payload is all in the low half.
      -0.0f,
      FromBits(0x00000001u),  // Smallest subnormal.
      FromBits(0x0000FFFFu),  // Subnormal with an all-zero high half.
      FromBits(0x807FFFFFu),  // Largest negative subnormal.
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max()};
  Rng rng(44);
  std::vector<float> values = RandomBlock(rng, 120 * dim);
  for (size_t i = 0; i < specials.size(); ++i) {
    // Specials land mid-tile and in the tail, one element per row.
    values[(7 + 11 * i) * dim + i % dim] = specials[i];
  }
  // A row of nothing but subnormals, and one of negative zeros.
  for (size_t d = 0; d < dim; ++d) {
    values[50 * dim + d] = FromBits(0x00000100u + static_cast<uint32_t>(d));
    values[51 * dim + d] = -0.0f;
  }
  for (Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    const SplitFixture fx(values, dim, metric);
    // A non-finite row's residual bound is +inf: it always survives.
    EXPECT_EQ(fx.residuals[7], inf);
    EXPECT_EQ(fx.residuals[7 + 11 * 2], inf);
    EXPECT_TRUE(std::isfinite(fx.residuals[50]));
    std::vector<std::vector<float>> queries;
    queries.push_back(RandomBlock(rng, dim));
    queries.push_back(std::vector<float>(fx.rows.begin() + 50 * dim,
                                         fx.rows.begin() + 51 * dim));
    queries.push_back(RandomBlock(rng, dim));
    queries.back()[2] = inf;
    queries.push_back(RandomBlock(rng, dim));
    queries.back()[4] = std::numeric_limits<float>::quiet_NaN();
    for (const std::vector<float>& query : queries) {
      for (size_t k : {size_t{3}, size_t{20}}) {
        for (const KernelTable* table : CompiledVariants()) {
          ExpectBitIdentical(
              ReferenceScan(*table, metric, query.data(), fx, nullptr, k),
              SplitScan(*table, metric, query.data(), fx, nullptr, k, {64}),
              std::string(table->name) + " " + MetricName(metric));
        }
      }
    }
  }
}

TEST(SplitPlanes, BoundPrunesMostRowsOfClusteredData) {
  // The margin must stay tight enough to matter: on clustered rows and
  // near-duplicate queries most rows are decided by the high plane.
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(4000, 16, 16);
  std::vector<float> values(bed.data.data(),
                            bed.data.data() + bed.data.rows() * 16);
  for (Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    const SplitFixture fx(values, 16, metric);
    size_t verified = 0;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      size_t count = 0;
      SplitScan(Active(), metric, bed.queries.Row(q), fx, nullptr, 10,
                {1000, 2000, 3000}, &count);
      verified += count;
    }
    const double frac = static_cast<double>(verified) /
                        static_cast<double>(4000 * bed.queries.rows());
    EXPECT_LT(frac, 0.25) << MetricName(metric);
  }
}

}  // namespace
}  // namespace rago::ann::kernels
