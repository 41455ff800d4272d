/**
 * @file test_ann_pq.cc
 * Tests for the product quantizer: code sizes, reconstruction quality,
 * and ADC distance consistency (with decoded vectors and with every
 * kernel variant's packed scan).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/packed_codes.h"
#include "retrieval/ann/pq.h"

namespace rago::ann {
namespace {

Matrix TrainData(size_t n = 1024, size_t dim = 16, uint64_t seed = 3) {
  Rng rng(seed);
  return GenClustered(n, dim, 8, 0.4f, rng);
}

TEST(Pq, CodeBytesEqualSubspaceCount) {
  const Matrix data = TrainData();
  Rng rng(1);
  const ProductQuantizer pq(data, 4, rng);
  EXPECT_EQ(pq.m(), 4);
  EXPECT_EQ(pq.CodeBytes(), 4u);
  EXPECT_EQ(pq.sub_dim(), 4u);
}

TEST(Pq, RequiresDivisibleDimension) {
  const Matrix data = TrainData(512, 10);
  Rng rng(1);
  EXPECT_THROW(ProductQuantizer(data, 3, rng), rago::ConfigError);
  EXPECT_NO_THROW(ProductQuantizer(data, 5, rng));
}

TEST(Pq, RequiresEnoughTrainingData) {
  const Matrix data = TrainData(100, 8);
  Rng rng(1);
  EXPECT_THROW(ProductQuantizer(data, 2, rng), rago::ConfigError);
}

TEST(Pq, EncodeDecodeReconstructsApproximately) {
  const Matrix data = TrainData();
  Rng rng(2);
  const ProductQuantizer pq(data, 8, rng);
  std::vector<uint8_t> code(pq.CodeBytes());
  std::vector<float> decoded(data.dim());
  double total_err = 0.0;
  double total_norm = 0.0;
  for (size_t i = 0; i < 64; ++i) {
    pq.Encode(data.Row(i), code.data());
    pq.Decode(code.data(), decoded.data());
    total_err += L2Sq(data.Row(i), decoded.data(), data.dim());
    total_norm += Dot(data.Row(i), data.Row(i), data.dim());
  }
  // Relative reconstruction error small on clustered data.
  EXPECT_LT(total_err / total_norm, 0.05);
}

TEST(Pq, MoreSubspacesReduceReconstructionError) {
  const Matrix data = TrainData(2048, 16, 5);
  Rng rng_a(7);
  Rng rng_b(7);
  const ProductQuantizer coarse(data, 2, rng_a);
  const ProductQuantizer fine(data, 8, rng_b);
  auto recon_error = [&](const ProductQuantizer& pq) {
    std::vector<uint8_t> code(pq.CodeBytes());
    std::vector<float> decoded(data.dim());
    double err = 0.0;
    for (size_t i = 0; i < 128; ++i) {
      pq.Encode(data.Row(i), code.data());
      pq.Decode(code.data(), decoded.data());
      err += L2Sq(data.Row(i), decoded.data(), data.dim());
    }
    return err;
  };
  EXPECT_LT(recon_error(fine), recon_error(coarse));
}

TEST(Pq, AdcDistanceEqualsDecodedDistance) {
  // ADC(q, code) must equal the exact L2 between q and Decode(code):
  // both sum the same per-subspace squared distances.
  const Matrix data = TrainData();
  Rng rng(4);
  const ProductQuantizer pq(data, 4, rng);
  Rng qrng(9);
  const Matrix queries = GenQueriesNear(data, 8, 0.2f, qrng);
  std::vector<uint8_t> code(pq.CodeBytes());
  std::vector<float> decoded(data.dim());
  std::vector<float> table;
  for (size_t q = 0; q < queries.rows(); ++q) {
    pq.BuildAdcTable(queries.Row(q), table);
    for (size_t i = 0; i < 16; ++i) {
      pq.Encode(data.Row(i), code.data());
      pq.Decode(code.data(), decoded.data());
      const float adc = pq.AdcDistance(table, code.data());
      const float exact = L2Sq(queries.Row(q), decoded.data(), data.dim());
      EXPECT_NEAR(adc, exact, 1e-3f * std::max(1.0f, exact));
    }
  }
}

TEST(Pq, AdcDistanceMatchesPackedScanInEveryVariant) {
  // AdcDistance's subspace-ordered loop is the accumulation every
  // kernel variant's packed scan keeps, so the two agree bit for bit,
  // tail block included.
  const Matrix data = TrainData();
  Rng rng(5);
  const ProductQuantizer pq(data, 8, rng);
  const size_t codes = 97;  // Three full 32-code blocks plus a tail.
  const std::vector<uint8_t> strided = pq.EncodeAll(data);
  const PackedCodes packed(strided.data(), codes, pq.CodeBytes());
  Rng qrng(10);
  const Matrix queries = GenQueriesNear(data, 4, 0.2f, qrng);
  std::vector<float> table;
  for (size_t q = 0; q < queries.rows(); ++q) {
    pq.BuildAdcTable(queries.Row(q), table);
    for (const char* name : {"scalar", "avx2", "avx512"}) {
      const kernels::KernelTable* variant = kernels::VariantByName(name);
      if (variant == nullptr) {
        continue;  // Not compiled in or not supported by this host.
      }
      std::vector<float> scanned(codes);
      variant->adc_packed(table.data(), packed.data(), codes,
                          pq.CodeBytes(), scanned.data());
      for (size_t i = 0; i < codes; ++i) {
        EXPECT_EQ(pq.AdcDistance(table, strided.data() + i * pq.CodeBytes()),
                  scanned[i])
            << name << " query " << q << " code " << i;
      }
    }
  }
}

TEST(Pq, EncodeAllMatchesIndividualEncode) {
  const Matrix data = TrainData(512, 8);
  Rng rng(6);
  const ProductQuantizer pq(data, 4, rng);
  const std::vector<uint8_t> all = pq.EncodeAll(data);
  ASSERT_EQ(all.size(), data.rows() * pq.CodeBytes());
  std::vector<uint8_t> one(pq.CodeBytes());
  for (size_t i = 0; i < 32; ++i) {
    pq.Encode(data.Row(i), one.data());
    for (size_t b = 0; b < pq.CodeBytes(); ++b) {
      EXPECT_EQ(all[i * pq.CodeBytes() + b], one[b]);
    }
  }
}

TEST(Pq, PaperCompressionGeometry) {
  // The paper compresses 768-dim vectors to 96 bytes = 1 byte per 8
  // dims. Verify the geometry is expressible.
  Rng rng(8);
  const Matrix data = GenClustered(512, 768, 4, 0.5f, rng);
  Rng train_rng(9);
  const ProductQuantizer pq(data, 96, train_rng, /*kmeans_iterations=*/2);
  EXPECT_EQ(pq.CodeBytes(), 96u);
  EXPECT_EQ(pq.sub_dim(), 8u);
  // Compression ratio vs fp32: 32x.
  const double raw_bytes = 768 * 4.0;
  EXPECT_DOUBLE_EQ(raw_bytes / pq.CodeBytes(), 32.0);
}

}  // namespace
}  // namespace rago::ann
