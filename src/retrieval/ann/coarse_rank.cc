#include "retrieval/ann/coarse_rank.h"

#include <algorithm>

#include "common/check.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/topk.h"

namespace rago::ann {

std::vector<int32_t>
RankCentroids(const float* query, const Matrix& centroids, int nprobe) {
  RAGO_REQUIRE(nprobe > 0, "nprobe must be positive");
  TopK topk(std::min<size_t>(static_cast<size_t>(nprobe), centroids.rows()));
  kernels::ScanRowsIntoTopK(Metric::kL2, query, centroids.data(),
                            centroids.rows(), centroids.dim(),
                            /*ids=*/nullptr, /*base_id=*/0, topk);
  std::vector<int32_t> ranked;
  for (const Neighbor& neighbor : topk.SortedTake()) {
    ranked.push_back(static_cast<int32_t>(neighbor.id));
  }
  return ranked;
}

std::vector<std::vector<int32_t>>
RankCentroidsBatch(const Matrix& queries, const Matrix& centroids,
                   int nprobe) {
  RAGO_REQUIRE(nprobe > 0, "nprobe must be positive");
  RAGO_REQUIRE(queries.dim() == centroids.dim(),
               "query/centroid dimensionality mismatch");
  const size_t num_queries = queries.rows();
  const size_t num_centroids = centroids.rows();
  const size_t keep = std::min<size_t>(static_cast<size_t>(nprobe),
                                       num_centroids);

  std::vector<TopK> heaps;
  heaps.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    heaps.emplace_back(keep);
  }
  // Shared micro-tiled scan; each heap sees centroids in ascending
  // index order, so tie-breaks match the per-query ranking exactly.
  kernels::ScanTileIntoTopK(Metric::kL2, queries.data(), num_queries,
                            centroids.data(), num_centroids,
                            centroids.dim(), /*base_id=*/0, heaps.data());

  std::vector<std::vector<int32_t>> out(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<int32_t>& ranked = out[q];
    ranked.reserve(keep);
    for (const Neighbor& neighbor : heaps[q].SortedTake()) {
      ranked.push_back(static_cast<int32_t>(neighbor.id));
    }
  }
  return out;
}

}  // namespace rago::ann
