/**
 * @file coarse_rank.h
 * Coarse-centroid ranking for inverted-file indexes (IVF and IVF-PQ).
 *
 * RankCentroids ranks one query with the one-query batch kernel;
 * RankCentroidsBatch ranks a whole query block through the multi-query
 * micro-tile kernel, streaming each centroid row once per query tile
 * (the same row-outer tiling FlatIndex::SearchBatch uses).
 *
 * Parity contract: within one kernel variant the batch and tile
 * kernels are bit-identical for the same (query, row) pair, and
 * centroids are offered in ascending index order in both paths, so the
 * two rankings — ids, order, and tie-breaks — are identical (pinned in
 * tests/test_distance_kernels.cc).
 */
#ifndef RAGO_RETRIEVAL_ANN_COARSE_RANK_H
#define RAGO_RETRIEVAL_ANN_COARSE_RANK_H

#include <cstdint>
#include <vector>

#include "retrieval/ann/matrix.h"

namespace rago::ann {

/**
 * The indexes of the `nprobe` `centroids` rows nearest to `query` by
 * squared L2, ascending by (distance, id). Caps nprobe at the centroid
 * count; `nprobe` must be positive.
 */
std::vector<int32_t> RankCentroids(const float* query,
                                   const Matrix& centroids, int nprobe);

/// RankCentroids for every row of `queries`, through the micro-tile
/// kernel.
std::vector<std::vector<int32_t>> RankCentroidsBatch(
    const Matrix& queries, const Matrix& centroids, int nprobe);

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_COARSE_RANK_H
