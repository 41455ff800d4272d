/**
 * @file ivf_index.h
 * Inverted-file (IVF) index with exact in-list distances.
 *
 * Vectors are partitioned into `nlist` clusters by a trained coarse
 * quantizer; a query scans only the `nprobe` nearest clusters. This is
 * the uncompressed building block beneath IVF-PQ.
 *
 * Storage is list-contiguous and split-plane: at build time the
 * database rows are regrouped so each inverted list occupies one
 * contiguous block, stored as two 16-bit planes — the high half-words
 * of every float (a truncated bf16 copy) and the low half-words — plus
 * one residual bound per row, all in one huge-page arena. A list scan
 * (kernels::ScanSplitRowsIntoTopK) reads the high plane of every row
 * and the low plane only of rows whose lower bound can still reach
 * the top-k; results are bit-identical to an fp32 scan of the
 * original rows.
 */
#ifndef RAGO_RETRIEVAL_ANN_IVF_INDEX_H
#define RAGO_RETRIEVAL_ANN_IVF_INDEX_H

#include <cstdint>
#include <vector>

#include "common/huge_page_arena.h"
#include "common/rng.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/kmeans.h"
#include "retrieval/ann/matrix.h"
#include "retrieval/ann/topk.h"

namespace rago::ann {

/// IVF build parameters.
struct IvfOptions {
  int nlist = 64;  ///< Number of coarse clusters.
};

/// What a batch of list scans read, in rows.
struct IvfScanStats {
  int64_t probed_rows = 0;    ///< Rows of probed lists (high plane read).
  int64_t verified_rows = 0;  ///< Rows scored in fp32 (low plane read).
};

/// Inverted-file index over an in-memory database.
class IvfIndex {
 public:
  /// Trains the coarse quantizer on `data` and writes its rows into the
  /// split planes; `data` is released when construction returns.
  IvfIndex(Matrix data, Metric metric, const IvfOptions& options, Rng& rng);

  /**
   * Approximate top-k: scans the `nprobe` clusters whose centroids are
   * nearest to the query.
   */
  std::vector<Neighbor> Search(const float* query, size_t k,
                               int nprobe) const;

  /**
   * Batched Search over every row of `queries`. Coarse centroids are
   * ranked for the whole block through the micro-tile kernel
   * (coarse_rank.h); results are exactly per-query Search's.
   */
  std::vector<std::vector<Neighbor>> SearchBatch(
      const Matrix& queries, size_t k, int nprobe,
      IvfScanStats* stats = nullptr) const;

  /// Number of database vectors a query with `nprobe` scans on average.
  double ExpectedScannedVectors(int nprobe) const;

  int nlist() const { return nlist_; }
  size_t size() const { return num_rows_; }
  size_t dim() const { return dim_; }
  const Matrix& centroids() const { return centroids_; }
  const std::vector<int64_t>& list(int cluster) const {
    return lists_[static_cast<size_t>(cluster)];
  }

 private:
  /// Scans the given ranked clusters' lists for one query.
  std::vector<Neighbor> SearchLists(const float* query, size_t k,
                                    const std::vector<int32_t>& clusters,
                                    IvfScanStats* stats) const;

  /// The high / low half-word planes and the per-row residual bounds,
  /// row-major in list order, carved from arena_.
  const uint16_t* hi_plane() const {
    return static_cast<const uint16_t*>(arena_.data());
  }
  const uint16_t* lo_plane() const { return hi_plane() + num_rows_ * dim_; }
  const float* residuals() const {
    return reinterpret_cast<const float*>(lo_plane() + num_rows_ * dim_);
  }

  Metric metric_;
  int nlist_ = 0;
  size_t num_rows_ = 0;
  size_t dim_ = 0;
  Matrix centroids_;
  /// Per-list original row ids, ascending within each list.
  std::vector<std::vector<int64_t>> lists_;
  /// Database rows regrouped list-contiguously in split-plane form:
  /// list c occupies rows [list_offsets_[c], list_offsets_[c + 1]) of
  /// each plane, in the same order as lists_[c].
  HugePageArena arena_;
  std::vector<size_t> list_offsets_;
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_IVF_INDEX_H
