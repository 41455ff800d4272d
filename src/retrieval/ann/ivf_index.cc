#include "retrieval/ann/ivf_index.h"

#include <algorithm>

#include "common/check.h"
#include "retrieval/ann/coarse_rank.h"
#include "retrieval/ann/kernels/distance_kernels.h"

namespace rago::ann {
namespace {

/// Lloyd iterations for the coarse quantizer.
constexpr int kKMeansIterations = 10;

}  // namespace

IvfIndex::IvfIndex(Matrix data, Metric metric, const IvfOptions& options,
                   Rng& rng)
    : metric_(metric), nlist_(options.nlist), num_rows_(data.rows()),
      dim_(data.dim()) {
  RAGO_REQUIRE(!data.empty(), "IVF requires a non-empty database");
  RAGO_REQUIRE(options.nlist > 0, "nlist must be positive");
  RAGO_REQUIRE(static_cast<size_t>(options.nlist) <= data.rows(),
               "nlist cannot exceed the database size");

  KMeansResult trained = TrainKMeans(data, nlist_, rng, kKMeansIterations);
  centroids_ = std::move(trained.centroids);

  lists_.resize(static_cast<size_t>(nlist_));
  for (size_t i = 0; i < num_rows_; ++i) {
    lists_[static_cast<size_t>(trained.assignments[i])].push_back(
        static_cast<int64_t>(i));
  }

  // Regroup rows list-contiguously so each probe scans one block with
  // the batched kernels; ids stay ascending within a list, preserving
  // the deterministic tie-break order of the old scattered scan. Rows
  // are split straight from `data`: no second fp32 copy exists.
  const size_t plane = num_rows_ * dim_;
  arena_ = HugePageArena(2 * plane * sizeof(uint16_t) +
                         num_rows_ * sizeof(float));
  auto* hi = static_cast<uint16_t*>(arena_.data());
  uint16_t* lo = hi + plane;
  auto* residual = reinterpret_cast<float*>(lo + plane);
  list_offsets_.resize(static_cast<size_t>(nlist_) + 1);
  size_t next = 0;
  for (size_t c = 0; c < lists_.size(); ++c) {
    list_offsets_[c] = next;
    for (int64_t id : lists_[c]) {
      const float* row = data.Row(static_cast<size_t>(id));
      kernels::SplitRow(row, dim_, hi + next * dim_, lo + next * dim_);
      residual[next] = kernels::SplitResidualBound(metric_, row, dim_);
      ++next;
    }
  }
  list_offsets_[lists_.size()] = next;
}

std::vector<Neighbor>
IvfIndex::SearchLists(const float* query, size_t k,
                      const std::vector<int32_t>& clusters,
                      IvfScanStats* stats) const {
  const kernels::KernelTable& active = kernels::Active();
  TopK topk(k);
  for (int32_t cluster : clusters) {
    const auto c = static_cast<size_t>(cluster);
    const size_t begin = list_offsets_[c];
    const size_t count = list_offsets_[c + 1] - begin;
    if (count == 0) {
      continue;
    }
    const kernels::SplitRows rows{hi_plane() + begin * dim_,
                                  lo_plane() + begin * dim_,
                                  residuals() + begin};
    const size_t verified = kernels::ScanSplitRowsIntoTopK(
        active, metric_, query, rows, count, dim_, lists_[c].data(),
        /*base_id=*/0, topk);
    if (stats != nullptr) {
      stats->probed_rows += static_cast<int64_t>(count);
      stats->verified_rows += static_cast<int64_t>(verified);
    }
  }
  return topk.SortedTake();
}

std::vector<Neighbor>
IvfIndex::Search(const float* query, size_t k, int nprobe) const {
  return SearchLists(query, k, RankCentroids(query, centroids_, nprobe),
                     /*stats=*/nullptr);
}

std::vector<std::vector<Neighbor>>
IvfIndex::SearchBatch(const Matrix& queries, size_t k, int nprobe,
                      IvfScanStats* stats) const {
  RAGO_REQUIRE(queries.dim() == dim_, "query dimensionality mismatch");
  RAGO_REQUIRE(nprobe > 0, "nprobe must be positive");
  // Rank coarse centroids for the whole block at once (micro-tile
  // kernel); bit-identical to the per-query ranking, so batched and
  // per-query search return the same ids.
  const std::vector<std::vector<int32_t>> ranked =
      RankCentroidsBatch(queries, centroids_, nprobe);
  std::vector<std::vector<Neighbor>> out(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    out[q] = SearchLists(queries.Row(q), k, ranked[q], stats);
  }
  return out;
}

double
IvfIndex::ExpectedScannedVectors(int nprobe) const {
  const double probed = std::min(nprobe, nlist_);
  return static_cast<double>(num_rows_) * probed / nlist_;
}

}  // namespace rago::ann
