/**
 * @file topk.h
 * Bounded top-k accumulator for nearest-neighbor search.
 */
#ifndef RAGO_RETRIEVAL_ANN_TOPK_H
#define RAGO_RETRIEVAL_ANN_TOPK_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace rago::ann {

/// One search hit: distance (smaller is better) and database id.
struct Neighbor {
  float dist = 0.0f;
  int64_t id = -1;

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.dist != b.dist) {
      return a.dist < b.dist;
    }
    return a.id < b.id;  // Deterministic tie-break.
  }

  friend bool operator>(const Neighbor& a, const Neighbor& b) {
    return b < a;
  }
};

/**
 * Keeps the k smallest-distance candidates seen so far in a buffer
 * sorted by the full Neighbor order (a Faiss-style result handler:
 * Douze et al., arXiv:2401.08281). Once k are kept, most candidates
 * are rejected by one compare against the worst kept distance; an
 * admitted candidate is inserted from the back, which for small k and
 * mostly-rejected scans beats a binary heap. Because the order is total
 * on (dist, id), the kept set and its order are the same as any exact
 * top-k, whatever the push order.
 */
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {
    RAGO_REQUIRE(k > 0, "top-k requires k >= 1");
    // A caller-supplied k can exceed any candidate count ("return
    // everything"), so the up-front reservation is bounded.
    kept_.reserve(std::min<size_t>(k, 1024));
  }

  /// Offers a candidate; cheap rejection once the buffer is full.
  void Push(float dist, int64_t id) {
    if (dist > worst_) {
      return;
    }
    const Neighbor candidate{dist, id};
    size_t pos = kept_.size();
    if (pos == k_) {
      if (!(candidate < kept_[pos - 1])) {
        return;  // Equal distance to the worst kept, larger id.
      }
      --pos;  // The worst kept is overwritten.
    } else {
      kept_.push_back(candidate);
    }
    while (pos > 0 && candidate < kept_[pos - 1]) {
      kept_[pos] = kept_[pos - 1];
      --pos;
    }
    kept_[pos] = candidate;
    if (kept_.size() == k_) {
      worst_ = kept_.back().dist;
    }
  }

  /// Current admission threshold (worst kept distance), or +inf.
  float Threshold() const { return worst_; }

  size_t size() const { return kept_.size(); }

  /// Extracts results sorted by ascending distance and empties the
  /// accumulator, which stays usable for a fresh scan.
  std::vector<Neighbor> SortedTake() {
    std::vector<Neighbor> out = std::move(kept_);
    kept_.clear();
    worst_ = std::numeric_limits<float>::infinity();
    return out;
  }

 private:
  size_t k_;
  std::vector<Neighbor> kept_;  ///< Ascending; size <= k.
  /// Distance of the worst kept neighbor once k are kept, else +inf.
  float worst_ = std::numeric_limits<float>::infinity();
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_TOPK_H
