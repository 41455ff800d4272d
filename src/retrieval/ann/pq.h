/**
 * @file pq.h
 * Product quantization (PQ) codec with asymmetric distance computation.
 *
 * PQ splits each vector into `m` subspaces and quantizes each to one
 * of 256 per-subspace centroids, so a vector becomes `m` bytes. The
 * paper's hyperscale database compresses 768-dim vectors to 96 bytes;
 * queries scan codes via ADC lookup tables, which is exactly the
 * byte-stream workload the ScaNN cost model prices.
 */
#ifndef RAGO_RETRIEVAL_ANN_PQ_H
#define RAGO_RETRIEVAL_ANN_PQ_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/matrix.h"

namespace rago::ann {

/// Trained product quantizer: m subspaces x 256 centroids each.
class ProductQuantizer {
 public:
  /// Number of centroids per subspace (8-bit codes).
  static constexpr int kCentroids = 256;

  /**
   * Trains codebooks over `data`.
   *
   * @param data training vectors (dim divisible by m).
   * @param m number of subspaces (= code bytes per vector).
   * @param rng seeding for the per-subspace k-means.
   * @param kmeans_iterations Lloyd iterations per subspace.
   */
  ProductQuantizer(const Matrix& data, int m, Rng& rng,
                   int kmeans_iterations = 10);

  /// Encodes one vector into m code bytes appended to `out`.
  void Encode(const float* vec, uint8_t* out) const;

  /// Encodes all rows; returns rows*m bytes.
  std::vector<uint8_t> EncodeAll(const Matrix& data) const;

  /// Reconstructs an approximation of a coded vector.
  void Decode(const uint8_t* code, float* out) const;

  /**
   * Fills `table` with the ADC lookup table for `query`: m*256 partial
   * squared distances, laid out subspace-major. `table` is resized to
   * fit, so a caller scoring many lists can reuse one buffer.
   */
  void BuildAdcTable(const float* query, std::vector<float>& table) const;

  /// ADC distance of one code against a prebuilt table.
  float AdcDistance(const std::vector<float>& table,
                    const uint8_t* code) const;

  int m() const { return m_; }
  size_t dim() const { return dim_; }
  size_t sub_dim() const { return sub_dim_; }

  /// Bytes per encoded vector (== m).
  size_t CodeBytes() const { return static_cast<size_t>(m_); }

 private:
  int m_ = 0;
  size_t dim_ = 0;
  size_t sub_dim_ = 0;
  /// Codebooks: m matrices of kCentroids x sub_dim, flattened.
  std::vector<float> codebooks_;

  const float* Centroid(int subspace, int centroid) const {
    return codebooks_.data() +
           (static_cast<size_t>(subspace) * kCentroids + centroid) * sub_dim_;
  }
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_PQ_H
