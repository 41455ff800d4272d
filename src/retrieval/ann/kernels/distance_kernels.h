/**
 * @file distance_kernels.h
 * Batched distance-kernel layer with runtime dispatch.
 *
 * Every ANN hot path in this repo reduces to one of three scan shapes:
 *  - one query against N contiguous database rows (list / leaf scans),
 *  - a micro-tile of Q queries against N contiguous rows (batched
 *    search, k-means assignment) where each row load is amortized over
 *    all Q queries,
 *  - an ADC pass of N product-quantizer codes against a prebuilt
 *    lookup table.
 *
 * The ADC pass reads a blocked subspace-major "packed" layout
 * (FAISS-style transposition): each block of kPackedBlock codes
 * stores all first-subspace bytes contiguously, then all second-
 * subspace bytes, and so on, so the SIMD variants load each
 * subspace's code bytes with one contiguous load instead of strided
 * per-code byte reads. PQ encoders emit the strided (code-major)
 * layout; indexes transpose it once at build time.
 *
 * This header exposes those shapes as a function-pointer kernel table
 * with three implementations: a portable scalar reference, an AVX2/FMA
 * variant, and an AVX-512F/BW variant, selected at runtime via CPUID
 * with priority scalar < avx2 < avx512. Consumers call the
 * metric-dispatching wrappers (DistanceBatch / DistanceTile /
 * ScanRowsIntoTopK / ...) and automatically run on the fastest
 * compiled-in kernels the host supports. The RAGO_KERNEL_VARIANT
 * environment variable ("scalar", "avx2", or "avx512") caps the
 * dispatched tier for benchmarking or pinning a specific variant.
 *
 * Determinism contract:
 *  - Within one variant, the batch and tile kernels produce
 *    bit-identical values for the same (query, row) pair, and the
 *    scalar variant is bit-identical to the legacy sequential loops in
 *    distance.h. Scan order (and therefore every TopK id tie-break)
 *    never depends on the variant.
 *  - Across variants, SIMD reassociates the per-dimension accumulation
 *    of the *float* kernels (l2sq/dot batch and tile), so those
 *    distances may differ in the last few ulps. Exact search paths
 *    therefore return the same top-k *ids* under every variant unless
 *    two distinct rows' true distances differ by less than that
 *    reassociation error (sub-ulp near-ties); identical rows always
 *    compute identical distances within a variant, so duplicate
 *    tie-breaks never diverge. Approximate paths are pinned by recall
 *    parity. For guaranteed bit-exact cross-architecture
 *    reproducibility, select the scalar kernels with
 *    RAGO_KERNEL_VARIANT=scalar, or in-process with
 *    SetForceScalar(true).
 *  - The ulp caveat never applies to ADC: the ADC kernel accumulates
 *    table entries in subspace order s = 0..m-1 with lane-independent
 *    adds in every variant, so ADC distances are bit-identical across
 *    variants — and to a plain subspace-ordered loop over the strided
 *    code, such as ProductQuantizer::AdcDistance — given the same
 *    table.
 *  - Degenerate ADC shapes are well-defined in every variant:
 *    num_codes == 0 writes nothing, m == 0 writes 0.0f per code.
 *
 * Split-plane rows: a float row can be stored as two 16-bit planes,
 * the high half-words (a truncated bf16 copy) and the low half-words;
 * `(hi << 16) | lo` reassembles every original bit pattern.
 * ScanSplitRowsIntoTopK scores the high plane first through the
 * `*_hi_batch` slots, drops a row only when a conservative lower bound
 * on its fp32 distance already exceeds the TopK threshold, and scores
 * the survivors with the ordinary fp32 batch kernels — so its results
 * are bit-identical to ScanRowsIntoTopK over the reassembled rows in
 * every variant, while most rows cost half the bytes (the VA-file
 * idea: Weber, Schek & Blott, VLDB 1998).
 */
#ifndef RAGO_RETRIEVAL_ANN_KERNELS_DISTANCE_KERNELS_H
#define RAGO_RETRIEVAL_ANN_KERNELS_DISTANCE_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "retrieval/ann/distance.h"
#include "retrieval/ann/topk.h"

namespace rago::ann::kernels {

/// Centroids per PQ subspace the ADC kernels assume (8-bit codes).
inline constexpr size_t kAdcCentroids = 256;

/**
 * Codes per block of the packed (subspace-major) ADC layout. Within a
 * block, byte `s * kPackedBlock + j` is subspace `s` of code `j`; the
 * final block of a list is zero-padded to full width. 32 lanes feed
 * the AVX2 variant four 8-lane groups and the AVX-512 variant two
 * 16-lane groups per subspace.
 */
inline constexpr size_t kPackedBlock = 32;

/**
 * One kernel implementation set. All row pointers are float32 and may
 * be unaligned; `rows` is row-major with stride `dim`.
 */
struct KernelTable {
  const char* name;  ///< "scalar", "avx2", or "avx512".

  /// out[i] = squared L2 distance of `query` to row i, i in [0, num_rows).
  void (*l2sq_batch)(const float* query, const float* rows, size_t num_rows,
                     size_t dim, float* out);

  /// out[i] = dot product of `query` with row i.
  void (*dot_batch)(const float* query, const float* rows, size_t num_rows,
                    size_t dim, float* out);

  /// Micro-tile: out[q * num_rows + i] = L2Sq(queries row q, rows row i).
  void (*l2sq_tile)(const float* queries, size_t num_queries,
                    const float* rows, size_t num_rows, size_t dim,
                    float* out);

  /// Micro-tile: out[q * num_rows + i] = Dot(queries row q, rows row i).
  void (*dot_tile)(const float* queries, size_t num_queries,
                   const float* rows, size_t num_rows, size_t dim,
                   float* out);

  /**
   * ADC scan, packed (blocked subspace-major) layout: `packed` holds
   * ceil(num_codes / kPackedBlock) zero-padded blocks of
   * kPackedBlock * m bytes where byte
   * `block * kPackedBlock * m + s * kPackedBlock + j` is subspace `s`
   * of code `block * kPackedBlock + j`, and out[i] = sum over s in
   * [0, m) of table[s * kAdcCentroids + (subspace s of code i)],
   * accumulated in s order. Exactly `num_codes` outputs are written.
   * num_codes == 0 writes nothing; m == 0 writes 0.0f per code.
   */
  void (*adc_packed)(const float* table, const uint8_t* packed,
                     size_t num_codes, size_t m, float* out);

  /**
   * High-plane L2 scan: out[i] = squared L2 distance of `query` to the
   * bf16 truncation of row i, whose element d is the float with bit
   * pattern `hi[i * dim + d] << 16`. Feeds the lower bound of
   * ScanSplitRowsIntoTopK, which assumes only that the error is within
   * the fp32 kernels' bound (gamma = 2 (dim + 8) 2^-24 of the sum of
   * the terms' magnitudes), so the summation order is free: the SIMD
   * bodies reuse the fp32 kernels' sequence, the scalar body keeps four
   * partial sums.
   */
  void (*l2sq_hi_batch)(const float* query, const uint16_t* hi,
                        size_t num_rows, size_t dim, float* out);

  /// High-plane dot products: out[i] = Dot(query, bf16 row i), within
  /// the same error bound.
  void (*dot_hi_batch)(const float* query, const uint16_t* hi,
                       size_t num_rows, size_t dim, float* out);
};

/// The portable scalar reference kernels (always available).
const KernelTable& ScalarKernels();

/// True when this binary was compiled with the AVX2/FMA kernel TU.
bool Avx2KernelsCompiled();

/// Runtime CPUID probe: does this host support AVX2 and FMA?
bool CpuSupportsAvx2();

/// True when this binary was compiled with the AVX-512F/BW kernel TU.
bool Avx512KernelsCompiled();

/// Runtime CPUID probe: does this host support AVX-512F and AVX-512BW?
bool CpuSupportsAvx512();

/**
 * The compiled-in, host-supported table for a named variant ("scalar",
 * "avx2", "avx512"), independent of the dispatch state — nullptr when
 * that variant is not compiled in, not supported by this host, or the
 * name is unknown. Lets benches and tests compare specific tiers
 * side by side.
 */
const KernelTable* VariantByName(const char* name);

/**
 * Forces the scalar kernels regardless of CPU support and of
 * RAGO_KERNEL_VARIANT (bit-exact cross-architecture reproducibility);
 * off at process start.
 */
void SetForceScalar(bool force);

/// Current force-scalar state.
bool ForceScalarActive();

/**
 * The active kernel table: the highest-priority variant (scalar <
 * avx2 < avx512) that is compiled in and supported by the host, unless
 * forced off. SetForceScalar(true) pins scalar; otherwise the
 * RAGO_KERNEL_VARIANT environment variable ("scalar", "avx2",
 * "avx512"; read once on first dispatch, any other value throws
 * ConfigError) caps the tier, falling back to the best available at or
 * below the cap. Cheap enough to call per scan.
 */
const KernelTable& Active();

// ---------------------------------------------------------------------------
// Metric-dispatching conveniences over Active(). Inner-product values
// are negated (smaller = more similar), matching Distance().
// ---------------------------------------------------------------------------

/// Batched Distance(): one query vs `num_rows` contiguous rows.
void DistanceBatch(Metric metric, const float* query, const float* rows,
                   size_t num_rows, size_t dim, float* out);

/// Micro-tiled Distance(): `num_queries` x `num_rows` distance block.
void DistanceTile(Metric metric, const float* queries, size_t num_queries,
                  const float* rows, size_t num_rows, size_t dim, float* out);

/// Single-pair Distance() through the active kernels (so forced-scalar
/// runs are scalar end to end, including one-off evaluations).
float DistanceOne(Metric metric, const float* query, const float* row,
                  size_t dim);

/**
 * Scans `num_rows` contiguous rows and offers every distance to
 * `topk` in row order (so the deterministic id tie-break is preserved).
 * Candidate ids are `ids[i]` when `ids` is non-null, else `base_id + i`.
 * Tiles internally; `scratch` is grown as needed and reusable across
 * calls.
 */
void ScanRowsIntoTopK(Metric metric, const float* query, const float* rows,
                      size_t num_rows, size_t dim, const int64_t* ids,
                      int64_t base_id, TopK& topk,
                      std::vector<float>& scratch);

/**
 * ADC-scans `num_codes` codes stored in the packed (blocked
 * subspace-major) layout — see KernelTable::adc_packed for the exact
 * byte layout — against `table` (m x kAdcCentroids, subspace-major)
 * and offers every distance to `topk` in code order. Candidate ids are
 * `ids[i]` when non-null, else `base_id + i`. Distances go through a
 * per-thread scratch buffer.
 */
void ScanCodesPackedIntoTopK(const float* table, const uint8_t* packed,
                             size_t num_codes, size_t m, const int64_t* ids,
                             int64_t base_id, TopK& topk);

/**
 * Micro-tiled multi-query scan: streams `num_rows` contiguous rows
 * once per query tile through the tile kernel and offers every
 * (query, row) distance to `heaps[query]` in ascending row order
 * (candidate ids `base_id + row`), so per-heap tie-breaks match a
 * per-query ScanRowsIntoTopK scan exactly. `heaps` must hold
 * `num_queries` accumulators. The shared core of
 * FlatIndex::SearchBatch and the IVF coarse-centroid block ranking.
 */
void ScanTileIntoTopK(Metric metric, const float* queries,
                      size_t num_queries, const float* rows,
                      size_t num_rows, size_t dim, int64_t base_id,
                      TopK* heaps);

/**
 * Index of the row nearest to `query` by squared L2 (first index wins
 * ties, matching the sequential `d < best` loops this replaces). When
 * `min_dist` is non-null it receives the winning distance.
 * `num_rows` must be positive. Distances go through a per-thread
 * scratch buffer.
 */
size_t ArgMinL2(const float* query, const float* rows, size_t num_rows,
                size_t dim, float* min_dist = nullptr);

// ---------------------------------------------------------------------------
// Split-plane rows.
// ---------------------------------------------------------------------------

/// The float whose bit pattern is `hi << 16`: a bf16 value, widened
/// exactly.
inline float HighHalfToFloat(uint16_t hi) {
  const uint32_t bits = static_cast<uint32_t>(hi) << 16;
  float value = 0.0f;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Splits each float of `row` into its high and low 16-bit half-words.
void SplitRow(const float* row, size_t dim, uint16_t* hi, uint16_t* lo);

/// Inverse of SplitRow: row[d] gets the bit pattern (hi[d] << 16) | lo[d].
void JoinRow(const uint16_t* hi, const uint16_t* lo, size_t dim,
             float* row);

/**
 * The per-row residual ScanSplitRowsIntoTopK's lower bound needs,
 * rounded up to float. For L2 it is r = |x - hi(x)|, the norm of what
 * the high plane drops. For inner product it is r plus the fp32 dot
 * product's rounding slack, gamma * (|x| + |hi(x)|). A row holding a
 * non-finite element gets +inf, which no bound can exceed, so it is
 * always verified in fp32.
 */
float SplitResidualBound(Metric metric, const float* row, size_t dim);

/// `num_rows` rows in split-plane form (row-major planes, stride dim).
struct SplitRows {
  const uint16_t* hi = nullptr;  ///< High half-words, num_rows x dim.
  const uint16_t* lo = nullptr;  ///< Low half-words, num_rows x dim.
  const float* residuals = nullptr;  ///< SplitResidualBound per row.
};

/**
 * Exact scan of split-plane rows into `topk`, bit-identical (ids,
 * distances, tie-breaks) to ScanRowsIntoTopK over the reassembled
 * rows with the same kernel table. Per 16-row tile: while the
 * TopK threshold is finite, the high plane is scored through
 * `*_hi_batch` and a row is dropped only when its lower bound —
 * (sqrt(d_hi) - r)^2 for L2, -q.hi - |q| r for inner product, each
 * shrunk by the fp32 summation-error margin — strictly exceeds the
 * threshold, where TopK::Push would reject it anyway. Survivors are
 * reassembled and scored with `l2sq_batch` / `dot_batch`, then pushed
 * in row order. Candidate ids are `ids[i]` when non-null, else
 * `base_id + i`. Returns the number of rows scored in fp32 (whose low
 * plane was read).
 */
size_t ScanSplitRowsIntoTopK(const KernelTable& kernels, Metric metric,
                             const float* query, const SplitRows& rows,
                             size_t num_rows, size_t dim, const int64_t* ids,
                             int64_t base_id, TopK& topk);

/**
 * ScanRowsIntoTopK through one per-thread reusable scratch buffer, so
 * per-query call sites stay allocation-free after a thread's first
 * scan. The explicit-scratch overload above is for callers that
 * already own a buffer.
 */
void ScanRowsIntoTopK(Metric metric, const float* query, const float* rows,
                      size_t num_rows, size_t dim, const int64_t* ids,
                      int64_t base_id, TopK& topk);

}  // namespace rago::ann::kernels

#endif  // RAGO_RETRIEVAL_ANN_KERNELS_DISTANCE_KERNELS_H
