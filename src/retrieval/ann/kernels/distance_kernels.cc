#include "retrieval/ann/kernels/distance_kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"
#include "retrieval/ann/kernels/avx2_kernels.h"
#include "retrieval/ann/kernels/avx512_kernels.h"

namespace rago::ann::kernels {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. The per-row loops are bit-identical to the
// legacy sequential L2Sq/Dot in distance.cc — the batch shape changes
// only where the loop lives, not the accumulation order — so forcing
// scalar reproduces pre-kernel-layer results exactly.
// ---------------------------------------------------------------------------

void ScalarL2Batch(const float* query, const float* rows, size_t num_rows,
                   size_t dim, float* out) {
  for (size_t i = 0; i < num_rows; ++i) {
    out[i] = L2Sq(query, rows + i * dim, dim);
  }
}

void ScalarDotBatch(const float* query, const float* rows, size_t num_rows,
                    size_t dim, float* out) {
  for (size_t i = 0; i < num_rows; ++i) {
    out[i] = Dot(query, rows + i * dim, dim);
  }
}

void ScalarL2Tile(const float* queries, size_t num_queries, const float* rows,
                  size_t num_rows, size_t dim, float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    ScalarL2Batch(queries + q * dim, rows, num_rows, dim, out + q * num_rows);
  }
}

void ScalarDotTile(const float* queries, size_t num_queries,
                   const float* rows, size_t num_rows, size_t dim,
                   float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    ScalarDotBatch(queries + q * dim, rows, num_rows, dim,
                   out + q * num_rows);
  }
}

void ScalarAdcPacked(const float* table, const uint8_t* packed,
                     size_t num_codes, size_t m, float* out) {
  // Per code: walk its lane down the block's subspace-major rows in
  // s order — the accumulation sequence every variant keeps.
  // num_codes == 0 writes nothing and m == 0 yields 0.0f per code by
  // construction — the documented degenerate-shape contract.
  for (size_t i = 0; i < num_codes; ++i) {
    const uint8_t* block =
        packed + (i / kPackedBlock) * kPackedBlock * m;
    const size_t lane = i % kPackedBlock;
    float dist = 0.0f;
    for (size_t s = 0; s < m; ++s) {
      dist += table[s * kAdcCentroids + block[s * kPackedBlock + lane]];
    }
    out[i] = dist;
  }
}

// The high-plane slots only feed a lower bound whose margin covers any
// summation order, so unlike the reference kernels above they split
// each row into four partial sums: without SIMD the scan is bound by
// the add chain's latency, and the high-plane pass must cost less than
// the fp32 pass it replaces.
template <bool kL2>
void ScalarHiBatch(const float* query, const uint16_t* hi, size_t num_rows,
                   size_t dim, float* out) {
  auto term = [](float q, uint16_t h) {
    const float r = HighHalfToFloat(h);
    if constexpr (kL2) {
      return (q - r) * (q - r);
    } else {
      return q * r;
    }
  };
  for (size_t i = 0; i < num_rows; ++i) {
    const uint16_t* row = hi + i * dim;
    float sums[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    size_t d = 0;
    for (; d + 4 <= dim; d += 4) {
      for (size_t lane = 0; lane < 4; ++lane) {
        sums[lane] += term(query[d + lane], row[d + lane]);
      }
    }
    for (; d < dim; ++d) {
      sums[0] += term(query[d], row[d]);
    }
    out[i] = (sums[0] + sums[1]) + (sums[2] + sums[3]);
  }
}

const KernelTable kScalarTable = {
    "scalar",        ScalarL2Batch,        ScalarDotBatch,
    ScalarL2Tile,    ScalarDotTile,        ScalarAdcPacked,
    ScalarHiBatch<true>,  ScalarHiBatch<false>,
};

// ---------------------------------------------------------------------------
// Dispatch state: the in-process force-scalar override (SetForceScalar).
// ---------------------------------------------------------------------------

std::atomic<bool> g_force_scalar{false};

/// Dispatch priority tiers: scalar < avx2 < avx512.
enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The RAGO_KERNEL_VARIANT cap, or the top tier when unset/empty.
Tier EnvTierCap() {
  const char* value = std::getenv("RAGO_KERNEL_VARIANT");
  if (value == nullptr || value[0] == '\0') {
    return Tier::kAvx512;
  }
  if (std::strcmp(value, "scalar") == 0) {
    return Tier::kScalar;
  }
  if (std::strcmp(value, "avx2") == 0) {
    return Tier::kAvx2;
  }
  if (std::strcmp(value, "avx512") == 0) {
    return Tier::kAvx512;
  }
  RAGO_REQUIRE(false, std::string("RAGO_KERNEL_VARIANT must be scalar, "
                                  "avx2, or avx512; got \"") +
                          value + "\"");
  return Tier::kScalar;  // Unreachable.
}

/// The best compiled-in, host-supported table at or below `cap`.
const KernelTable& BestTableUpTo(Tier cap) {
#if defined(RAGO_KERNELS_HAVE_AVX512)
  if (cap >= Tier::kAvx512 && CpuSupportsAvx512()) {
    return Avx512Kernels();
  }
#endif
#if defined(RAGO_KERNELS_HAVE_AVX2)
  if (cap >= Tier::kAvx2 && CpuSupportsAvx2()) {
    return Avx2Kernels();
  }
#endif
  (void)cap;
  return kScalarTable;
}

/// Rows-per-tile for the TopK / argmin scan helpers: big enough to
/// amortize kernel-call overhead, small enough that the distance
/// scratch stays L1/L2-resident for any realistic dim.
constexpr size_t kScanTile = 512;

/// Multi-query tile shape for ScanTileIntoTopK: 8 queries x 1024 rows
/// of distances is a 32 KB scratch block (L1/L2-resident at any dim),
/// and 8 queries per row pass feed the 4-query micro-tile kernel two
/// full groups.
constexpr size_t kQueryTile = 8;
constexpr size_t kRowTile = 1024;

/// Rows per tile of ScanSplitRowsIntoTopK: one TopK threshold read and
/// one high-plane bound pass per tile.
constexpr size_t kSplitTile = 16;

/// The per-thread distance buffer of the scan helpers. They never nest
/// (none calls another), so one buffer per thread suffices.
std::vector<float>& TlsScratch() {
  static thread_local std::vector<float> scratch;
  return scratch;
}

// ---------------------------------------------------------------------------
// Split-plane lower bound. Notation: u = 2^-24 is the float unit
// roundoff; D_c is the distance l2sq_batch / dot_batch computes for a
// row x, d_c the value the matching *_hi_batch slot computes for its
// high half h = hi(x), r = |x - h| (rounded up), T the TopK threshold.
// A row may be dropped only when D_c > T is certain (TopK::Push then
// rejects it); every rounding below is taken in the direction that
// shrinks the bound.
// ---------------------------------------------------------------------------

constexpr double kUnitRoundoff = 0x1p-24;
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Absolute slack for gradual underflow. A kernel's products lose at
/// most 2^-150 each to subnormal rounding, (dim + 8) * 2^-149 in all —
/// far below this for any real dim. kUnderflowSlackSqrt is at least
/// the square root of that loss (the slack in the distance domain).
constexpr double kUnderflowSlack = 0x1p-100;
constexpr double kUnderflowSlackSqrt = 0x1p-60;

/// Relative slack for the double-precision bound arithmetic (a few
/// ops at 2^-53 each).
constexpr double kDoubleSlack = 0x1p-45;

/**
 * Relative error bound gamma of every variant's fp32 distance kernels
 * over `dim` terms. Each term passes through at most dim + 7 roundings
 * (the subtraction, the FMA or add chain, the horizontal sum, the
 * scalar remainder), and n roundings err by at most
 * n u / (1 - n u) <= 2 n u while n u <= 1/2. Past that the value
 * reaches 1 and the bound drops nothing, so it is never wrong.
 */
double KernelErrorBound(size_t dim) {
  return 2.0 * (static_cast<double>(dim) + 8.0) * kUnitRoundoff;
}

float RoundUpToFloat(double value) {
  float out = static_cast<float>(value);
  if (static_cast<double>(out) < value) {
    out = std::nextafter(out, kInf);
  }
  return out;
}

float RoundDownToFloat(double value) {
  float out = static_cast<float>(value);
  if (static_cast<double>(out) > value) {
    out = std::nextafter(out, -kInf);
  }
  return out;
}

/**
 * The per-row drop test of ScanSplitRowsIntoTopK for one query.
 *
 * L2. The fp32 kernels satisfy D_c >= (1 - gamma) D - a and
 * sqrt(D_hi) >= (1 - gamma) sqrt(d_c) - c, where D and D_hi are the
 * exact distances to x and h and a, c are the underflow slacks. By the
 * triangle inequality sqrt(D) >= sqrt(D_hi) - r, so D_c > T follows
 * from (1 - gamma) sqrt(d_c) > r + c + W, W = sqrt((T + a) / (1 -
 * gamma)). Per tile B >= c + W is rounded up; per row the test is
 * d_c * G > (r + B)^2 in float, with G = (1 - gamma)^2 (1 - 8u)
 * rounded down absorbing the three float roundings of the test. No
 * per-row square root is needed.
 *
 * Inner product. q.x = q.h + q.(x - h) <= q.h + |q| r, and each fp32
 * dot product errs by at most gamma |q| |row| + a, so
 * D_c >= -d_c - |q| (r + gamma (|x| + |h|)) - 2a. The stored residual
 * already holds r + (gamma + 16u)(|x| + |h|); the extra 16u pays for
 * the float evaluation of L = -d_c - |q|_up * residual, and T + a is
 * rounded up per tile. The row drops when T + a < L < +inf.
 *
 * Every non-finite input (an overflowed d_c, a NaN threshold, an
 * infinite residual) makes the test fail, so the row survives.
 */
class SplitBound {
 public:
  SplitBound(Metric metric, const float* query, size_t dim)
      : l2_(metric == Metric::kL2) {
    RAGO_CHECK(metric == Metric::kL2 || metric == Metric::kInnerProduct,
               "unhandled Metric in ScanSplitRowsIntoTopK");
    gamma_ = KernelErrorBound(dim);
    usable_ = gamma_ < 1.0;
    if (l2_) {
      const double shrink = (1.0 - gamma_) * (1.0 - gamma_) *
                            (1.0 - 8.0 * kUnitRoundoff);
      g_ = RoundDownToFloat(shrink * (1.0 - kDoubleSlack));
    } else {
      double sum_sq = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        sum_sq += static_cast<double>(query[d]) * query[d];
      }
      query_norm_ = RoundUpToFloat(
          std::sqrt(sum_sq) *
          (1.0 + (static_cast<double>(dim) + 2.0) * 0x1p-52));
    }
  }

  /**
   * Bit i set: row i of a tile of `count` (<= kSplitTile) rows may
   * still reach the top-k under `threshold` and must be scored in fp32.
   * Every row survives an infinite or NaN threshold (a heap not yet
   * full keeps everything).
   */
  uint32_t Survivors(const float* hi_scores, const float* residuals,
                     size_t count, float threshold) {
    const uint32_t all = (uint32_t{1} << count) - 1;
    if (!usable_ || !(threshold < kInf)) {
      return all;
    }
    if (!(threshold == threshold_)) {
      SetThreshold(threshold);
    }
    // Branch-free: a tile's drop decisions are data, not control flow.
    uint32_t drop = 0;
    size_t i = 0;
#if defined(__SSE2__)
    // Four rows per step, same IEEE operations and ordered compares as
    // the scalar loop below, so the mask is identical.
    const __m128 inf = _mm_set1_ps(kInf);
    const __m128 tile = _mm_set1_ps(tile_);
    if (l2_) {
      const __m128 g = _mm_set1_ps(g_);
      for (; i + 4 <= count; i += 4) {
        const __m128 score = _mm_loadu_ps(hi_scores + i);
        const __m128 reach = _mm_add_ps(_mm_loadu_ps(residuals + i), tile);
        const __m128 dropped =
            _mm_and_ps(_mm_cmplt_ps(score, inf),
                       _mm_cmpgt_ps(_mm_mul_ps(score, g),
                                    _mm_mul_ps(reach, reach)));
        drop |= static_cast<uint32_t>(_mm_movemask_ps(dropped)) << i;
      }
    } else {
      const __m128 norm = _mm_set1_ps(query_norm_);
      const __m128 sign = _mm_set1_ps(-0.0f);
      for (; i + 4 <= count; i += 4) {
        const __m128 lower = _mm_sub_ps(
            _mm_xor_ps(_mm_loadu_ps(hi_scores + i), sign),
            _mm_mul_ps(norm, _mm_loadu_ps(residuals + i)));
        const __m128 dropped = _mm_and_ps(_mm_cmpgt_ps(lower, tile),
                                          _mm_cmplt_ps(lower, inf));
        drop |= static_cast<uint32_t>(_mm_movemask_ps(dropped)) << i;
      }
    }
#endif
    if (l2_) {
      for (; i < count; ++i) {
        const float reach = residuals[i] + tile_;
        const bool dropped = (hi_scores[i] < kInf) &
                             (hi_scores[i] * g_ > reach * reach);
        drop |= static_cast<uint32_t>(dropped) << i;
      }
    } else {
      for (; i < count; ++i) {
        const float lower = -hi_scores[i] - query_norm_ * residuals[i];
        const bool dropped = (lower > tile_) & (lower < kInf);
        drop |= static_cast<uint32_t>(dropped) << i;
      }
    }
    return all & ~drop;
  }

  /// Relative slack the inner-product residual carries (see above).
  static double DotResidualSlack(size_t dim) {
    return KernelErrorBound(dim) + 16.0 * kUnitRoundoff;
  }

 private:
  /// Re-derives the per-tile constant from a finite threshold.
  void SetThreshold(float threshold) {
    threshold_ = threshold;
    if (l2_) {
      const double w = std::sqrt((static_cast<double>(threshold) +
                                  kUnderflowSlack) /
                                 (1.0 - gamma_));
      tile_ = RoundUpToFloat((w + kUnderflowSlackSqrt) *
                             (1.0 + kDoubleSlack));
    } else {
      tile_ = RoundUpToFloat(static_cast<double>(threshold) +
                             kUnderflowSlack);
    }
  }

  bool l2_;
  bool usable_ = false;
  double gamma_ = 1.0;
  float g_ = 0.0f;           ///< L2: (1 - gamma)^2 (1 - 8u), rounded down.
  float query_norm_ = 0.0f;  ///< Inner product: |q|, rounded up.
  float tile_ = 0.0f;        ///< L2: B; inner product: T + a, rounded up.
  /// The threshold tile_ was derived from (NaN: none yet).
  float threshold_ = std::numeric_limits<float>::quiet_NaN();
};

static_assert(kSplitTile <= 31, "a tile's survivors must fit a uint32_t");

int CountTrailingZeros(uint32_t mask) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctz(mask);
#else
  int zeros = 0;
  for (; (mask & 1u) == 0; mask >>= 1) {
    ++zeros;
  }
  return zeros;
#endif
}

}  // namespace

const KernelTable&
ScalarKernels() {
  return kScalarTable;
}

bool
Avx2KernelsCompiled() {
#if defined(RAGO_KERNELS_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool
CpuSupportsAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool
Avx512KernelsCompiled() {
#if defined(RAGO_KERNELS_HAVE_AVX512)
  return true;
#else
  return false;
#endif
}

bool
CpuSupportsAvx512() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512bw");
  return supported;
#else
  return false;
#endif
}

const KernelTable*
VariantByName(const char* name) {
  if (name == nullptr) {
    return nullptr;
  }
  if (std::strcmp(name, "scalar") == 0) {
    return &kScalarTable;
  }
#if defined(RAGO_KERNELS_HAVE_AVX2)
  if (std::strcmp(name, "avx2") == 0 && CpuSupportsAvx2()) {
    return &Avx2Kernels();
  }
#endif
#if defined(RAGO_KERNELS_HAVE_AVX512)
  if (std::strcmp(name, "avx512") == 0 && CpuSupportsAvx512()) {
    return &Avx512Kernels();
  }
#endif
  return nullptr;
}

void
SetForceScalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool
ForceScalarActive() {
  return g_force_scalar.load(std::memory_order_relaxed);
}

const KernelTable&
Active() {
  if (ForceScalarActive()) {
    return kScalarTable;
  }
  // The env cap is parsed once; the resolved table is immutable for
  // the process lifetime (force-scalar remains the only runtime knob).
  static const KernelTable& dispatched = BestTableUpTo(EnvTierCap());
  return dispatched;
}

void
DistanceBatch(Metric metric, const float* query, const float* rows,
              size_t num_rows, size_t dim, float* out) {
  const KernelTable& kernels = Active();
  switch (metric) {
    case Metric::kL2:
      kernels.l2sq_batch(query, rows, num_rows, dim, out);
      return;
    case Metric::kInnerProduct:
      kernels.dot_batch(query, rows, num_rows, dim, out);
      for (size_t i = 0; i < num_rows; ++i) {
        out[i] = -out[i];
      }
      return;
  }
  RAGO_CHECK(false, "unhandled Metric in DistanceBatch");
}

void
DistanceTile(Metric metric, const float* queries, size_t num_queries,
             const float* rows, size_t num_rows, size_t dim, float* out) {
  const KernelTable& kernels = Active();
  switch (metric) {
    case Metric::kL2:
      kernels.l2sq_tile(queries, num_queries, rows, num_rows, dim, out);
      return;
    case Metric::kInnerProduct:
      kernels.dot_tile(queries, num_queries, rows, num_rows, dim, out);
      for (size_t i = 0; i < num_queries * num_rows; ++i) {
        out[i] = -out[i];
      }
      return;
  }
  RAGO_CHECK(false, "unhandled Metric in DistanceTile");
}

float
DistanceOne(Metric metric, const float* query, const float* row,
            size_t dim) {
  float out = 0.0f;
  DistanceBatch(metric, query, row, 1, dim, &out);
  return out;
}

void
ScanRowsIntoTopK(Metric metric, const float* query, const float* rows,
                 size_t num_rows, size_t dim, const int64_t* ids,
                 int64_t base_id, TopK& topk, std::vector<float>& scratch) {
  if (num_rows == 0) {
    return;
  }
  const size_t tile = num_rows < kScanTile ? num_rows : kScanTile;
  if (scratch.size() < tile) {
    scratch.resize(tile);
  }
  for (size_t start = 0; start < num_rows; start += tile) {
    const size_t count =
        num_rows - start < tile ? num_rows - start : tile;
    DistanceBatch(metric, query, rows + start * dim, count, dim,
                  scratch.data());
    for (size_t i = 0; i < count; ++i) {
      const size_t row = start + i;
      topk.Push(scratch[i],
                ids != nullptr ? ids[row]
                               : base_id + static_cast<int64_t>(row));
    }
  }
}

void
ScanCodesPackedIntoTopK(const float* table, const uint8_t* packed,
                        size_t num_codes, size_t m, const int64_t* ids,
                        int64_t base_id, TopK& topk) {
  if (num_codes == 0) {
    return;
  }
  // kScanTile is a multiple of kPackedBlock, so every tile starts on a
  // block boundary and the packed offset is simply start * m.
  static_assert(kScanTile % kPackedBlock == 0,
                "scan tile must cover whole packed blocks");
  const size_t tile = num_codes < kScanTile ? num_codes : kScanTile;
  std::vector<float>& scratch = TlsScratch();
  if (scratch.size() < tile) {
    scratch.resize(tile);
  }
  const KernelTable& kernels = Active();
  for (size_t start = 0; start < num_codes; start += tile) {
    const size_t count =
        num_codes - start < tile ? num_codes - start : tile;
    kernels.adc_packed(table, packed + start * m, count, m,
                       scratch.data());
    for (size_t i = 0; i < count; ++i) {
      const size_t code = start + i;
      topk.Push(scratch[i],
                ids != nullptr ? ids[code]
                               : base_id + static_cast<int64_t>(code));
    }
  }
}

void
ScanTileIntoTopK(Metric metric, const float* queries, size_t num_queries,
                 const float* rows, size_t num_rows, size_t dim,
                 int64_t base_id, TopK* heaps) {
  // Rows in the outer loop: each row tile is streamed once and scored
  // against every query. Distances reach each heap in ascending row
  // order, so results are bit-identical to a per-query scan for any
  // tiling. Scratch comes from the shared per-thread buffer (this
  // helper never nests with the other scan helpers).
  std::vector<float>& dists = TlsScratch();
  if (dists.size() < kQueryTile * kRowTile) {
    dists.resize(kQueryTile * kRowTile);
  }
  for (size_t row0 = 0; row0 < num_rows; row0 += kRowTile) {
    const size_t rows_here =
        num_rows - row0 < kRowTile ? num_rows - row0 : kRowTile;
    for (size_t query0 = 0; query0 < num_queries; query0 += kQueryTile) {
      const size_t queries_here = num_queries - query0 < kQueryTile
                                      ? num_queries - query0
                                      : kQueryTile;
      DistanceTile(metric, queries + query0 * dim, queries_here,
                   rows + row0 * dim, rows_here, dim, dists.data());
      for (size_t q = 0; q < queries_here; ++q) {
        TopK& heap = heaps[query0 + q];
        const float* row_dists = dists.data() + q * rows_here;
        for (size_t i = 0; i < rows_here; ++i) {
          heap.Push(row_dists[i],
                    base_id + static_cast<int64_t>(row0 + i));
        }
      }
    }
  }
}

size_t
ArgMinL2(const float* query, const float* rows, size_t num_rows, size_t dim,
         float* min_dist) {
  RAGO_CHECK(num_rows > 0, "ArgMinL2 requires at least one row");
  const size_t tile = num_rows < kScanTile ? num_rows : kScanTile;
  std::vector<float>& scratch = TlsScratch();
  if (scratch.size() < tile) {
    scratch.resize(tile);
  }
  const KernelTable& kernels = Active();
  size_t best = 0;
  float best_dist = 0.0f;
  bool first = true;
  for (size_t start = 0; start < num_rows; start += tile) {
    const size_t count =
        num_rows - start < tile ? num_rows - start : tile;
    kernels.l2sq_batch(query, rows + start * dim, count, dim,
                       scratch.data());
    for (size_t i = 0; i < count; ++i) {
      // Strict < keeps the first occurrence of the minimum, matching
      // the sequential loops this replaces.
      if (first || scratch[i] < best_dist) {
        best_dist = scratch[i];
        best = start + i;
        first = false;
      }
    }
  }
  if (min_dist != nullptr) {
    *min_dist = best_dist;
  }
  return best;
}

void
SplitRow(const float* row, size_t dim, uint16_t* hi, uint16_t* lo) {
  for (size_t d = 0; d < dim; ++d) {
    uint32_t bits = 0;
    std::memcpy(&bits, row + d, sizeof(bits));
    hi[d] = static_cast<uint16_t>(bits >> 16);
    lo[d] = static_cast<uint16_t>(bits & 0xFFFFu);
  }
}

void
JoinRow(const uint16_t* hi, const uint16_t* lo, size_t dim, float* row) {
  size_t d = 0;
#if defined(__SSE2__)
  // Interleaving (lo, hi) half-words builds each little-endian 32-bit
  // pattern directly; spelled out because -O2 does not vectorize the
  // loop below, and every verified row of a split scan passes here.
  for (; d + 8 <= dim; d += 8) {
    const __m128i high =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi + d));
    const __m128i low =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo + d));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row + d),
                     _mm_unpacklo_epi16(low, high));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row + d + 4),
                     _mm_unpackhi_epi16(low, high));
  }
#endif
  for (; d < dim; ++d) {
    const uint32_t bits = (static_cast<uint32_t>(hi[d]) << 16) | lo[d];
    std::memcpy(row + d, &bits, sizeof(bits));
  }
}

float
SplitResidualBound(Metric metric, const float* row, size_t dim) {
  // x - hi(x) keeps only the low 16 mantissa bits, so it and its
  // square are exact in double; only the sums and roots round.
  double residual_sq = 0.0;
  double row_sq = 0.0;
  double hi_sq = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const float x = row[d];
    if (!std::isfinite(x)) {
      return kInf;
    }
    uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    const double h = HighHalfToFloat(static_cast<uint16_t>(bits >> 16));
    const double e = static_cast<double>(x) - h;
    residual_sq += e * e;
    row_sq += static_cast<double>(x) * x;
    hi_sq += h * h;
  }
  const double round_up =
      1.0 + (static_cast<double>(dim) + 4.0) * 0x1p-52;
  RAGO_CHECK(metric == Metric::kL2 || metric == Metric::kInnerProduct,
             "unhandled Metric in SplitResidualBound");
  double bound = std::sqrt(residual_sq);
  if (metric == Metric::kInnerProduct) {
    bound += SplitBound::DotResidualSlack(dim) *
             (std::sqrt(row_sq) + std::sqrt(hi_sq));
  }
  return RoundUpToFloat(bound * round_up);
}

size_t
ScanSplitRowsIntoTopK(const KernelTable& kernels, Metric metric,
                      const float* query, const SplitRows& rows,
                      size_t num_rows, size_t dim, const int64_t* ids,
                      int64_t base_id, TopK& topk) {
  SplitBound bound(metric, query, dim);
  const bool l2 = metric == Metric::kL2;
  const auto hi_scan = l2 ? kernels.l2sq_hi_batch : kernels.dot_hi_batch;
  // Scratch: one tile of reassembled rows, then its high-plane scores
  // and fp32 distances.
  std::vector<float>& scratch = TlsScratch();
  if (scratch.size() < kSplitTile * (dim + 2)) {
    scratch.resize(kSplitTile * (dim + 2));
  }
  float* joined = scratch.data();
  float* scores = joined + kSplitTile * dim;
  float* dists = scores + kSplitTile;
  size_t verified = 0;
  for (size_t first = 0; first < num_rows; first += kSplitTile) {
    const size_t count = std::min(kSplitTile, num_rows - first);
    const float threshold = topk.Threshold();
    uint32_t mask = (uint32_t{1} << count) - 1;
    // While the heap is not full the threshold is +inf and every row
    // is scored in fp32; no bound pass is needed.
    if (threshold < kInf) {
      hi_scan(query, rows.hi + first * dim, count, dim, scores);
      mask = bound.Survivors(scores, rows.residuals + first, count,
                             threshold);
    }
    size_t survivors[kSplitTile];
    size_t kept = 0;
    for (; mask != 0; mask &= mask - 1) {
      const size_t row = first + CountTrailingZeros(mask);
      JoinRow(rows.hi + row * dim, rows.lo + row * dim, dim,
              joined + kept * dim);
      survivors[kept++] = row;
    }
    if (kept == 0) {
      continue;
    }
    // The same kernels and negation as DistanceBatch, so every
    // survivor's distance is bit-identical to ScanRowsIntoTopK's.
    if (l2) {
      kernels.l2sq_batch(query, joined, kept, dim, dists);
    } else {
      kernels.dot_batch(query, joined, kept, dim, dists);
      for (size_t j = 0; j < kept; ++j) {
        dists[j] = -dists[j];
      }
    }
    for (size_t j = 0; j < kept; ++j) {
      const size_t row = survivors[j];
      topk.Push(dists[j], ids != nullptr
                              ? ids[row]
                              : base_id + static_cast<int64_t>(row));
    }
    verified += kept;
  }
  return verified;
}

void
ScanRowsIntoTopK(Metric metric, const float* query, const float* rows,
                 size_t num_rows, size_t dim, const int64_t* ids,
                 int64_t base_id, TopK& topk) {
  ScanRowsIntoTopK(metric, query, rows, num_rows, dim, ids, base_id, topk,
                   TlsScratch());
}

}  // namespace rago::ann::kernels
