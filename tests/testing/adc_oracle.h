/**
 * @file adc_oracle.h
 * Scalar ADC oracle over the strided (code-major) code layout.
 *
 * The kernel layer scans only the packed layout; its contract is that
 * every variant accumulates table entries in subspace order with
 * lane-independent adds. This loop is that order written out plainly
 * over codes as PQ encoders emit them, so tests can hold every
 * variant's packed scan to it bit for bit.
 */
#ifndef RAGO_TESTS_TESTING_ADC_ORACLE_H
#define RAGO_TESTS_TESTING_ADC_ORACLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "retrieval/ann/kernels/distance_kernels.h"

namespace rago::testing {

/**
 * out[i] = sum over s in [0, m), in s order, of
 * table[s * kAdcCentroids + codes[i * m + s]], for the `num_codes`
 * strided m-byte codes.
 */
inline std::vector<float> StridedAdcOracle(const float* table,
                                           const uint8_t* codes,
                                           size_t num_codes, size_t m) {
  std::vector<float> out(num_codes);
  for (size_t i = 0; i < num_codes; ++i) {
    float dist = 0.0f;
    for (size_t s = 0; s < m; ++s) {
      dist += table[s * ann::kernels::kAdcCentroids + codes[i * m + s]];
    }
    out[i] = dist;
  }
  return out;
}

}  // namespace rago::testing

#endif  // RAGO_TESTS_TESTING_ADC_ORACLE_H
