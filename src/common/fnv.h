/**
 * @file fnv.h
 * FNV-1a 64-bit hashing: the one fold behind outcome digests, cache
 * fingerprints and trace head-sampling verdicts.
 */
#ifndef RAGO_COMMON_FNV_H
#define RAGO_COMMON_FNV_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rago {

inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/// Folds `size` bytes into `hash`.
inline uint64_t FnvFold(uint64_t hash, const void* bytes, size_t size) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds the eight bytes of `value`, least significant first, so the
/// result is the same on every host byte order.
inline uint64_t FnvFoldU64(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xffull;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds the bit pattern of `value` (widened to 64 bits).
inline uint64_t FnvFoldDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvFoldU64(hash, bits);
}

inline uint64_t FnvFoldFloat(uint64_t hash, float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvFoldU64(hash, bits);
}

}  // namespace rago

#endif  // RAGO_COMMON_FNV_H
