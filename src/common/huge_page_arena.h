/**
 * @file huge_page_arena.h
 * One 2 MB-aligned memory block advised for transparent huge pages.
 *
 * Long scans over a large read-only block (IVF list planes) miss the
 * TLB on every 4 KB page they cross. The arena aligns its block to
 * 2 MB and advises only the whole 2 MB extents inside it
 * MADV_HUGEPAGE, so the kernel may back them with huge pages while a
 * partial last extent keeps 4 KB pages and resident memory does not
 * round up. On Linux the block is its own anonymous mapping, returned
 * to the system on release. The advice is a hint: off Linux, or where
 * the kernel refuses it, the arena is an ordinary aligned block.
 */
#ifndef RAGO_COMMON_HUGE_PAGE_ARENA_H
#define RAGO_COMMON_HUGE_PAGE_ARENA_H

#include <cstddef>

namespace rago {

/// Move-only owner of one uninitialized, 2 MB-aligned block.
class HugePageArena {
 public:
  static constexpr size_t kHugePageBytes = size_t{2} << 20;

  HugePageArena() = default;
  /// Allocates `bytes` (0 allocates nothing) and advises its whole
  /// 2 MB extents.
  explicit HugePageArena(size_t bytes);
  ~HugePageArena();

  HugePageArena(HugePageArena&& other) noexcept;
  HugePageArena& operator=(HugePageArena&& other) noexcept;
  HugePageArena(const HugePageArena&) = delete;
  HugePageArena& operator=(const HugePageArena&) = delete;

  void* data() { return data_; }
  const void* data() const { return data_; }
  size_t size() const { return size_; }
  /// Bytes advised MADV_HUGEPAGE: size() rounded down to whole 2 MB
  /// extents, or 0 where the advice is unavailable.
  size_t advised_bytes() const { return advised_; }

 private:
  void Release();

  void* data_ = nullptr;
  size_t size_ = 0;
  size_t mapped_ = 0;  ///< Linux: size_ rounded up to whole pages.
  size_t advised_ = 0;
};

}  // namespace rago

#endif  // RAGO_COMMON_HUGE_PAGE_ARENA_H
