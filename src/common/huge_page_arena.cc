#include "common/huge_page_arena.h"

#include <cstdint>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "common/check.h"

namespace rago {
namespace {

size_t RoundUp(size_t value, size_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

}  // namespace

HugePageArena::HugePageArena(size_t bytes) : size_(bytes) {
  if (bytes == 0) {
    return;
  }
#if defined(__linux__)
  // Map one spare extent, then unmap the head and tail around the
  // 2 MB-aligned block: the block is returned to the system on release
  // instead of fragmenting the malloc heap.
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  mapped_ = RoundUp(bytes, page);
  const size_t reserve = mapped_ + kHugePageBytes;
  void* raw = mmap(nullptr, reserve, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  RAGO_CHECK(raw != MAP_FAILED, "cannot map the huge-page arena");
  const auto base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned = RoundUp(base, kHugePageBytes);
  const size_t head = aligned - base;
  if (head > 0) {
    munmap(raw, head);
  }
  if (reserve - head > mapped_) {
    munmap(reinterpret_cast<void*>(aligned + mapped_),
           reserve - head - mapped_);
  }
  data_ = reinterpret_cast<void*>(aligned);
#if defined(MADV_HUGEPAGE)
  const size_t whole = bytes / kHugePageBytes * kHugePageBytes;
  if (whole > 0 && madvise(data_, whole, MADV_HUGEPAGE) == 0) {
    advised_ = whole;
  }
#endif
#else
  data_ = ::operator new(bytes, std::align_val_t{kHugePageBytes});
#endif
}

HugePageArena::~HugePageArena() { Release(); }

HugePageArena::HugePageArena(HugePageArena&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, 0)),
      advised_(std::exchange(other.advised_, 0)) {}

HugePageArena&
HugePageArena::operator=(HugePageArena&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, 0);
    advised_ = std::exchange(other.advised_, 0);
  }
  return *this;
}

void
HugePageArena::Release() {
  if (data_ == nullptr) {
    return;
  }
#if defined(__linux__)
  munmap(data_, mapped_);
#else
  ::operator delete(data_, std::align_val_t{kHugePageBytes});
#endif
  data_ = nullptr;
}

}  // namespace rago
