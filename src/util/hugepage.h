#ifndef SRC_UTIL_HUGEPAGE_H_
#define SRC_UTIL_HUGEPAGE_H_

#include <cstddef>
#include <cstdint>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

namespace prestore {

// Best-effort transparent-hugepage advice for a large, hot, randomly
// indexed allocation (cache set blocks, host backing stores). Randomly
// striding through tens of megabytes on 4 KiB pages makes nearly every
// access a dTLB miss, and the page walk serializes with the data fetch;
// 2 MiB pages cover the same footprint with a handful of TLB entries.
// Callers should advise BEFORE first touch — for a vector, after reserve
// and before fill; DemandZeroArena advises right after mapping — so the
// kernel can fault the range in as huge pages directly instead of waiting
// for khugepaged to collapse it. Purely host-side — affects TLB behaviour
// only, never a simulated result — and a no-op on kernels or configs
// without THP (errors deliberately ignored).
inline void AdviseHugePages(void* p, size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr uintptr_t kPage = 4096;
  const uintptr_t begin =
      (reinterpret_cast<uintptr_t>(p) + kPage - 1) & ~(kPage - 1);
  const uintptr_t end =
      (reinterpret_cast<uintptr_t>(p) + bytes) & ~(kPage - 1);
  if (end > begin) {
    (void)madvise(reinterpret_cast<void*>(begin), end - begin,
                  MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

// A fixed-size, zero-initialised host buffer that is O(1) to create: a
// private anonymous mapping the kernel fills with zero pages on first
// touch, so resident memory and teardown cost are O(bytes touched), not
// O(size). MAP_NORESERVE keeps a large untouched region from counting
// against overcommit. One PROT_NONE guard page follows the page-rounded
// end, so a pointer that runs past the buffer faults at once instead of
// writing into whatever the allocator put next. Throws std::bad_alloc if
// the mapping fails.
class DemandZeroArena {
 public:
  explicit DemandZeroArena(size_t bytes) : bytes_(bytes) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t body = (bytes + page - 1) / page * page;
    mapped_ = body + page;
    void* p = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    base_ = static_cast<uint8_t*>(p);
    if (mprotect(base_ + body, page, PROT_NONE) != 0) {
      munmap(base_, mapped_);
      throw std::bad_alloc();
    }
    AdviseHugePages(base_, body);
  }
  ~DemandZeroArena() { munmap(base_, mapped_); }

  DemandZeroArena(const DemandZeroArena&) = delete;
  DemandZeroArena& operator=(const DemandZeroArena&) = delete;

  uint8_t* data() const { return base_; }
  size_t size() const { return bytes_; }

 private:
  uint8_t* base_ = nullptr;
  size_t bytes_ = 0;
  size_t mapped_ = 0;
};

}  // namespace prestore

#endif  // SRC_UTIL_HUGEPAGE_H_
