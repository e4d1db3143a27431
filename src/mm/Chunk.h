//===- mm/Chunk.h - Aligned allocation chunks ------------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heap memory is carved into 16 KiB chunks (Chunk::SizeBytes) aligned to
/// their size, as in MPL's runtime. Alignment makes `chunkOf(obj)` a single mask, and
/// the chunk header stores the owning heap — this is how the entanglement
/// barriers map an object to its heap (and hence its depth) in O(1).
///
/// Objects larger than half a chunk get a dedicated "large" chunk whose
/// header is still at a SizeBytes boundary, so `chunkOf` keeps working on
/// object headers (we never take `chunkOf` of an interior pointer).
///
//===----------------------------------------------------------------------===//

#ifndef MPL_MM_CHUNK_H
#define MPL_MM_CHUNK_H

#include "support/Assert.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace mpl {

class Heap;

/// A contiguous slab of allocatable memory with an in-band header.
class Chunk {
public:
  // 16 KiB balances barrier-friendly aligned lookup against per-task-heap
  // fragmentation: every task heap that allocates at all holds at least
  // one chunk until its join, so deep fork trees multiply this number.
  static constexpr size_t SizeBytes = 1 << 14;
  static constexpr uintptr_t AddrMask = ~(static_cast<uintptr_t>(SizeBytes) - 1);

  /// The heap whose objects live in this chunk. Atomic because heap joins
  /// re-home chunks while concurrent barriers may be resolving Heap::of().
  std::atomic<Heap *> Owner{nullptr};

  /// Next chunk in the owning heap's list.
  Chunk *Next = nullptr;

  /// Bump-allocation frontier and limit.
  char *Frontier = nullptr;
  char *Limit = nullptr;

  /// Number of pinned / kept-in-place survivors found by the last local
  /// collection; a chunk with survivors is retained instead of freed.
  uint32_t PinnedCount = 0;

  /// True for a dedicated oversized chunk holding exactly one object.
  bool Large = false;

  /// Total footprint including the header.
  size_t TotalBytes = 0;

  /// First allocatable byte.
  char *begin() { return reinterpret_cast<char *>(this + 1); }

  /// Bytes currently bump-allocated in this chunk.
  size_t usedBytes() const {
    return static_cast<size_t>(Frontier -
                               reinterpret_cast<const char *>(this + 1));
  }

  /// Attempts to bump-allocate \p Bytes; returns null when full.
  void *tryAllocate(size_t Bytes) {
    if (Frontier + Bytes > Limit)
      return nullptr;
    void *Result = Frontier;
    Frontier += Bytes;
    return Result;
  }

  /// Maps an object header address to its containing chunk.
  static Chunk *chunkOf(const void *ObjHeader) {
    return reinterpret_cast<Chunk *>(reinterpret_cast<uintptr_t>(ObjHeader) &
                                     AddrMask);
  }
};

static_assert(sizeof(Chunk) <= 128, "chunk header grew unexpectedly large");

/// Process-wide pool of normal-size chunks. Chunk churn is rare (one pool
/// hit per chunk of allocation), so a mutex-protected free list suffices.
///
/// Acquisition never aborts on a failed `aligned_alloc` or a breached
/// memory limit: each attempt consults the MemoryGovernor, and failures
/// run its staged recovery (trim the free list, force an emergency
/// collection, bounded backoff-retry) before a recoverable
/// mpl::OutOfMemoryError is raised. The free-list cache is bounded by the
/// governor's MPL_CHUNK_CACHE_MB cap; chunks released beyond the cap go
/// straight back to the OS.
class ChunkPool {
public:
  static ChunkPool &get();

  /// Fetches a fresh normal-size chunk (from the free list or the OS).
  /// Throws mpl::OutOfMemoryError once the governor's recovery ladder is
  /// exhausted (fatal instead on a collecting thread — see
  /// MemoryGovernor::ScopedGcExempt).
  Chunk *acquire();

  /// Returns a normal-size chunk to the free list (or the OS, when the
  /// free-list cache is at its cap).
  void release(Chunk *C);

  /// Allocates a dedicated chunk for one object of \p PayloadBytes.
  Chunk *acquireLarge(size_t PayloadBytes);

  /// Frees a large chunk back to the OS.
  void releaseLarge(Chunk *C);

  /// Returns cached free chunks to the OS until at most \p TargetBytes
  /// remain cached; returns the number of bytes released.
  int64_t trim(size_t TargetBytes = 0);

  /// Total bytes currently handed out (live chunks), for residency stats.
  int64_t outstandingBytes() const {
    return Outstanding.load(std::memory_order_relaxed);
  }

  /// Bytes cached on the free list (not in Outstanding), for the
  /// mm.freelist.bytes gauge.
  int64_t freeListBytes() const {
    return FreeBytes.load(std::memory_order_relaxed);
  }

  ~ChunkPool();

private:
  Chunk *initChunk(void *Mem, size_t Total, bool Large);
  Chunk *acquireImpl(size_t Total, bool Large);
  void *tryAcquireOnce(size_t Total, bool Large);

  std::mutex Lock;
  std::vector<Chunk *> FreeList;
  std::atomic<int64_t> Outstanding{0};
  std::atomic<int64_t> FreeBytes{0};
};

} // namespace mpl

#endif // MPL_MM_CHUNK_H
