//===- hh/Heap.cpp - Hierarchical heaps -----------------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "hh/Heap.h"

#include "chaos/ChaosSchedule.h"
#include "obs/Trace.h"
#include "support/Assert.h"
#include "support/EmCounters.h"
#include "support/Histogram.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <algorithm>
#include <unordered_map>

using namespace mpl;

namespace {
Stat HeapsCreated("hh.heaps.created");
Stat JoinsPerformed("hh.joins");

/// The pin-lifetime clock: the instant each object was pinned while the
/// trace plane was armed, sharded by object address, and the histogram of
/// pin-to-release times. No counter holds a lifetime, so this is the one
/// pin figure kept outside em::Counts. Shard mutexes are leaves: they nest
/// under the PinLock that the pin and release paths hold.
class PinClock {
public:
  void start(const Object *O) {
    Shard &S = shardOf(O);
    std::lock_guard<std::mutex> G(S.Mu);
    if (S.PinnedAtNs.insert_or_assign(O, nowNs()).second)
      Live.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records \p O's lifetime when its clock runs. Also called while the
  /// plane is disarmed as long as some clock runs, so a pin taken under
  /// the plane is always timed and leaves the table at its release.
  void stop(const Object *O) {
    int64_t StartNs;
    {
      Shard &S = shardOf(O);
      std::lock_guard<std::mutex> G(S.Mu);
      auto It = S.PinnedAtNs.find(O);
      if (It == S.PinnedAtNs.end())
        return; // Pinned before the plane was armed.
      StartNs = It->second;
      S.PinnedAtNs.erase(It);
    }
    Live.fetch_sub(1, std::memory_order_relaxed);
    Lifetimes.record(std::max<int64_t>(0, nowNs() - StartNs));
  }

  int64_t live() const { return Live.load(std::memory_order_relaxed); }

private:
  static constexpr int Shards = 16;
  struct Shard {
    std::mutex Mu;
    std::unordered_map<const Object *, int64_t> PinnedAtNs;
  };
  Shard &shardOf(const Object *O) {
    return Table[(reinterpret_cast<uintptr_t>(O) >> 4) % Shards];
  }

  Shard Table[Shards];
  std::atomic<int64_t> Live{0};
  Histogram Lifetimes{"em.pin.lifetime.ns"};
};

PinClock Clock;
} // namespace

void Heap::pushChunk(Chunk *C) {
  C->Owner.store(this, std::memory_order_release);
  C->Next = Chunks;
  Chunks = C;
  Current = C;
  ChunkBytesGauge.fetch_add(static_cast<int64_t>(C->TotalBytes),
                            std::memory_order_relaxed);
}

void *Heap::allocate(size_t Bytes) {
  Bytes = (Bytes + 7) & ~static_cast<size_t>(7);
  BytesAllocated += static_cast<int64_t>(Bytes);
  if (Current)
    if (void *P = Current->tryAllocate(Bytes))
      return P;
  // Slow path: oversized objects get a dedicated chunk; otherwise start a
  // fresh bump chunk.
  if (Bytes > Chunk::SizeBytes / 2) {
    Chunk *C = ChunkPool::get().acquireLarge(Bytes);
    // Keep the allocation chunk: insert the large chunk *behind* it so
    // subsequent small allocations still hit the bump chunk.
    C->Owner.store(this, std::memory_order_release);
    if (Current) {
      C->Next = Current->Next;
      Current->Next = C;
    } else {
      C->Next = Chunks;
      Chunks = C;
    }
    ChunkBytesGauge.fetch_add(static_cast<int64_t>(C->TotalBytes),
                              std::memory_order_relaxed);
    void *P = C->tryAllocate(Bytes);
    MPL_CHECK(P, "large chunk cannot fit its object");
    return P;
  }
  pushChunk(ChunkPool::get().acquire());
  void *P = Current->tryAllocate(Bytes);
  MPL_CHECK(P, "fresh chunk cannot fit a small object");
  return P;
}

Object *Heap::allocateObject(ObjKind K, bool Mutable, uint32_t Length,
                             uint16_t PtrMap) {
  MPL_DASSERT(K != ObjKind::Record || Length <= Object::MaxRecordFields,
              "record has too many fields for the pointer bitmap");
  void *Mem = allocate(Object::sizeBytesFor(Length));
  Object *O = new (Mem) Object();
  O->initHeader(Object::makeHeader(K, Mutable, Length, PtrMap));
  return O;
}

bool Heap::isAncestorOf(const Heap *A, const Heap *B) {
  MPL_DASSERT(A && B, "ancestor query on null heap");
  while (B && B->Depth > A->Depth)
    B = B->Parent;
  return B == A;
}

// offsetof on a non-standard-layout type is conditionally supported; GCC and
// Clang both define it for this shape (no virtual bases, ordinary members).
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
#endif
size_t Heap::parentOffset() { return offsetof(Heap, Parent); }
size_t Heap::depthOffset() { return offsetof(Heap, Depth); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

uint32_t Heap::lcaDepth(const Heap *A, const Heap *B) {
  while (A->Depth > B->Depth)
    A = A->Parent;
  while (B->Depth > A->Depth)
    B = B->Parent;
  while (A != B) {
    MPL_DASSERT(A->Parent && B->Parent, "heaps in different hierarchies");
    A = A->Parent;
    B = B->Parent;
  }
  return A->Depth;
}

bool Heap::addPinned(Object *O, uint32_t UnpinDepth) {
  std::lock_guard<std::mutex> G(PinLock);
  if (!O->pinMin(UnpinDepth))
    return false;
  Pinned.push_back(O);
  int64_t Size = static_cast<int64_t>(O->sizeBytes());
  em::Counts.PinnedObjects.inc();
  em::Counts.PinnedBytes.add(Size);
  PinnedObjsGauge.fetch_add(1, std::memory_order_relaxed);
  PinnedBytesGauge.fetch_add(Size, std::memory_order_relaxed);
  obs::emit(obs::Ev::Pin, O->sizeBytes(), UnpinDepth);
  if (obs::traceEnabled()) [[unlikely]]
    Clock.start(O);
  return true;
}

void Heap::releasePin(Object *O) {
  int64_t Size = static_cast<int64_t>(O->sizeBytes());
  em::Counts.UnpinnedObjects.inc();
  em::Counts.UnpinnedBytes.add(Size);
  PinnedObjsGauge.fetch_sub(1, std::memory_order_relaxed);
  PinnedBytesGauge.fetch_sub(Size, std::memory_order_relaxed);
  obs::emit(obs::Ev::Unpin, O->sizeBytes());
  if (obs::traceEnabled() || Clock.live() != 0) [[unlikely]]
    Clock.stop(O);
  O->unpin();
}

int64_t Heap::clockedPins() { return Clock.live(); }

size_t Heap::footprintBytes() const {
  size_t Total = 0;
  for (const Chunk *C = Chunks; C; C = C->Next)
    Total += C->TotalBytes;
  return Total;
}

void Heap::releaseAllChunks() {
  Chunk *C = Chunks;
  while (C) {
    Chunk *Next = C->Next;
    if (C->Large)
      ChunkPool::get().releaseLarge(C);
    else
      ChunkPool::get().release(C);
    C = Next;
  }
  Chunks = nullptr;
  Current = nullptr;
  ChunkBytesGauge.store(0, std::memory_order_relaxed);
}

HeapManager::~HeapManager() { releaseAll(); }

void HeapManager::releaseAll() {
  // Readers hold the lock for their whole walk, so once the list is swapped
  // out no reader can reach these heaps.
  std::vector<Heap *> Heaps;
  {
    std::lock_guard<std::mutex> G(Lock);
    Heaps.swap(AllHeaps);
  }
  for (Heap *H : Heaps) {
    if (!H->isDead())
      H->releaseAllChunks();
    delete H;
  }
}

Heap *HeapManager::createRoot() {
  Heap *H = new Heap(nullptr, 0);
  HeapsCreated.inc();
  std::lock_guard<std::mutex> G(Lock);
  AllHeaps.push_back(H);
  return H;
}

Heap *HeapManager::forkChild(Heap *Parent) {
  MPL_CHECK(Parent->Depth + 1 < 255, "task tree too deep for unpin depths");
  Heap *H = new Heap(Parent, Parent->Depth + 1);
  HeapsCreated.inc();
  std::lock_guard<std::mutex> G(Lock);
  AllHeaps.push_back(H);
  return H;
}

int64_t HeapManager::join(Heap *Parent, Heap *Child) {
  MPL_CHECK(Child->Parent == Parent, "join of a non-child heap");
  MPL_CHECK(Child->activeForks() == 0, "joining a heap with live forks");
  JoinsPerformed.inc();
  obs::emit(obs::Ev::HeapJoinBegin, Child->Depth);

  // Schedule fuzzing: stretch the window between a join being decided and
  // the pin locks being taken — barriers may still be resolving Heap::of
  // against the child.
  chaos::preemptPoint(chaos::Point::JoinMerge);

  // Lock order: shallower heap first (matches the local collector).
  std::scoped_lock G(Parent->PinLock, Child->PinLock);

  // Re-home every chunk, then splice the list into the parent. The parent
  // keeps its own allocation chunk; the child's partially-used chunks
  // become retired parent chunks.
  int64_t Unpinned = 0;
  // Completely unused chunks go straight back to the pool; the rest are
  // re-homed and spliced into the parent.
  Chunk *Keep = nullptr;
  Chunk *C = Child->Chunks;
  while (C) {
    Chunk *Next = C->Next;
    if (C->usedBytes() == 0 && !C->Large) {
      ChunkPool::get().release(C);
    } else {
      C->Owner.store(Parent, std::memory_order_release);
      C->Next = Keep;
      Keep = C;
      Parent->ChunkBytesGauge.fetch_add(static_cast<int64_t>(C->TotalBytes),
                                        std::memory_order_relaxed);
    }
    C = Next;
  }
  if (Keep) {
    Chunk *Last = Keep;
    while (Last->Next)
      Last = Last->Next;
    Last->Next = Parent->Chunks;
    Parent->Chunks = Keep;
    if (!Parent->Current)
      Parent->Current = Keep;
  }
  Child->Chunks = nullptr;
  Child->Current = nullptr;
  Child->ChunkBytesGauge.store(0, std::memory_order_relaxed);
  Parent->BytesAllocated += Child->BytesAllocated;

  // The paper's join rule: entanglement with unpin depth >= the merged
  // depth is dead once the object lives at that depth; unpin those objects
  // so ordinary local collection can move (and eventually reclaim) them.
  for (Object *O : Child->Pinned) {
    if (!O->isPinned())
      continue; // Already unpinned by an earlier join (duplicate entry).
    int64_t Size = static_cast<int64_t>(O->sizeBytes());
    if (O->unpinDepth() >= Parent->Depth &&
        !chaos::faultFires(chaos::Fault::SkipUnpin)) {
      Child->releasePin(O);
      ++Unpinned;
    } else {
      // Entanglement still (possibly) live at the parent's depth — or a
      // test-only SkipUnpin fault leaking the release on purpose.
      Parent->Pinned.push_back(O);
      Parent->PinnedObjsGauge.fetch_add(1, std::memory_order_relaxed);
      Parent->PinnedBytesGauge.fetch_add(Size, std::memory_order_relaxed);
    }
  }
  Child->Pinned.clear();
  Child->PinnedObjsGauge.store(0, std::memory_order_relaxed);
  Child->PinnedBytesGauge.store(0, std::memory_order_relaxed);

  Child->Dead.store(true, std::memory_order_release);
  obs::emit(obs::Ev::HeapJoinEnd, static_cast<uint64_t>(Unpinned));
  return Unpinned;
}

size_t HeapManager::heapCount() const {
  std::lock_guard<std::mutex> G(Lock);
  return AllHeaps.size();
}
