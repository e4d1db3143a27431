//===- hh/Heap.h - Hierarchical heaps --------------------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap hierarchy mirrors the fork-join task tree: a fork gives each
/// branch a fresh child heap; a join merges the child back into its parent.
/// Tasks allocate into (and locally collect) their own heaps without any
/// synchronization — the property that makes parallel functional programs
/// fast — and the entanglement machinery (em/) makes this safe in the
/// presence of arbitrary effects by pinning objects that concurrent tasks
/// may reach.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_HH_HEAP_H
#define MPL_HH_HEAP_H

#include "mm/Chunk.h"
#include "mm/Object.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace mpl {

/// One heap in the hierarchy. Owned (allocated into / collected) by at most
/// one task at a time; shared ancestors are read-only for allocation until
/// their forks join.
class Heap {
public:
  Heap(Heap *Parent, uint32_t Depth) : Parent(Parent), Depth(Depth) {}

  Heap *parent() const { return Parent; }
  uint32_t depth() const { return Depth; }
  bool isDead() const { return Dead.load(std::memory_order_acquire); }

  /// Number of outstanding (un-joined) child branches. A heap with active
  /// forks is *shared*: it must not be locally collected, because sibling
  /// tasks hold references into it.
  int activeForks() const {
    return ActiveForks.load(std::memory_order_acquire);
  }
  void setActiveForks(int N) {
    ActiveForks.store(N, std::memory_order_release);
  }
  void decActiveForks() {
    ActiveForks.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Owner-thread-only bump allocation of \p Bytes (8-aligned).
  void *allocate(size_t Bytes);

  /// Allocates and initializes an object header; payload uninitialized.
  Object *allocateObject(ObjKind K, bool Mutable, uint32_t Length,
                         uint16_t PtrMap);

  /// The heap an object currently belongs to.
  static Heap *of(const Object *O) {
    return Chunk::chunkOf(O)->Owner.load(std::memory_order_acquire);
  }

  /// True when \p A is an ancestor of (or equal to) \p B in the hierarchy.
  /// A pointer whose target's heap is an ancestor of the reader's heap is
  /// disentangled; anything else is entanglement.
  static bool isAncestorOf(const Heap *A, const Heap *B);

  /// Byte offsets of Parent / Depth within a Heap, for generated code: the
  /// pml JIT (src/pml/jit) emits the read-barrier fast path — the same
  /// depth-guided ancestry walk isAncestorOf performs — inline, so it needs
  /// the field layout without making the fields public. Both fields are
  /// immutable after construction, so code baking these offsets in stays
  /// valid for the heap's whole lifetime.
  static size_t parentOffset();
  static size_t depthOffset();

  /// Depth of the least common ancestor of two heaps.
  static uint32_t lcaDepth(const Heap *A, const Heap *B);

  /// Registers \p O as pinned in this heap at depth \p UnpinDepth (callers:
  /// the entanglement write/read barriers and continuation capture). Takes
  /// the pin lock. Returns true when the object was newly pinned (not
  /// merely depth-deepened); only then is the pin counted (em.pins.objects,
  /// em.pinned.bytes), gauged and traced, and, with the trace plane armed,
  /// its lifetime clock started.
  bool addPinned(Object *O, uint32_t UnpinDepth);

  /// Releases \p O's pin in place: counts the unpin (em.unpins,
  /// em.unpins.bytes), lowers this heap's pin gauges, traces the release,
  /// records the pin's lifetime in em.pin.lifetime.ns when its clock runs,
  /// and clears the pin bit. The one release path — the join rule and
  /// continuation resume both call it. The caller holds PinLock of this
  /// heap, whose Pinned set lists \p O.
  void releasePin(Object *O);

  /// Pins whose lifetime clock is running: pinned under the trace plane
  /// and not yet released. Zero at any quiescent point where every pin
  /// taken under the trace plane was released.
  static int64_t clockedPins();

  /// Sum of bytes bump-allocated into live chunks (fragmentation included).
  size_t footprintBytes() const;

  /// Releases every chunk back to the pool (runtime teardown or root-heap
  /// destruction).
  void releaseAllChunks();

  // The collector and the join operation manipulate these directly; they
  // are internal to the runtime but shared across gc/, em/ and hh/.

  /// Guards Pinned, pin/unpin transitions of objects in this heap, and
  /// excludes local collection from racing with remote pins.
  std::mutex PinLock;

  /// Entanglement candidates living in this heap (objects pinned by the
  /// barriers). The local collector treats them as in-place roots; joins
  /// filter them by unpin depth.
  std::vector<Object *> Pinned;

  /// Chunk list head (most recently acquired first) and allocation chunk.
  Chunk *Chunks = nullptr;
  Chunk *Current = nullptr;

  /// Bytes of objects bump-allocated into this heap since creation or the
  /// last collection (collection policy input).
  int64_t BytesAllocated = 0;

  /// True while the owning task's local collector is evacuating this heap.
  /// Written and read under PinLock (or by the owning thread only).
  bool InCollection = false;

  /// Relaxed-atomic mirrors of this heap's chunk and pin totals, updated
  /// at every transition (chunk acquire/release/re-home, pin/unpin/move,
  /// GC detach/retire). They exist so obs::snapshotHeapTree() can read a
  /// consistent-enough picture from *other* threads (the MetricsSampler,
  /// the OOM path) without taking PinLock or walking the chunk list —
  /// which would race the owner. Approximate across a join by design
  /// (stale duplicate pin entries move with their vector).
  std::atomic<int64_t> ChunkBytesGauge{0};
  std::atomic<int64_t> PinnedObjsGauge{0};
  std::atomic<int64_t> PinnedBytesGauge{0};

private:
  void pushChunk(Chunk *C);

  Heap *Parent;
  uint32_t Depth;
  std::atomic<bool> Dead{false};
  std::atomic<int> ActiveForks{0};

  friend class HeapManager;
};

/// Creates, forks, and joins heaps. Heap objects are retained until the run
/// that created them ends (releaseAll), so racy Heap::of reads during joins
/// can never observe a dangling heap.
class HeapManager {
public:
  HeapManager() = default;
  ~HeapManager();

  HeapManager(const HeapManager &) = delete;
  HeapManager &operator=(const HeapManager &) = delete;

  /// Creates the root heap (depth 0).
  Heap *createRoot();

  /// Creates a fresh child heap for one branch of a fork.
  Heap *forkChild(Heap *Parent);

  /// Merges \p Child into \p Parent: chunks are re-homed, pinned objects
  /// whose unpin depth is reached are unpinned (entanglement provably dead,
  /// the paper's join rule), the rest move to the parent's pinned set.
  /// Returns the number of objects unpinned.
  int64_t join(Heap *Parent, Heap *Child);

  /// Frees every heap, returning the chunks of those not yet joined to the
  /// pool. rt::Runtime calls it when a run ends: workers are quiescent, so
  /// no barrier or join still holds a heap pointer.
  void releaseAll();

  /// Number of heaps the current run has created (the hh.heaps gauge).
  size_t heapCount() const;

  /// Runs \p Fn on every heap of the current run (live and dead) under the
  /// manager lock, so releaseAll cannot free a heap \p Fn is reading. Used
  /// by the invariant checker and the heap-tree walker.
  template <typename F> void forEachHeap(F &&Fn) const {
    std::lock_guard<std::mutex> G(Lock);
    for (Heap *H : AllHeaps)
      Fn(H);
  }

private:
  mutable std::mutex Lock;
  std::vector<Heap *> AllHeaps;
};

} // namespace mpl

#endif // MPL_HH_HEAP_H
