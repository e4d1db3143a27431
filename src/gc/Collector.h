//===- gc/Collector.h - Local copying collection ---------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The local (per-task) collector. A task collects its *private chain*: the
/// maximal suffix of heaps, from its current leaf up, that have no active
/// forks — no concurrent task can allocate into or (except through
/// entanglement) reach those heaps, so they can be evacuated without any
/// global synchronization. This is the hierarchical-heap performance model
/// that the paper preserves in the presence of effects.
///
/// Entanglement changes the picture in exactly one way: *pinned* objects
/// (entanglement candidates, pinned by the barriers in core/Em.h before
/// they ever become visible to a concurrent task) and everything
/// reachable from them are kept **in place**. A concurrent reader may
/// traverse a pinned object's fields without barriers (immutable fields),
/// so the whole pinned closure must neither move nor have its slots
/// rewritten — which the copy phase guarantees because a pinned closure can
/// only point to other in-place or out-of-chain objects. The retained
/// bytes of pinned closures are precisely the paper's space cost of
/// entanglement, and are reported as gc.inplace.bytes.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_GC_COLLECTOR_H
#define MPL_GC_COLLECTOR_H

#include "gc/ShadowStack.h"
#include "hh/Heap.h"

#include <cstdint>
#include <vector>

namespace mpl {

/// Result of one local collection.
struct GcOutcome {
  int64_t HeapsCollected = 0;
  int64_t BytesCopied = 0;      ///< Live, moved to to-space.
  int64_t BytesInPlace = 0;     ///< Pinned closures kept in place.
  int64_t BytesReclaimed = 0;   ///< Chunk bytes returned to the pool.
  int64_t ObjectsCopied = 0;
  int64_t ObjectsInPlace = 0;
  int64_t PauseNs = 0;

  int64_t liveBytes() const { return BytesCopied + BytesInPlace; }
};

/// Collects private heap chains. Stateless apart from statistics; one
/// instance per runtime.
class Collector {
public:
  /// Collects the private chain whose leaf is \p Leaf, using \p Roots as
  /// the mutator root set. Must be called by the task owning \p Leaf, at a
  /// safe point (all live references rooted).
  GcOutcome collectChain(Heap *Leaf, ShadowStack &Roots);

private:
  struct ChainState;

  static void markInPlaceClosure(ChainState &CS);
  static Slot traceSlot(ChainState &CS, Slot V);
  static Object *copyObject(ChainState &CS, Object *O);
};

} // namespace mpl

#endif // MPL_GC_COLLECTOR_H
