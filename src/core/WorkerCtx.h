//===- core/WorkerCtx.h - Per-thread runtime context -----------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef MPL_CORE_WORKERCTX_H
#define MPL_CORE_WORKERCTX_H

#include "gc/ShadowStack.h"
#include "hh/Heap.h"

#include <cstdint>

namespace mpl {

/// Mutator state of one OS thread: the heap it is allocating into, its GC
/// root stack, and its collection-policy counters. Tasks migrate between
/// threads only at fork boundaries, and every branch wrapper re-points
/// CurrentHeap (and DeadlineNs), so thread-locality is safe.
struct WorkerCtx {
  Heap *CurrentHeap = nullptr;

  /// Deadline of the request this strand is serving, as a support/Timer
  /// nowNs instant; 0 outside a request scope or for a request without
  /// one. Inherited across rt::par exactly like CurrentHeap.
  int64_t DeadlineNs = 0;

  ShadowStack Roots;

  /// Bytes allocated by this thread since its last local collection.
  int64_t AllocSinceGc = 0;

  /// Live bytes (copied + in-place) found by this thread's last collection.
  int64_t LiveAfterGc = 0;
};

} // namespace mpl

#endif // MPL_CORE_WORKERCTX_H
