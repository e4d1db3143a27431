//===- support/EmCounters.h - Entanglement cost counters -------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime-wide entanglement cost counters (the paper's cost metrics:
/// entangled reads, pins by kind, pinned/unpinned bytes). They are the one
/// store of those costs: registered Stats under their em.* names, counted
/// at one place each (the barriers count reads and pin kinds,
/// continuation capture counts its pins, Heap::addPinned counts pins,
/// Heap::releasePin counts unpins). They live
/// in the support layer — below em/, hh/ and mm/ — so every layer can
/// account into or derive from them.
///
/// Tests and the invariant checker use snapshot()/reset() instead of
/// reading the counters one by one: a snapshot is a plain value type that
/// can be compared, subtracted, and printed without ordering concerns.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_EMCOUNTERS_H
#define MPL_SUPPORT_EMCOUNTERS_H

#include "support/Stats.h"

#include <cstdint>

namespace mpl {
namespace em {

/// A plain-value copy of the counters at one instant. All fields are
/// cumulative event counts; live quantities are differences (see
/// livePinnedBytes / livePinnedObjects).
struct CounterSnapshot {
  int64_t EntangledReads = 0;
  /// Entangled reads that found their target UNPINNED. Pin-before-publish
  /// guarantees this never happens in a correct tree: any pointer a
  /// concurrent task can load was pinned by the write that published it.
  /// Nonzero means a write barrier lost a pin — the fuzz suite's primary
  /// detector for barrier regressions.
  int64_t EntangledReadsUnpinned = 0;
  int64_t DownPointerPins = 0;
  int64_t CrossPointerPins = 0;
  int64_t PinnedHolderPins = 0;
  /// Objects newly pinned by continuation capture (a subset of
  /// PinnedObjects).
  int64_t ContPins = 0;
  int64_t PinnedObjects = 0;
  int64_t PinnedBytes = 0;
  int64_t UnpinnedObjects = 0;
  int64_t UnpinnedBytes = 0;
  /// Effect-handler continuations captured (pml Suspend) / resumed.
  int64_t ContCaptured = 0;
  int64_t ContResumed = 0;

  /// Bytes currently retained in place by live pins. Zero at any quiescent
  /// point where the whole task tree has joined (every pin released).
  int64_t livePinnedBytes() const { return PinnedBytes - UnpinnedBytes; }
  int64_t livePinnedObjects() const { return PinnedObjects - UnpinnedObjects; }
};

/// The counters themselves: each is a registered Stat, so every export
/// (StatRegistry::snapshotAll, the Prometheus exposition, the stats frame,
/// the trace, the bench rows) reads them under these names with no second
/// copy to keep in step.
struct Counters {
  Stat EntangledReads{"em.reads.entangled"};
  Stat EntangledReadsUnpinned{"em.reads.entangled.unpinned"};
  Stat DownPointerPins{"em.pins.down"};
  Stat CrossPointerPins{"em.pins.cross"};
  Stat PinnedHolderPins{"em.pins.holder"};
  Stat PinnedObjects{"em.pins.objects"};
  Stat PinnedBytes{"em.pinned.bytes"};
  Stat UnpinnedObjects{"em.unpins"};
  Stat UnpinnedBytes{"em.unpins.bytes"};
  Stat ContCaptured{"em.cont.captured"};
  Stat ContResumed{"em.cont.resumed"};
  Stat ContPins{"em.pins.cont"};

  /// Reads every counter (relaxed; exact at quiescent points).
  CounterSnapshot snapshot() const {
    CounterSnapshot S;
    S.EntangledReads = EntangledReads.get();
    S.EntangledReadsUnpinned = EntangledReadsUnpinned.get();
    S.DownPointerPins = DownPointerPins.get();
    S.CrossPointerPins = CrossPointerPins.get();
    S.PinnedHolderPins = PinnedHolderPins.get();
    S.ContPins = ContPins.get();
    S.PinnedObjects = PinnedObjects.get();
    S.PinnedBytes = PinnedBytes.get();
    S.UnpinnedObjects = UnpinnedObjects.get();
    S.UnpinnedBytes = UnpinnedBytes.get();
    S.ContCaptured = ContCaptured.get();
    S.ContResumed = ContResumed.get();
    return S;
  }

  /// Zeroes every counter (between tests / benchmark phases);
  /// StatRegistry::resetAll() zeroes them too.
  void reset() {
    for (Stat *S : {&EntangledReads, &EntangledReadsUnpinned, &DownPointerPins,
                    &CrossPointerPins, &PinnedHolderPins, &PinnedObjects,
                    &PinnedBytes, &UnpinnedObjects, &UnpinnedBytes,
                    &ContCaptured, &ContResumed, &ContPins})
      S->set(0);
  }
};

extern Counters Counts;

} // namespace em
} // namespace mpl

#endif // MPL_SUPPORT_EMCOUNTERS_H
