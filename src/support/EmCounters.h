//===- support/EmCounters.h - Entanglement cost counters -------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime-wide entanglement cost counters (the paper's cost metrics:
/// entangled reads, pins by kind, pinned/unpinned bytes). They live in the
/// support layer — below em/, hh/ and gc/ — because both the barriers
/// (core/Em.cpp) and the join rule (hh/Heap.cpp) account into them.
///
/// Tests and the invariant checker use snapshot()/reset() instead of
/// hand-reading the atomics: a snapshot is a plain value type that can be
/// compared, subtracted, and printed without ordering concerns.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_EMCOUNTERS_H
#define MPL_SUPPORT_EMCOUNTERS_H

#include <atomic>
#include <cstdint>

namespace mpl {
namespace json {
class Writer;
} // namespace json

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

/// Writes \p S as the "em" object every export shares (metrics samples,
/// the mpl-stats/1 frame): each counter plus the two live quantities.
void writeJson(json::Writer &W, const CounterSnapshot &S);

/// Counters exposed for tests/benches (see also support/Stats registry).
struct Counters {
  std::atomic<int64_t> EntangledReads{0};
  std::atomic<int64_t> EntangledReadsUnpinned{0};
  std::atomic<int64_t> DownPointerPins{0};
  std::atomic<int64_t> CrossPointerPins{0};
  std::atomic<int64_t> PinnedHolderPins{0};
  std::atomic<int64_t> PinnedObjects{0};
  std::atomic<int64_t> PinnedBytes{0};
  std::atomic<int64_t> UnpinnedObjects{0};
  std::atomic<int64_t> UnpinnedBytes{0};
  std::atomic<int64_t> ContCaptured{0};
  std::atomic<int64_t> ContResumed{0};

  /// Reads every counter (relaxed; exact at quiescent points).
  CounterSnapshot snapshot() const {
    CounterSnapshot S;
    S.EntangledReads = EntangledReads.load(std::memory_order_relaxed);
    S.EntangledReadsUnpinned =
        EntangledReadsUnpinned.load(std::memory_order_relaxed);
    S.DownPointerPins = DownPointerPins.load(std::memory_order_relaxed);
    S.CrossPointerPins = CrossPointerPins.load(std::memory_order_relaxed);
    S.PinnedHolderPins = PinnedHolderPins.load(std::memory_order_relaxed);
    S.PinnedObjects = PinnedObjects.load(std::memory_order_relaxed);
    S.PinnedBytes = PinnedBytes.load(std::memory_order_relaxed);
    S.UnpinnedObjects = UnpinnedObjects.load(std::memory_order_relaxed);
    S.UnpinnedBytes = UnpinnedBytes.load(std::memory_order_relaxed);
    S.ContCaptured = ContCaptured.load(std::memory_order_relaxed);
    S.ContResumed = ContResumed.load(std::memory_order_relaxed);
    return S;
  }

  /// Zeroes every counter (between tests / benchmark phases).
  void reset() {
    EntangledReads.store(0, std::memory_order_relaxed);
    EntangledReadsUnpinned.store(0, std::memory_order_relaxed);
    DownPointerPins.store(0, std::memory_order_relaxed);
    CrossPointerPins.store(0, std::memory_order_relaxed);
    PinnedHolderPins.store(0, std::memory_order_relaxed);
    PinnedObjects.store(0, std::memory_order_relaxed);
    PinnedBytes.store(0, std::memory_order_relaxed);
    UnpinnedObjects.store(0, std::memory_order_relaxed);
    UnpinnedBytes.store(0, std::memory_order_relaxed);
    ContCaptured.store(0, std::memory_order_relaxed);
    ContResumed.store(0, std::memory_order_relaxed);
  }
};

extern Counters Counts;

} // namespace em
} // namespace mpl

#endif // MPL_SUPPORT_EMCOUNTERS_H
