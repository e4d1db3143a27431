//===- perfbench/src/Probe.h - Counter reads at boundaries ---*- C++ -*-===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One read of every counter the program already keeps — the StatRegistry
/// (sched, hh, gc, mm, pml.jit), the entanglement counters em::Counts, and
/// getrusage — taken at the boundaries where the benchmark calls into the
/// runtime. Deltas between two reads are what one pass or phase cost.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include "support/EmCounters.h"

#include <cstdint>

namespace pb {

struct Probe {
  int64_t Forks = 0, Steals = 0;
  int64_t HeapsCreated = 0, Joins = 0, Unpins = 0;
  int64_t GcCollections = 0, GcCopiedBytes = 0, GcInPlaceBytes = 0,
          GcReclaimedBytes = 0, GcPauseNs = 0;
  int64_t ChunksAllocated = 0, ChunksReused = 0, ChunksTrimmed = 0,
          AllocRetries = 0;
  int64_t JitCompiled = 0, JitBailouts = 0, JitEntries = 0, JitCodeBytes = 0;
  mpl::em::CounterSnapshot Em;
  double CpuSec = 0; ///< Process user + system CPU time.
  int64_t MinFlt = 0;

  /// High-water marks: never subtracted.
  int64_t GcPauseMaxNs = 0;
  int64_t MmPeakBytes = 0;

  static Probe read();
  /// Cumulative counters of \p Later minus those of \p Earlier; the
  /// high-water marks are taken from \p Later.
  static Probe delta(const Probe &Later, const Probe &Earlier);
  /// Adds \p D's cumulative counters into this one and keeps the larger
  /// high-water marks.
  void accumulate(const Probe &D);

  /// Pin events of the three barrier kinds.
  int64_t pinEvents() const {
    return Em.DownPointerPins + Em.CrossPointerPins + Em.PinnedHolderPins;
  }
};

/// Pinned objects not yet unpinned, process-wide. 0 at every point where
/// the whole task tree has joined.
int64_t leakedPins();

/// Peak RSS of one interval, in KiB: resetPeakRss() sets the process's
/// high-water mark back to its current RSS (Linux /proc/self/clear_refs),
/// peakRssKb() reads it (VmHWM). Without that interface the mark cannot be
/// reset and peakRssKb() falls back to the process lifetime peak.
void resetPeakRss();
int64_t peakRssKb();

} // namespace pb

#endif // PERFBENCH_PROBE_H
