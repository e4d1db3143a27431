//===- perfbench/src/Probe.cpp - Counter reads at layer boundaries --------===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace pb {

Probe Probe::read() {
  Probe P;
  // One registry pass: snapshotAll() sums every instance of a name.
  for (const auto &[Name, V] : mpl::StatRegistry::get().snapshotAll()) {
    static const std::vector<std::pair<std::string, int64_t Probe::*>> Map = {
        {"sched.forks", &Probe::Forks},
        {"sched.steals", &Probe::Steals},
        {"hh.heaps.created", &Probe::HeapsCreated},
        {"hh.joins", &Probe::Joins},
        {"em.unpins", &Probe::Unpins},
        {"gc.collections", &Probe::GcCollections},
        {"gc.bytes.copied", &Probe::GcCopiedBytes},
        {"gc.bytes.inplace", &Probe::GcInPlaceBytes},
        {"gc.bytes.reclaimed", &Probe::GcReclaimedBytes},
        {"gc.pause.ns", &Probe::GcPauseNs},
        {"gc.pause.max.ns", &Probe::GcPauseMaxNs},
        {"mm.chunks.allocated", &Probe::ChunksAllocated},
        {"mm.chunks.reused", &Probe::ChunksReused},
        {"mm.chunks.trimmed", &Probe::ChunksTrimmed},
        {"mm.alloc.retries", &Probe::AllocRetries},
        {"mm.bytes.peak", &Probe::MmPeakBytes},
        {"pml.jit.compiled", &Probe::JitCompiled},
        {"pml.jit.bailouts", &Probe::JitBailouts},
        {"pml.jit.entries", &Probe::JitEntries},
        {"pml.jit.code_bytes", &Probe::JitCodeBytes},
    };
    for (const auto &[Key, Field] : Map)
      if (Name == Key)
        P.*Field = V;
  }
  P.Em = mpl::em::Counts.snapshot();
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  P.CpuSec = static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(U.ru_utime.tv_usec +
                                        U.ru_stime.tv_usec);
  P.MinFlt = U.ru_minflt;
  return P;
}

namespace {
/// Applies \p Fn to each pair of cumulative counters of \p A and \p B.
template <typename F> void forEachCumulative(Probe &A, const Probe &B, F Fn) {
  Fn(A.Forks, B.Forks);
  Fn(A.Steals, B.Steals);
  Fn(A.HeapsCreated, B.HeapsCreated);
  Fn(A.Joins, B.Joins);
  Fn(A.Unpins, B.Unpins);
  Fn(A.GcCollections, B.GcCollections);
  Fn(A.GcCopiedBytes, B.GcCopiedBytes);
  Fn(A.GcInPlaceBytes, B.GcInPlaceBytes);
  Fn(A.GcReclaimedBytes, B.GcReclaimedBytes);
  Fn(A.GcPauseNs, B.GcPauseNs);
  Fn(A.ChunksAllocated, B.ChunksAllocated);
  Fn(A.ChunksReused, B.ChunksReused);
  Fn(A.ChunksTrimmed, B.ChunksTrimmed);
  Fn(A.AllocRetries, B.AllocRetries);
  Fn(A.JitCompiled, B.JitCompiled);
  Fn(A.JitBailouts, B.JitBailouts);
  Fn(A.JitEntries, B.JitEntries);
  Fn(A.JitCodeBytes, B.JitCodeBytes);
  Fn(A.Em.EntangledReads, B.Em.EntangledReads);
  Fn(A.Em.EntangledReadsUnpinned, B.Em.EntangledReadsUnpinned);
  Fn(A.Em.DownPointerPins, B.Em.DownPointerPins);
  Fn(A.Em.CrossPointerPins, B.Em.CrossPointerPins);
  Fn(A.Em.PinnedHolderPins, B.Em.PinnedHolderPins);
  Fn(A.Em.PinnedObjects, B.Em.PinnedObjects);
  Fn(A.Em.PinnedBytes, B.Em.PinnedBytes);
  Fn(A.Em.UnpinnedObjects, B.Em.UnpinnedObjects);
  Fn(A.Em.UnpinnedBytes, B.Em.UnpinnedBytes);
  Fn(A.Em.ContCaptured, B.Em.ContCaptured);
  Fn(A.Em.ContResumed, B.Em.ContResumed);
  Fn(A.MinFlt, B.MinFlt);
}
} // namespace

Probe Probe::delta(const Probe &Later, const Probe &Earlier) {
  Probe D = Later;
  forEachCumulative(D, Earlier, [](int64_t &X, int64_t Y) { X -= Y; });
  D.CpuSec -= Earlier.CpuSec;
  return D;
}

void Probe::accumulate(const Probe &D) {
  forEachCumulative(*this, D, [](int64_t &X, int64_t Y) { X += Y; });
  CpuSec += D.CpuSec;
  GcPauseMaxNs = std::max(GcPauseMaxNs, D.GcPauseMaxNs);
  MmPeakBytes = std::max(MmPeakBytes, D.MmPeakBytes);
}

int64_t leakedPins() { return mpl::em::Counts.snapshot().livePinnedObjects(); }

void resetPeakRss() {
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

int64_t peakRssKb() {
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long long Kb = -1;
    while (Kb < 0 && std::fgets(Line, sizeof(Line), F))
      std::sscanf(Line, "VmHWM: %lld kB", &Kb);
    std::fclose(F);
    if (Kb >= 0)
      return Kb;
  }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss;
}

} // namespace pb
