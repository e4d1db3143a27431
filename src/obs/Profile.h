//===- obs/Profile.h - Site-attributed entanglement profiler ---*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The attribution half of the observability layer. The counters
/// (support/EmCounters) say *how much* entanglement cost a run and the
/// tracer (obs/Trace.h) says *when*; this profiler says *where*: every pin
/// (down-pointer, cross-pointer, pinned-holder), every entangled read,
/// every join-driven unpin and every GC phase that paid for entanglement is
/// attributed to a *site* — one of the runtime's fixed program points,
/// named by the obs::Site enum — together with the bytes involved and the
/// heap depth at which the entanglement lived.
///
/// This is an *entanglement* profiler: hooks fire only on the slow paths
/// where entanglement is created, serviced, or released. A disentangled
/// execution therefore produces an empty profile by construction — the
/// measurable form of the paper's shielding claim.
///
/// Design constraints, in order (mirroring obs/Trace.h):
///
///  1. Disabled cost ~ zero: every hook is a relaxed atomic load and a
///     predictable not-taken branch. With the profile plane off the
///     barrier fast paths are untouched (results/M1_barriers.txt records
///     this).
///  2. Enabled cost is bounded: one process-wide table of relaxed atomics
///     per site (no locks on the event path), like the em cost counters
///     on the same slow paths; only pin-lifetime tracking takes a sharded
///     leaf mutex, and only on the already-lock-protected pin/unpin slow
///     paths. A snapshot reads the table at any time.
///
/// Pin lifetimes: notePin() records the pin instant keyed by object
/// address; noteUnpin() (the join rule) attributes the elapsed lifetime to
/// the site that created the pin. Entries still live at a quiescent point
/// are *leaked pins* — the fuzz suite's SkipUnpin fault shows up here.
///
/// Heap-tree introspection: readHeapTree() returns the live heap
/// hierarchy as plain records (depth, chunk/pinned bytes, active forks,
/// governor pressure level) and writeHeapTree() renders them as
/// mpl-heap-tree/1 JSON. The obs layer depends only on support, so the
/// walker that fills the records is registered by rt::Runtime as a
/// provider callback (the same inversion the registry's gauges use); it is
/// thread-safe and is called from the MetricsSampler thread (each sample
/// counts heaps per depth), by the trace exporter (a final tree under
/// otherData) and by the MemoryGovernor on OutOfMemoryError
/// (MPL_OBS_DIR/oom-heap-tree.json).
///
/// Gating: MPL_OBS=profile arms the profiler, and the profile JSON goes to
/// MPL_OBS_DIR/profile.json on Runtime destruction / process exit (see
/// obs::initFromEnv). Tests and benches use Profiler::get().enable()
/// directly.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_OBS_PROFILE_H
#define MPL_OBS_PROFILE_H

#include "support/Histogram.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mpl {
namespace json {
class Writer;
} // namespace json

namespace obs {

/// The fixed program points costs are attributed to. Their dotted names
/// come from a constexpr table in Profile.cpp, the way obs::Ev names trace
/// events, so a profile can be written at any time — including an
/// exit-time flush after static destruction — and the site table is a
/// plain SiteCell[NumSites].
enum class Site : uint8_t {
  PinDown,       ///< "em.pin.down": write barrier, down-pointer.
  PinCross,      ///< "em.pin.cross": write barrier, cross-pointer.
  PinHolder,     ///< "em.pin.holder": store into an already-pinned holder.
  PinRead,       ///< "em.pin.read": read barrier deepened or re-took a pin.
  ReadEntangled, ///< "em.read.entangled": an entangled read.
  ContCapture,   ///< "em.cont.capture": continuation capture pin.
  Pin,           ///< "hh.pin": a pin taken with no barrier site.
  JoinUnpin,     ///< "hh.join.unpin": a join's pin-release work.
  GcMarkInPlace, ///< "gc.mark.inplace": GC phase A, pinned closures.
  GcEvac,        ///< "gc.evac": GC phase B, evacuation.
  GcReclaim,     ///< "gc.reclaim": GC phase C, from-space reclaim.
  JitCompile,    ///< "pml.jit.compile": a pml function tiered to native.
  NumSites
};

/// Per-site profile data at one instant (Profiler::snapshot).
struct SiteSnap {
  std::string Name;
  int64_t Events = 0;
  int64_t Bytes = 0;

  /// Events by heap depth of the entanglement; depths >= DepthBuckets-1
  /// clamp into the last bucket.
  static constexpr int DepthBuckets = 16;
  int64_t Depth[DepthBuckets] = {};

  /// Log2-bucketed durations (ns): pin lifetimes for pin sites, phase
  /// pauses for GC sites. The buckets are a Histogram's, so
  /// Histogram::percentilesFrom(Dur, DurSumNs) gives the same quantiles
  /// as the em.pin.lifetime.ns histogram for the same samples.
  int64_t Dur[Histogram::NumBuckets] = {};
  int64_t DurCount = 0;
  int64_t DurSumNs = 0;
};

/// Process-wide profiler: the site table and the live-pin table.
class Profiler {
public:
  static Profiler &get();

  /// Arms / disarms every hook. Enable is idempotent; disable leaves the
  /// recorded data in place for snapshot()/jsonDump().
  void enable();
  void disable();
  bool enabled() const;

  /// Drops all recorded data (site table, live-pin table). Recording
  /// threads must be quiescent (outside Runtime::run).
  void reset();

  /// A copy of every site with recorded events, sorted by attributed bytes
  /// (then events) descending.
  std::vector<SiteSnap> snapshot() const;

  /// Pins recorded by notePin and not yet released by noteUnpin.
  int64_t livePinCount() const;
  int64_t livePinBytes() const;

  /// The profile as a schema-versioned JSON document.
  std::string jsonDump() const;

  // Recording slow paths — call through the obs::profile* inline gates.
  void noteEvent(Site S, int64_t Bytes, uint32_t Depth, int64_t DurNs = -1);
  void notePin(Site S, const void *Obj, int64_t Bytes, uint32_t Depth);
  void noteUnpin(const void *Obj);

private:
  Profiler() = default;

  struct SiteCell {
    std::atomic<int64_t> Events{0};
    std::atomic<int64_t> Bytes{0};
    std::atomic<int64_t> Depth[SiteSnap::DepthBuckets] = {};
    std::atomic<int64_t> Dur[Histogram::NumBuckets] = {};
    std::atomic<int64_t> DurCount{0};
    std::atomic<int64_t> DurSumNs{0};
  };
  static constexpr int NumSites = static_cast<int>(Site::NumSites);

  struct PinRec {
    Site S = Site::Pin;
    int64_t TimeNs = 0;
    int64_t Bytes = 0;
  };

  /// The live-pin table, sharded by object address. Bucket mutexes are
  /// leaves: they nest under the heap PinLocks the pin/unpin paths already
  /// hold and never wrap another lock.
  static constexpr int PinShards = 16;
  struct PinBucket {
    mutable std::mutex Mu;
    std::unordered_map<const void *, PinRec> Live;
  };

  PinBucket &bucketOf(const void *Obj) {
    return PinTable[(reinterpret_cast<uintptr_t>(Obj) >> 4) % PinShards];
  }

  SiteCell Cells[NumSites];
  PinBucket PinTable[PinShards];
};

namespace detail {
extern std::atomic<uint32_t> ProfileActiveFlag;
} // namespace detail

/// The single branch-predictable check every profiling hook compiles to.
inline bool profileEnabled() {
  return detail::ProfileActiveFlag.load(std::memory_order_relaxed) != 0;
}

/// Attributes one event (optionally with a duration) to \p S.
inline void profileEvent(Site S, int64_t Bytes, uint32_t Depth,
                         int64_t DurNs = -1) {
  if (profileEnabled()) [[unlikely]]
    Profiler::get().noteEvent(S, Bytes, Depth, DurNs);
}

/// Records a new pin of \p Obj attributed to \p S. Starts the
/// pin-lifetime clock.
inline void profilePin(Site S, const void *Obj, int64_t Bytes,
                       uint32_t Depth) {
  if (profileEnabled()) [[unlikely]]
    Profiler::get().notePin(S, Obj, Bytes, Depth);
}

/// Records the release of \p Obj's pin; the elapsed lifetime is attributed
/// to the site that created the pin.
inline void profileUnpin(const void *Obj) {
  if (profileEnabled()) [[unlikely]]
    Profiler::get().noteUnpin(Obj);
}

//===----------------------------------------------------------------------===//
// Heap-tree introspection
//===----------------------------------------------------------------------===//

/// One live heap at the instant of a heap-tree read. Ids are dense
/// (0..n-1) within one read; Parent is -1 for a root.
struct HeapRecord {
  int Id = 0;
  int Parent = -1;
  int64_t Depth = 0;
  int64_t ChunkBytes = 0;
  int64_t PinnedObjects = 0;
  int64_t PinnedBytes = 0;
  int64_t ActiveForks = 0;
};

/// The live heap hierarchy plus the governor's pressure level, as the
/// runtime's provider fills it.
struct HeapTree {
  int64_t TimeNs = -1; ///< Read instant; -1 when no runtime was alive.
  int PressureLevel = 0;
  const char *Pressure = "none";
  std::vector<HeapRecord> Heaps;
};

/// Installs the live-heap-tree walker (rt::Runtime's constructor; pass an
/// empty function to uninstall on destruction). The provider fills one
/// HeapTree and must be callable from any thread.
void setHeapTreeProvider(std::function<void(HeapTree &)> Provider);

/// Reads the live heap hierarchy through the registered provider into
/// \p Out. Thread-safe (the provider cannot be uninstalled mid-call);
/// returns false, leaving \p Out empty, when no runtime is alive.
bool readHeapTree(HeapTree &Out);

/// Writes \p T into \p W as one mpl-heap-tree/1 object (a valid empty tree
/// when no runtime was alive).
void writeHeapTree(json::Writer &W, const HeapTree &T);

/// readHeapTree() as a standalone mpl-heap-tree/1 document.
std::string snapshotHeapTree();

} // namespace obs
} // namespace mpl

#endif // MPL_OBS_PROFILE_H
