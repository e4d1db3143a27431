//===- obs/Profile.cpp - Site-attributed entanglement profiler -----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Profile.h"

#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>

namespace mpl {
namespace obs {

namespace detail {
std::atomic<uint32_t> ProfileActiveFlag{0};
} // namespace detail

/// Pin lifetimes across every site, registered like every Histogram (so
/// the metrics exporters pick it up with no extra wiring).
static Histogram &pinLifetimeHist() {
  static Histogram H("em.pin.lifetime.ns");
  return H;
}

namespace {
constexpr const char *SiteNames[] = {
    /* PinDown       */ "em.pin.down",
    /* PinCross      */ "em.pin.cross",
    /* PinHolder     */ "em.pin.holder",
    /* PinRead       */ "em.pin.read",
    /* ReadEntangled */ "em.read.entangled",
    /* ContCapture   */ "em.cont.capture",
    /* Pin           */ "hh.pin",
    /* JoinUnpin     */ "hh.join.unpin",
    /* GcMarkInPlace */ "gc.mark.inplace",
    /* GcEvac        */ "gc.evac",
    /* GcReclaim     */ "gc.reclaim",
    /* JitCompile    */ "pml.jit.compile",
};
static_assert(sizeof(SiteNames) / sizeof(SiteNames[0]) ==
                  static_cast<size_t>(Site::NumSites),
              "site name table out of sync with Site");
} // namespace

Profiler &Profiler::get() {
  static Profiler P;
  return P;
}

void Profiler::enable() {
  detail::ProfileActiveFlag.store(1, std::memory_order_relaxed);
}

void Profiler::disable() {
  detail::ProfileActiveFlag.store(0, std::memory_order_relaxed);
}

bool Profiler::enabled() const { return profileEnabled(); }

namespace {
void zeroCell(std::atomic<int64_t> &A) {
  A.store(0, std::memory_order_relaxed);
}
} // namespace

void Profiler::noteEvent(Site S, int64_t Bytes, uint32_t Depth,
                         int64_t DurNs) {
  SiteCell &C = Cells[static_cast<int>(S)];
  C.Events.fetch_add(1, std::memory_order_relaxed);
  C.Bytes.fetch_add(Bytes, std::memory_order_relaxed);
  int DB = std::min<uint32_t>(Depth, SiteSnap::DepthBuckets - 1);
  C.Depth[DB].fetch_add(1, std::memory_order_relaxed);
  if (DurNs >= 0) {
    C.Dur[Histogram::bucketOf(DurNs)].fetch_add(1, std::memory_order_relaxed);
    C.DurCount.fetch_add(1, std::memory_order_relaxed);
    C.DurSumNs.fetch_add(DurNs, std::memory_order_relaxed);
  }
}

void Profiler::notePin(Site S, const void *Obj, int64_t Bytes,
                       uint32_t Depth) {
  noteEvent(S, Bytes, Depth);
  PinBucket &B = bucketOf(Obj);
  std::lock_guard<std::mutex> G(B.Mu);
  B.Live[Obj] = PinRec{S, nowNs(), Bytes};
}

void Profiler::noteUnpin(const void *Obj) {
  PinRec R;
  {
    PinBucket &B = bucketOf(Obj);
    std::lock_guard<std::mutex> G(B.Mu);
    auto It = B.Live.find(Obj);
    if (It == B.Live.end())
      return; // Pinned before the profiler was armed; nothing to attribute.
    R = It->second;
    B.Live.erase(It);
  }
  int64_t LifeNs = std::max<int64_t>(0, nowNs() - R.TimeNs);
  pinLifetimeHist().record(LifeNs);
  SiteCell &C = Cells[static_cast<int>(R.S)];
  C.Dur[Histogram::bucketOf(LifeNs)].fetch_add(1, std::memory_order_relaxed);
  C.DurCount.fetch_add(1, std::memory_order_relaxed);
  C.DurSumNs.fetch_add(LifeNs, std::memory_order_relaxed);
}

void Profiler::reset() {
  for (SiteCell &C : Cells) {
    zeroCell(C.Events);
    zeroCell(C.Bytes);
    for (auto &A : C.Depth)
      zeroCell(A);
    for (auto &A : C.Dur)
      zeroCell(A);
    zeroCell(C.DurCount);
    zeroCell(C.DurSumNs);
  }
  for (PinBucket &B : PinTable) {
    std::lock_guard<std::mutex> BG(B.Mu);
    B.Live.clear();
  }
}

std::vector<SiteSnap> Profiler::snapshot() const {
  std::vector<SiteSnap> Out;
  for (int I = 0; I < NumSites; ++I) {
    const SiteCell &C = Cells[I];
    int64_t Events = C.Events.load(std::memory_order_relaxed);
    if (Events == 0)
      continue;
    SiteSnap S;
    S.Name = SiteNames[I];
    S.Events = Events;
    S.Bytes = C.Bytes.load(std::memory_order_relaxed);
    for (int D = 0; D < SiteSnap::DepthBuckets; ++D)
      S.Depth[D] = C.Depth[D].load(std::memory_order_relaxed);
    for (int D = 0; D < Histogram::NumBuckets; ++D)
      S.Dur[D] = C.Dur[D].load(std::memory_order_relaxed);
    S.DurCount = C.DurCount.load(std::memory_order_relaxed);
    S.DurSumNs = C.DurSumNs.load(std::memory_order_relaxed);
    Out.push_back(std::move(S));
  }
  std::sort(Out.begin(), Out.end(), [](const SiteSnap &A, const SiteSnap &B) {
    if (A.Bytes != B.Bytes)
      return A.Bytes > B.Bytes;
    if (A.Events != B.Events)
      return A.Events > B.Events;
    return A.Name < B.Name;
  });
  return Out;
}

int64_t Profiler::livePinCount() const {
  int64_t N = 0;
  for (const PinBucket &B : PinTable) {
    std::lock_guard<std::mutex> G(B.Mu);
    N += static_cast<int64_t>(B.Live.size());
  }
  return N;
}

int64_t Profiler::livePinBytes() const {
  int64_t N = 0;
  for (const PinBucket &B : PinTable) {
    std::lock_guard<std::mutex> G(B.Mu);
    for (const auto &KV : B.Live)
      N += KV.second.Bytes;
  }
  return N;
}

std::string Profiler::jsonDump() const {
  std::vector<SiteSnap> Snap = snapshot();
  json::Writer W;
  W.beginObject()
      .kv("schema", "mpl-profile/1")
      .kv("enabled", enabled())
      .kv("leaked_pins", livePinCount())
      .kv("leaked_bytes", livePinBytes())
      .key("sites")
      .beginArray();
  for (const SiteSnap &Row : Snap) {
    Histogram::Percentiles Dur =
        Histogram::percentilesFrom(Row.Dur, Row.DurSumNs);
    W.beginObject()
        .kv("name", Row.Name)
        .kv("events", Row.Events)
        .kv("bytes", Row.Bytes)
        .key("depth_events")
        .beginObject();
    for (int D = 0; D < SiteSnap::DepthBuckets; ++D)
      if (Row.Depth[D] != 0)
        W.kv(std::to_string(D), Row.Depth[D]);
    W.endObject()
        .key("dur_ns")
        .beginObject()
        .kv("count", Row.DurCount)
        .kv("sum", Row.DurSumNs)
        .kv("p50", Dur.P50)
        .kv("p95", Dur.P95)
        .kv("p99", Dur.P99)
        .endObject()
        .endObject();
  }
  W.endArray().endObject().newline();
  return W.take();
}

//===----------------------------------------------------------------------===//
// Heap-tree introspection
//===----------------------------------------------------------------------===//

namespace {
std::mutex HeapTreeMu;
std::function<void(HeapTree &)> HeapTreeProvider;
} // namespace

void setHeapTreeProvider(std::function<void(HeapTree &)> Provider) {
  std::lock_guard<std::mutex> G(HeapTreeMu);
  HeapTreeProvider = std::move(Provider);
}

bool readHeapTree(HeapTree &Out) {
  // The lock is held across the provider call so a Runtime being destroyed
  // (which uninstalls the provider) blocks until an in-flight read
  // finishes instead of racing it.
  std::lock_guard<std::mutex> G(HeapTreeMu);
  if (!HeapTreeProvider)
    return false;
  Out.TimeNs = nowNs();
  HeapTreeProvider(Out);
  return true;
}

void writeHeapTree(json::Writer &W, const HeapTree &T) {
  W.beginObject().kv("schema", "mpl-heap-tree/1");
  if (T.TimeNs >= 0)
    W.kv("t_ns", T.TimeNs)
        .kv("pressure_level", T.PressureLevel)
        .kv("pressure", T.Pressure);
  std::vector<std::vector<int>> Children(T.Heaps.size());
  for (const HeapRecord &H : T.Heaps)
    if (H.Parent >= 0)
      Children[static_cast<size_t>(H.Parent)].push_back(H.Id);
  W.kv("live_heaps", T.Heaps.size()).key("heaps").beginArray();
  for (const HeapRecord &H : T.Heaps) {
    W.beginObject()
        .kv("id", H.Id)
        .kv("parent", H.Parent)
        .kv("depth", H.Depth)
        .kv("chunk_bytes", H.ChunkBytes)
        .kv("pinned_objects", H.PinnedObjects)
        .kv("pinned_bytes", H.PinnedBytes)
        .kv("active_forks", H.ActiveForks)
        .key("children")
        .beginArray();
    for (int C : Children[static_cast<size_t>(H.Id)])
      W.value(C);
    W.endArray().endObject();
  }
  W.endArray().endObject();
}

std::string snapshotHeapTree() {
  HeapTree T;
  readHeapTree(T);
  json::Writer W;
  writeHeapTree(W, T);
  return W.take();
}

} // namespace obs
} // namespace mpl
