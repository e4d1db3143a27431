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

/// Pin lifetimes across every site, alongside gc.pause.hist.ns and
/// steal.latency.ns in the global histogram registry (so the metrics
/// exporters pick it up with no extra wiring).
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

/// TLS shard handle. The shard itself is owned by the Profiler (threads
/// come and go across Runtimes; shards persist so a quiescent merge sees
/// every recording that ever happened).
thread_local Profiler::Shard *Profiler::TlsShard = nullptr;

namespace {
void zeroCell(std::atomic<int64_t> &A) {
  A.store(0, std::memory_order_relaxed);
}
} // namespace

Profiler::Shard *Profiler::threadShard() {
  std::lock_guard<std::mutex> G(Mu);
  Shards.push_back(std::make_unique<Shard>());
  return Shards.back().get();
}

void Profiler::noteEvent(Site S, int64_t Bytes, uint32_t Depth,
                         int64_t DurNs) {
  if (!TlsShard)
    TlsShard = threadShard();
  SiteCell &C = TlsShard->Cells[static_cast<int>(S)];
  C.Events.fetch_add(1, std::memory_order_relaxed);
  C.Bytes.fetch_add(Bytes, std::memory_order_relaxed);
  int DB = std::min<uint32_t>(Depth, SiteSnap::DepthBuckets - 1);
  C.Depth[DB].fetch_add(1, std::memory_order_relaxed);
  if (DurNs >= 0) {
    int B = std::min(Histogram::bucketOf(DurNs), SiteSnap::DurBuckets - 1);
    C.Dur[B].fetch_add(1, std::memory_order_relaxed);
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
  if (!TlsShard)
    TlsShard = threadShard();
  SiteCell &C = TlsShard->Cells[static_cast<int>(R.S)];
  int B = std::min(Histogram::bucketOf(LifeNs), SiteSnap::DurBuckets - 1);
  C.Dur[B].fetch_add(1, std::memory_order_relaxed);
  C.DurCount.fetch_add(1, std::memory_order_relaxed);
  C.DurSumNs.fetch_add(LifeNs, std::memory_order_relaxed);
}

void Profiler::mergeShardsLocked() {
  auto Fold = [](std::atomic<int64_t> &Dst, std::atomic<int64_t> &Src) {
    int64_t V = Src.exchange(0, std::memory_order_relaxed);
    if (V)
      Dst.fetch_add(V, std::memory_order_relaxed);
  };
  for (auto &Sh : Shards) {
    for (int I = 0; I < NumSites; ++I) {
      SiteCell &Src = Sh->Cells[I];
      SiteCell &Dst = Merged.Cells[I];
      Fold(Dst.Events, Src.Events);
      Fold(Dst.Bytes, Src.Bytes);
      for (int D = 0; D < SiteSnap::DepthBuckets; ++D)
        Fold(Dst.Depth[D], Src.Depth[D]);
      for (int D = 0; D < SiteSnap::DurBuckets; ++D)
        Fold(Dst.Dur[D], Src.Dur[D]);
      Fold(Dst.DurCount, Src.DurCount);
      Fold(Dst.DurSumNs, Src.DurSumNs);
    }
  }
}

void Profiler::mergeThreadShards() {
  std::lock_guard<std::mutex> G(Mu);
  mergeShardsLocked();
}

void Profiler::reset() {
  std::lock_guard<std::mutex> G(Mu);
  auto Zero = [](Shard &Sh) {
    for (SiteCell &C : Sh.Cells) {
      zeroCell(C.Events);
      zeroCell(C.Bytes);
      for (auto &A : C.Depth)
        zeroCell(A);
      for (auto &A : C.Dur)
        zeroCell(A);
      zeroCell(C.DurCount);
      zeroCell(C.DurSumNs);
    }
  };
  for (auto &Sh : Shards)
    Zero(*Sh);
  Zero(Merged);
  for (PinBucket &B : PinTable) {
    std::lock_guard<std::mutex> BG(B.Mu);
    B.Live.clear();
  }
}

std::vector<SiteSnap> Profiler::snapshot() {
  std::lock_guard<std::mutex> G(Mu);
  mergeShardsLocked();
  std::vector<SiteSnap> Out;
  for (int I = 0; I < NumSites; ++I) {
    SiteCell &C = Merged.Cells[I];
    int64_t Events = C.Events.load(std::memory_order_relaxed);
    if (Events == 0)
      continue;
    SiteSnap S;
    S.Name = SiteNames[I];
    S.Events = Events;
    S.Bytes = C.Bytes.load(std::memory_order_relaxed);
    for (int D = 0; D < SiteSnap::DepthBuckets; ++D)
      S.Depth[D] = C.Depth[D].load(std::memory_order_relaxed);
    for (int D = 0; D < SiteSnap::DurBuckets; ++D)
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

int64_t SiteSnap::durQuantileNs(double Q) const {
  if (DurCount <= 0)
    return 0;
  double Target = Q * static_cast<double>(DurCount);
  int64_t Seen = 0;
  for (int B = 0; B < DurBuckets; ++B) {
    Seen += Dur[B];
    if (static_cast<double>(Seen) >= Target)
      return B == 0 ? 0 : (static_cast<int64_t>(1) << B) - 1;
  }
  return DurSumNs;
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

std::string Profiler::jsonDump() {
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
        .kv("p50", Row.durQuantileNs(0.50))
        .kv("p95", Row.durQuantileNs(0.95))
        .kv("p99", Row.durQuantileNs(0.99))
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
std::function<void(json::Writer &)> HeapTreeProvider;
} // namespace

void setHeapTreeProvider(std::function<void(json::Writer &)> Provider) {
  std::lock_guard<std::mutex> G(HeapTreeMu);
  HeapTreeProvider = std::move(Provider);
}

void writeHeapTree(json::Writer &W) {
  // The lock is held across the provider call so a Runtime being destroyed
  // (which uninstalls the provider) blocks until an in-flight snapshot
  // finishes instead of racing it.
  std::lock_guard<std::mutex> G(HeapTreeMu);
  if (HeapTreeProvider) {
    HeapTreeProvider(W);
    return;
  }
  W.beginObject()
      .kv("schema", "mpl-heap-tree/1")
      .kv("live_heaps", 0)
      .key("heaps")
      .beginArray()
      .endArray()
      .endObject();
}

std::string snapshotHeapTree() {
  json::Writer W;
  writeHeapTree(W);
  return W.take();
}

} // namespace obs
} // namespace mpl
