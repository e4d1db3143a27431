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
#include <cstring>

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

static std::string defaultSiteName(const char *File, int Line) {
  const char *Base = File;
  for (const char *P = File; *P; ++P)
    if (*P == '/' || *P == '\\')
      Base = P + 1;
  return std::string(Base) + ":" + std::to_string(Line);
}

ProfileSite::ProfileSite(const char *File, int Line, const char *Name)
    : NameStr(Name ? std::string(Name) : defaultSiteName(File, Line)),
      File(File), Line(Line), Index(Profiler::get().registerSite(this)) {}

Profiler &Profiler::get() {
  static Profiler P;
  return P;
}

int Profiler::registerSite(ProfileSite *S) {
  std::lock_guard<std::mutex> G(Mu);
  if (Sites.size() >= static_cast<size_t>(MaxSites)) {
    SitesDropped.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Sites.push_back(S);
  return static_cast<int>(Sites.size()) - 1;
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

Profiler::CellTable::~CellTable() {
  for (auto &B : Blocks)
    delete[] B.load(std::memory_order_relaxed);
}

Profiler::SiteCell *Profiler::CellTable::cell(int Idx) {
  std::atomic<SiteCell *> &Slot = Blocks[Idx / BlockSites];
  SiteCell *Blk = Slot.load(std::memory_order_acquire);
  if (!Blk) {
    SiteCell *Fresh = new SiteCell[BlockSites];
    if (Slot.compare_exchange_strong(Blk, Fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      Blk = Fresh;
    else
      delete[] Fresh; // Lost the race; another thread published first.
  }
  return &Blk[Idx % BlockSites];
}

Profiler::SiteCell *Profiler::CellTable::peek(int Idx) const {
  SiteCell *Blk = Blocks[Idx / BlockSites].load(std::memory_order_acquire);
  return Blk ? &Blk[Idx % BlockSites] : nullptr;
}

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

void Profiler::noteEvent(ProfileSite &S, int64_t Bytes, uint32_t Depth,
                         int64_t DurNs) {
  int Idx = S.index();
  if (Idx < 0)
    return;
  if (!TlsShard)
    TlsShard = threadShard();
  SiteCell &C = *TlsShard->Cells.cell(Idx);
  C.Events.fetch_add(1, std::memory_order_relaxed);
  C.Bytes.fetch_add(Bytes, std::memory_order_relaxed);
  int DB = std::min<uint32_t>(Depth, ProfileSiteSnap::DepthBuckets - 1);
  C.Depth[DB].fetch_add(1, std::memory_order_relaxed);
  if (DurNs >= 0) {
    int B = std::min(Histogram::bucketOf(DurNs),
                     ProfileSiteSnap::DurBuckets - 1);
    C.Dur[B].fetch_add(1, std::memory_order_relaxed);
    C.DurCount.fetch_add(1, std::memory_order_relaxed);
    C.DurSumNs.fetch_add(DurNs, std::memory_order_relaxed);
  }
}

void Profiler::notePin(ProfileSite *S, const void *Obj, int64_t Bytes,
                       uint32_t Depth) {
  if (!S)
    S = &MPL_SITE("hh.pin");
  noteEvent(*S, Bytes, Depth);
  PinBucket &B = bucketOf(Obj);
  std::lock_guard<std::mutex> G(B.Mu);
  B.Live[Obj] = PinRec{static_cast<int32_t>(S->index()), nowNs(), Bytes};
}

void Profiler::noteUnpin(const void *Obj, int64_t Bytes, uint32_t Depth) {
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
  if (R.SiteIdx < 0)
    return;
  if (!TlsShard)
    TlsShard = threadShard();
  SiteCell &C = *TlsShard->Cells.cell(R.SiteIdx);
  int B = std::min(Histogram::bucketOf(LifeNs), ProfileSiteSnap::DurBuckets - 1);
  C.Dur[B].fetch_add(1, std::memory_order_relaxed);
  C.DurCount.fetch_add(1, std::memory_order_relaxed);
  C.DurSumNs.fetch_add(LifeNs, std::memory_order_relaxed);
  (void)Bytes;
  (void)Depth;
}

void Profiler::mergeShardsLocked() {
  auto Fold = [](std::atomic<int64_t> &Dst, std::atomic<int64_t> &Src) {
    int64_t V = Src.exchange(0, std::memory_order_relaxed);
    if (V)
      Dst.fetch_add(V, std::memory_order_relaxed);
  };
  // Only blocks the shard actually touched exist; merging one allocates
  // the matching block in the merged table on demand.
  for (auto &Sh : Shards) {
    for (int B = 0; B < MaxBlocks; ++B) {
      SiteCell *SrcBlk = Sh->Cells.Blocks[B].load(std::memory_order_acquire);
      if (!SrcBlk)
        continue;
      for (int I = 0; I < BlockSites; ++I) {
        SiteCell &Src = SrcBlk[I];
        SiteCell &Dst = *Merged.cell(B * BlockSites + I);
        Fold(Dst.Events, Src.Events);
        Fold(Dst.Bytes, Src.Bytes);
        for (int D = 0; D < ProfileSiteSnap::DepthBuckets; ++D)
          Fold(Dst.Depth[D], Src.Depth[D]);
        for (int D = 0; D < ProfileSiteSnap::DurBuckets; ++D)
          Fold(Dst.Dur[D], Src.Dur[D]);
        Fold(Dst.DurCount, Src.DurCount);
        Fold(Dst.DurSumNs, Src.DurSumNs);
      }
    }
  }
}

void Profiler::mergeThreadShards() {
  std::lock_guard<std::mutex> G(Mu);
  mergeShardsLocked();
}

void Profiler::reset() {
  std::lock_guard<std::mutex> G(Mu);
  auto ZeroTable = [](CellTable &T) {
    for (int B = 0; B < MaxBlocks; ++B) {
      SiteCell *Blk = T.Blocks[B].load(std::memory_order_acquire);
      if (!Blk)
        continue;
      for (int I = 0; I < BlockSites; ++I) {
        SiteCell &C = Blk[I];
        zeroCell(C.Events);
        zeroCell(C.Bytes);
        for (auto &A : C.Depth)
          zeroCell(A);
        for (auto &A : C.Dur)
          zeroCell(A);
        zeroCell(C.DurCount);
        zeroCell(C.DurSumNs);
      }
    }
  };
  for (auto &Sh : Shards)
    ZeroTable(Sh->Cells);
  ZeroTable(Merged);
  for (PinBucket &B : PinTable) {
    std::lock_guard<std::mutex> BG(B.Mu);
    B.Live.clear();
  }
}

std::vector<ProfileSiteSnap> Profiler::snapshot() {
  std::lock_guard<std::mutex> G(Mu);
  mergeShardsLocked();
  std::vector<ProfileSiteSnap> Out;
  for (size_t I = 0; I < Sites.size(); ++I) {
    SiteCell *Cp = Merged.peek(static_cast<int>(I));
    if (!Cp)
      continue; // Block never touched: no recordings for this site range.
    SiteCell &C = *Cp;
    int64_t Events = C.Events.load(std::memory_order_relaxed);
    if (Events == 0)
      continue;
    ProfileSiteSnap S;
    S.Name = Sites[I]->name();
    S.File = Sites[I]->file();
    S.Line = Sites[I]->line();
    S.Events = Events;
    S.Bytes = C.Bytes.load(std::memory_order_relaxed);
    for (int D = 0; D < ProfileSiteSnap::DepthBuckets; ++D)
      S.Depth[D] = C.Depth[D].load(std::memory_order_relaxed);
    for (int D = 0; D < ProfileSiteSnap::DurBuckets; ++D)
      S.Dur[D] = C.Dur[D].load(std::memory_order_relaxed);
    S.DurCount = C.DurCount.load(std::memory_order_relaxed);
    S.DurSumNs = C.DurSumNs.load(std::memory_order_relaxed);
    Out.push_back(std::move(S));
  }
  std::sort(Out.begin(), Out.end(),
            [](const ProfileSiteSnap &A, const ProfileSiteSnap &B) {
              if (A.Bytes != B.Bytes)
                return A.Bytes > B.Bytes;
              if (A.Events != B.Events)
                return A.Events > B.Events;
              return A.Name < B.Name;
            });
  return Out;
}

int64_t ProfileSiteSnap::durQuantileNs(double Q) const {
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

int Profiler::siteCount() const {
  std::lock_guard<std::mutex> G(Mu);
  return static_cast<int>(Sites.size());
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
  std::vector<ProfileSiteSnap> Snap = snapshot();
  json::Writer W;
  W.beginObject()
      .kv("schema", "mpl-profile/1")
      .kv("enabled", enabled())
      .kv("leaked_pins", livePinCount())
      .kv("leaked_bytes", livePinBytes())
      .kv("sites_dropped", sitesDropped())
      .key("sites")
      .beginArray();
  for (const ProfileSiteSnap &Row : Snap) {
    W.beginObject()
        .kv("name", Row.Name)
        .kv("file", Row.File)
        .kv("line", Row.Line)
        .kv("events", Row.Events)
        .kv("bytes", Row.Bytes)
        .key("depth_events")
        .beginObject();
    for (int D = 0; D < ProfileSiteSnap::DepthBuckets; ++D)
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
