//===- core/Runtime.cpp - The mpl-em public runtime API -------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "chaos/ChaosSchedule.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <algorithm>
#include <unordered_map>

using namespace mpl;
using namespace mpl::rt;

namespace {
Runtime *TheRuntime = nullptr;
thread_local WorkerCtx *TlsCtx = nullptr;

Stat PeakResidency("rt.residency.peak");

/// Gauge ids registered by the live Runtime (empty when none exists).
std::vector<int> RtGaugeIds;

/// Emergency-GC hook id registered with the MemoryGovernor (0 = none).
int GovGcHookId = 0;

/// The heap-tree walker behind obs::writeHeapTree(). Reads only the
/// per-heap relaxed-atomic gauges plus immutable parent/depth links, so it
/// is safe to run from the MetricsSampler thread or the OOM path while
/// workers fork, join and collect (hh/Heap.h, gauge comment).
void writeHeapTree(json::Writer &W, HeapManager &HM) {
  std::vector<Heap *> All = HM.snapshotHeaps();
  std::unordered_map<const Heap *, int> Id;
  std::vector<Heap *> Live;
  for (Heap *H : All) {
    if (H->isDead())
      continue;
    Id.emplace(H, static_cast<int>(Live.size()));
    Live.push_back(H);
  }
  std::vector<std::vector<int>> Children(Live.size());
  for (size_t I = 0; I < Live.size(); ++I) {
    auto It = Id.find(Live[I]->parent());
    if (It != Id.end())
      Children[It->second].push_back(static_cast<int>(I));
  }
  Pressure P = MemoryGovernor::get().pressure();
  W.beginObject()
      .kv("schema", "mpl-heap-tree/1")
      .kv("t_ns", nowNs())
      .kv("pressure_level", static_cast<int>(P))
      .kv("pressure", mpl::pressureName(P))
      .kv("live_heaps", Live.size())
      .key("heaps")
      .beginArray();
  for (size_t I = 0; I < Live.size(); ++I) {
    Heap *H = Live[I];
    auto PIt = Id.find(H->parent());
    W.beginObject()
        .kv("id", I)
        .kv("parent", PIt == Id.end() ? -1 : PIt->second)
        .kv("depth", H->depth())
        .kv("chunk_bytes",
            H->ChunkBytesGauge.load(std::memory_order_relaxed))
        .kv("pinned_objects",
            H->PinnedObjsGauge.load(std::memory_order_relaxed))
        .kv("pinned_bytes",
            H->PinnedBytesGauge.load(std::memory_order_relaxed))
        .kv("active_forks", H->activeForks())
        .key("children")
        .beginArray();
    for (int C : Children[I])
      W.value(C);
    W.endArray().endObject();
  }
  W.endArray().endObject();
}
} // namespace

Runtime::Runtime(const Config &C)
    : Cfg(C), Sched(Scheduler::Config{C.NumWorkers, C.Profile}) {
  MPL_CHECK(TheRuntime == nullptr, "only one Runtime may exist at a time");
  em::setMode(Cfg.Mode);
  TheRuntime = this;
  // Observability: honour MPL_TRACE / MPL_METRICS on the first Runtime and
  // expose the memory-side gauges to the sampler.
  obs::initFromEnv();
  MemoryGovernor::get().initFromEnv();
  auto &Sampler = obs::MetricsSampler::get();
  RtGaugeIds.push_back(Sampler.registerGauge(
      "hh.heaps", [this] { return static_cast<int64_t>(Heaps.heapCount()); }));
  RtGaugeIds.push_back(Sampler.registerGauge("mm.freelist.bytes", [] {
    return ChunkPool::get().freeListBytes();
  }));
  // Recovery stage 2: the governor forces a local collection of the
  // allocating task's private chain when trimming alone cannot admit a
  // chunk.
  GovGcHookId = MemoryGovernor::get().registerEmergencyGc(
      [this] { return maybeCollect(/*Force=*/true); });
  // Heap-tree introspection: obs cannot see hh, so the walker is injected
  // here (same inversion as the gauges above).
  obs::setHeapTreeProvider(
      [this](json::Writer &W) { writeHeapTree(W, Heaps); });
  // Deadline latching at strand-quantum boundaries: sched cannot see core,
  // so the poll is injected (same inversion again). Non-throwing by
  // contract — it only flips DeadlineCtx::Expired.
  Scheduler::setStrandPollHook(&rt::deadlinePollCurrent);
}

Runtime::~Runtime() {
  Scheduler::setStrandPollHook(nullptr);
  if (GovGcHookId) {
    MemoryGovernor::get().unregisterEmergencyGc(GovGcHookId);
    GovGcHookId = 0;
  }
  auto &Sampler = obs::MetricsSampler::get();
  for (int Id : RtGaugeIds)
    Sampler.unregisterGauge(Id);
  RtGaugeIds.clear();
  TheRuntime = nullptr;
  // Flush env-configured sinks now, at quiescence: the workers still exist
  // (Sched is destroyed after this body) but are idle outside run(), and
  // idle workers emit no trace events. The heap-tree provider is cleared
  // only after the flush so the metrics dump can embed a final snapshot;
  // setHeapTreeProvider blocks until any in-flight snapshot finishes.
  obs::flushEnvSinks();
  obs::setHeapTreeProvider({});
}

Runtime *Runtime::current() { return TheRuntime; }

WorkerCtx *Runtime::ctx() {
  if (!TlsCtx)
    TlsCtx = new WorkerCtx();
  return TlsCtx;
}

void Runtime::beginRun() {
  RootHeap = Heaps.createRoot();
  WorkerCtx *C = ctx();
  C->CurrentHeap = RootHeap;
  C->AllocSinceGc = 0;
  C->LiveAfterGc = 0;
}

void Runtime::finishRootTask() {
  // Runs as the tail of the root task, still on worker 0.
  WorkerCtx *C = ctx();
  C->CurrentHeap = nullptr;
}

void Runtime::endRun() {
  if (RootHeap) {
    RootHeap->releaseAllChunks();
    RootHeap = nullptr;
  }
  // Workers are quiescent between runs (no barriers, joins or collections
  // execute), so this is the race-free point to fold the per-worker
  // profiler shards into the merged table.
  if (obs::profileEnabled())
    obs::Profiler::get().mergeThreadShards();
}

bool Runtime::maybeCollect(bool Force) {
  WorkerCtx *C = ctx();
  if (!C->CurrentHeap)
    return false;
  // Schedule fuzzing: the seed can force a collection at any poll, up to
  // GC-at-every-allocation.
  if (chaos::forceGcNow())
    Force = true;
  int64_t Budget =
      std::max(Cfg.GcMinBytes,
               static_cast<int64_t>(Cfg.GcFactor *
                                    static_cast<double>(C->LiveAfterGc)));
  // Under memory pressure the governor shrinks every task's allocation
  // budget (halving per level), so collections come sooner and residency
  // is pushed back below the watermarks.
  Budget = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(Budget) *
                              MemoryGovernor::get().allocBudgetScale()));
  if (!Force && C->AllocSinceGc < Budget)
    return false;
  GcOutcome Out = Gc.collectChain(C->CurrentHeap, C->Roots);
  C->AllocSinceGc = 0;
  C->LiveAfterGc = Out.liveBytes();
  PeakResidency.noteMax(residencyBytes());
  return true;
}

int64_t Runtime::residencyBytes() {
  return ChunkPool::get().outstandingBytes();
}
