//===- core/Runtime.cpp - The mpl-em public runtime API -------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "chaos/ChaosSchedule.h"
#include "obs/HeapTree.h"
#include "obs/Trace.h"
#include "support/Stats.h"

#include <algorithm>
#include <unordered_map>

using namespace mpl;
using namespace mpl::rt;

namespace {
Runtime *TheRuntime = nullptr;
thread_local WorkerCtx *TlsCtx = nullptr;

Stat PeakResidency("rt.residency.peak");

/// Recovery stage 2 of the MemoryGovernor: force a local collection of the
/// allocating task's private chain.
bool emergencyGc() { return TheRuntime->maybeCollect(/*Force=*/true); }

/// The heap-tree walker behind obs::readHeapTree(). Reads only the
/// per-heap relaxed-atomic gauges plus immutable parent/depth links, so it
/// is safe to run from the MetricsSampler thread or the OOM path while
/// workers fork, join and collect (hh/Heap.h, gauge comment). Every field
/// is copied under the manager lock, so the run's end cannot free a heap
/// mid-read.
void fillHeapTree(obs::HeapTree &T, HeapManager &HM) {
  Pressure P = MemoryGovernor::get().pressure();
  T.PressureLevel = static_cast<int>(P);
  T.Pressure = mpl::pressureName(P);
  // A parent always precedes its children in the manager's list, so one
  // pass assigns every parent its id first.
  std::unordered_map<const Heap *, int> Id;
  HM.forEachHeap([&](Heap *H) {
    if (H->isDead())
      return;
    auto PIt = Id.find(H->parent());
    obs::HeapRecord R;
    R.Id = static_cast<int>(T.Heaps.size());
    R.Parent = PIt == Id.end() ? -1 : PIt->second;
    R.Depth = H->depth();
    R.ChunkBytes = H->ChunkBytesGauge.load(std::memory_order_relaxed);
    R.PinnedObjects = H->PinnedObjsGauge.load(std::memory_order_relaxed);
    R.PinnedBytes = H->PinnedBytesGauge.load(std::memory_order_relaxed);
    R.ActiveForks = H->activeForks();
    Id.emplace(H, R.Id);
    T.Heaps.push_back(R);
  });
}
} // namespace

Runtime::Runtime(const Config &C)
    : Cfg(C), Sched(Scheduler::Config{C.NumWorkers}),
      HeapsGauge("hh.heaps",
                 [this] { return static_cast<int64_t>(Heaps.heapCount()); }),
      FreeListGauge("mm.freelist.bytes",
                    [] { return ChunkPool::get().freeListBytes(); }) {
  MPL_CHECK(TheRuntime == nullptr, "only one Runtime may exist at a time");
  em::setMode(Cfg.Mode);
  TheRuntime = this;
  // Observability: honour MPL_OBS / MPL_OBS_DIR on the first Runtime.
  obs::initFromEnv();
  MemoryGovernor::get().initFromEnv();
  // The governor runs an emergency collection when trimming alone cannot
  // admit a chunk; mm cannot see core, so the collection is injected.
  MemoryGovernor::get().setEmergencyGc(&emergencyGc);
  // Heap-tree introspection: obs cannot see hh, so the walker is injected
  // here (the same inversion as the registry's gauges).
  obs::setHeapTreeProvider(
      [this](obs::HeapTree &T) { fillHeapTree(T, Heaps); });
}

Runtime::~Runtime() {
  MemoryGovernor::get().setEmergencyGc(nullptr);
  TheRuntime = nullptr;
  // Flush env-configured sinks now, at quiescence: the workers still exist
  // (Sched is destroyed after this body) but are idle outside run(), and
  // idle workers emit no trace events. The heap-tree provider is cleared
  // only after the flush so the final sample and the trace's heap tree
  // still read this Runtime; setHeapTreeProvider blocks until any
  // in-flight snapshot finishes.
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
  // Workers are quiescent between runs (no barriers, joins or collections
  // execute), so the run's heaps can be freed: a long-lived Runtime keeps
  // none of them past its run.
  Heaps.releaseAll();
  RootHeap = nullptr;
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
