//===- mm/MemoryGovernor.cpp - Memory-pressure governor -------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mm/MemoryGovernor.h"

#include "mm/Chunk.h"
#include "obs/HeapTree.h"
#include "obs/Trace.h"
#include "support/EmCounters.h"
#include "support/File.h"
#include "support/Histogram.h"
#include "support/Stats.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

using namespace mpl;

namespace {
Stat PressureTransitions("mm.pressure.transitions");
Stat EmergencyGcs("mm.emergency.gcs");
Stat AllocRetries("mm.alloc.retries");
Stat OomRaised("mm.oom.raised");
Histogram AllocRetryNs("mm.alloc.retry.ns");

// The live introspection plane (stats frames, Prometheus exposition) reads
// memory pressure through these gauges: obs depends only on support, so
// the governor publishes them rather than obs reaching down. All three are
// relaxed loads. Static, like the Stats above, so they stay registered
// through the exit-time flush. (Live pinned bytes are em's
// em.live.pinned.bytes gauge.)
Gauge PressureGauge("mm.pressure", [] {
  return static_cast<int64_t>(MemoryGovernor::get().pressure());
});
Gauge OutstandingGauge("mm.outstanding.bytes",
                       [] { return ChunkPool::get().outstandingBytes(); });
Gauge LimitGauge("mm.limit.bytes",
                 [] { return MemoryGovernor::get().limitBytes(); });

thread_local int GcExemptDepth = 0;

std::string describeOom(size_t Requested, int64_t Outstanding, int64_t Limit,
                        int64_t Pinned) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "out of memory: %zu-byte chunk refused (outstanding=%lld, "
                "limit=%lld, live pinned=%lld bytes)",
                Requested, static_cast<long long>(Outstanding),
                static_cast<long long>(Limit), static_cast<long long>(Pinned));
  return Buf;
}
} // namespace

OutOfMemoryError::OutOfMemoryError(size_t RequestedBytes,
                                   int64_t OutstandingBytes, int64_t LimitBytes,
                                   int64_t PinnedBytes)
    : std::runtime_error(
          describeOom(RequestedBytes, OutstandingBytes, LimitBytes,
                      PinnedBytes)),
      Requested(RequestedBytes), Outstanding(OutstandingBytes),
      Limit(LimitBytes), Pinned(PinnedBytes) {}

const char *mpl::pressureName(Pressure P) {
  switch (P) {
  case Pressure::None:
    return "none";
  case Pressure::Soft:
    return "soft";
  case Pressure::Hard:
    return "hard";
  case Pressure::Critical:
    return "critical";
  }
  return "?";
}

MemoryGovernor &MemoryGovernor::get() {
  static MemoryGovernor Instance;
  return Instance;
}

void MemoryGovernor::configure(const Config &C) {
  {
    std::lock_guard<std::mutex> G(Mu);
    SoftFracValue = std::clamp(C.SoftFrac, 0.0, 1.0);
  }
  LimitBytes.store(std::max<int64_t>(0, C.LimitBytes),
                   std::memory_order_relaxed);
  SoftBytes.store(
      static_cast<int64_t>(static_cast<double>(std::max<int64_t>(
                               0, C.LimitBytes)) *
                           std::clamp(C.SoftFrac, 0.0, 1.0)),
      std::memory_order_relaxed);
  CacheBytes.store(std::max<int64_t>(0, C.ChunkCacheBytes),
                   std::memory_order_relaxed);
  MaxAttempts.store(std::max(1, C.MaxAllocAttempts), std::memory_order_relaxed);
  BackoffUs.store(std::max<int64_t>(0, C.RetryBackoffUs),
                  std::memory_order_relaxed);
  updatePressure();
}

MemoryGovernor::Config MemoryGovernor::config() const {
  Config C;
  C.LimitBytes = LimitBytes.load(std::memory_order_relaxed);
  C.ChunkCacheBytes = CacheBytes.load(std::memory_order_relaxed);
  C.MaxAllocAttempts = MaxAttempts.load(std::memory_order_relaxed);
  C.RetryBackoffUs = BackoffUs.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> G(Mu);
  C.SoftFrac = SoftFracValue;
  return C;
}

void MemoryGovernor::initFromEnv() {
  static std::once_flag Once;
  std::call_once(Once, [this] {
    Config C = config();
    bool Any = false;
    if (const char *S = std::getenv("MPL_MEM_LIMIT_MB"))
      if (long long Mb = std::atoll(S); Mb > 0) {
        C.LimitBytes = static_cast<int64_t>(Mb) << 20;
        Any = true;
      }
    if (const char *S = std::getenv("MPL_MEM_SOFT_FRAC"))
      if (double F = std::atof(S); F > 0.0 && F <= 1.0) {
        C.SoftFrac = F;
        Any = true;
      }
    if (const char *S = std::getenv("MPL_CHUNK_CACHE_MB"))
      if (long long Mb = std::atoll(S); Mb >= 0) {
        C.ChunkCacheBytes = static_cast<int64_t>(Mb) << 20;
        Any = true;
      }
    if (Any)
      configure(C);
  });
}

double MemoryGovernor::allocBudgetScale() const {
  switch (pressure()) {
  case Pressure::None:
    return 1.0;
  case Pressure::Soft:
    return 0.5;
  case Pressure::Hard:
    return 0.25;
  case Pressure::Critical:
    return 0.125;
  }
  return 1.0;
}

int64_t MemoryGovernor::pinnedBytes() const {
  return em::Counts.snapshot().livePinnedBytes();
}

int MemoryGovernor::registerEmergencyGc(std::function<bool()> Fn) {
  std::lock_guard<std::mutex> G(Mu);
  int Id = NextHookId++;
  GcHooks.push_back({Id, std::move(Fn)});
  return Id;
}

void MemoryGovernor::unregisterEmergencyGc(int Id) {
  std::lock_guard<std::mutex> G(Mu);
  for (size_t I = 0; I < GcHooks.size(); ++I)
    if (GcHooks[I].Id == Id) {
      GcHooks.erase(GcHooks.begin() + static_cast<ptrdiff_t>(I));
      return;
    }
}

MemoryGovernor::AdmissionDecision
MemoryGovernor::adviseAdmission(int64_t QueueDepth, int64_t QueueCap) {
  // Refresh the level first: admission is often the only caller between
  // allocations (an idle server under external memory movement would
  // otherwise judge on a stale level).
  updatePressure();
  AdmissionDecision D;
  D.Level = pressure();
  int64_t Allowed;
  switch (D.Level) {
  case Pressure::None:
    Allowed = QueueCap;
    break;
  case Pressure::Soft:
    Allowed = QueueCap / 2;
    break;
  case Pressure::Hard:
    Allowed = QueueCap / 4;
    break;
  case Pressure::Critical:
  default:
    Allowed = 0;
    break;
  }
  D.Admit = QueueDepth < Allowed;
  if (!D.Admit) {
    // Retry hints grow with severity: a full-but-unpressured queue clears
    // in milliseconds; Critical means an emergency collection has to win
    // back headroom first.
    static constexpr int64_t HintMs[] = {10, 50, 200, 1000};
    D.RetryAfterMs = HintMs[static_cast<size_t>(D.Level)];
  }
  return D;
}

void MemoryGovernor::setPressureFrom(int64_t WouldBeOutstanding) {
  int64_t Limit = LimitBytes.load(std::memory_order_relaxed);
  Pressure Want = Pressure::None;
  if (Limit > 0) {
    if (WouldBeOutstanding >= Limit)
      Want = Pressure::Hard;
    else if (WouldBeOutstanding >= SoftBytes.load(std::memory_order_relaxed))
      Want = Pressure::Soft;
  }
  uint8_t Cur = Level.load(std::memory_order_relaxed);
  // Critical is set only by the recovery ladder; it decays like any other
  // level once residency drops back below the watermarks.
  if (Cur == static_cast<uint8_t>(Pressure::Critical) &&
      Want == Pressure::Hard)
    return;
  if (Cur == static_cast<uint8_t>(Want))
    return;
  Level.store(static_cast<uint8_t>(Want), std::memory_order_relaxed);
  PressureTransitions.inc();
  obs::emit(obs::Ev::PressureChange, static_cast<uint64_t>(Want),
            static_cast<uint64_t>(std::max<int64_t>(0, WouldBeOutstanding)));
}

void MemoryGovernor::updatePressure() {
  setPressureFrom(ChunkPool::get().outstandingBytes());
}

bool MemoryGovernor::admitChunk(size_t Bytes) {
  int64_t Limit = LimitBytes.load(std::memory_order_relaxed);
  if (Limit <= 0)
    return true; // Unlimited: the common fast path, one load + branch.
  int64_t Would =
      ChunkPool::get().outstandingBytes() + static_cast<int64_t>(Bytes);
  setPressureFrom(Would);
  if (Would <= Limit)
    return true;
  // Collecting threads must be allowed to allocate to-space past the
  // limit: a copying collection frees at least as much as it copies, and
  // cannot unwind mid-evacuation.
  return gcExemptOnThisThread();
}

bool MemoryGovernor::runEmergencyGc() {
  std::vector<Hook> Hooks;
  {
    std::lock_guard<std::mutex> G(Mu);
    Hooks = GcHooks;
  }
  bool Ran = false;
  for (const Hook &H : Hooks) {
    int64_t Before = ChunkPool::get().outstandingBytes();
    if (H.Fn()) {
      Ran = true;
      EmergencyGcs.inc();
      obs::emit(obs::Ev::EmergencyGc,
                static_cast<uint64_t>(std::max<int64_t>(0, Before)),
                static_cast<uint64_t>(std::max<int64_t>(
                    0, ChunkPool::get().outstandingBytes())));
    }
  }
  return Ran;
}

bool MemoryGovernor::recoverStage(int Attempt, size_t Bytes) {
  if (Attempt + 1 >= MaxAttempts.load(std::memory_order_relaxed))
    return false;
  AllocRetries.inc();
  obs::emit(obs::Ev::AllocRetry, static_cast<uint64_t>(Attempt),
            static_cast<uint64_t>(Bytes));
  switch (Attempt) {
  case 0:
    // Stage 1: give every cached free chunk back to the OS.
    ChunkPool::get().trim(0);
    break;
  case 1:
    // Stage 2: force a local collection of the calling task's private
    // chain. Unreachable from a collecting thread (its pin locks are
    // held); trim again instead so the retry still has a chance.
    if (gcExemptOnThisThread() || !runEmergencyGc())
      ChunkPool::get().trim(0);
    break;
  default: {
    // Stage 3: bounded retry with exponential backoff, re-running the
    // earlier stages — a concurrent task may have released memory, and
    // transient faults (chaos::Fault::FailChunkAlloc) resolve on re-poll.
    int64_t Us = BackoffUs.load(std::memory_order_relaxed);
    if (Us > 0)
      std::this_thread::sleep_for(
          std::chrono::microseconds(Us << std::min(Attempt - 2, 10)));
    ChunkPool::get().trim(0);
    if (!gcExemptOnThisThread())
      runEmergencyGc();
    break;
  }
  }
  updatePressure();
  return true;
}

void MemoryGovernor::raiseOom(size_t Bytes) {
  uint8_t Prev = Level.exchange(static_cast<uint8_t>(Pressure::Critical),
                                std::memory_order_relaxed);
  if (Prev != static_cast<uint8_t>(Pressure::Critical)) {
    PressureTransitions.inc();
    obs::emit(obs::Ev::PressureChange,
              static_cast<uint64_t>(Pressure::Critical),
              static_cast<uint64_t>(
                  std::max<int64_t>(0, ChunkPool::get().outstandingBytes())));
  }
  OomRaised.inc();
  // Post-mortem introspection: dump the live heap tree before unwinding so
  // the operator can see *where* the bytes were pinned when the limit was
  // hit (MPL_OBS_DIR/oom-heap-tree.json; off without MPL_OBS_DIR because
  // the pressure tests raise OOM on purpose). ScopedGcExempt threads never
  // reach here, so no heap lock is held and the snapshot cannot deadlock.
  if (std::string Path = obs::sinkPath(obs::Sink::OomHeapTree); !Path.empty())
    if (!writeFile(Path, obs::snapshotHeapTree() + "\n"))
      std::fprintf(stderr, "mpl: cannot write %s\n", Path.c_str());
  throw OutOfMemoryError(Bytes, ChunkPool::get().outstandingBytes(),
                         LimitBytes.load(std::memory_order_relaxed),
                         pinnedBytes());
}

void MemoryGovernor::noteRetrySettled(int64_t StallNs) {
  AllocRetryNs.record(StallNs);
}

MemoryGovernor::ScopedGcExempt::ScopedGcExempt() { ++GcExemptDepth; }
MemoryGovernor::ScopedGcExempt::~ScopedGcExempt() { --GcExemptDepth; }

bool MemoryGovernor::gcExemptOnThisThread() { return GcExemptDepth > 0; }
