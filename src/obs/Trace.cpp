//===- obs/Trace.cpp - Per-worker ring-buffer event tracer ----------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Exposition.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Span.h"
#include "support/File.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

using namespace mpl;
using namespace mpl::obs;

namespace mpl {
namespace obs {
namespace detail {
std::atomic<uint32_t> TraceActiveFlag{0};
} // namespace detail
} // namespace obs
} // namespace mpl

namespace {

/// Thread-local buffer handle. The destructor retires (does not free) the
/// buffer so a flush after the thread joined still sees its events.
struct TlsSlot {
  TraceBuffer *B = nullptr;
  ~TlsSlot() {
    if (B)
      B->Retired.store(true, std::memory_order_release);
  }
};
thread_local TlsSlot Tls;
thread_local int TlsTrackId = -1;

/// Trace-ring overflow is a first-class health signal: a metrics series
/// with rising drops means the capture window was too small for the
/// workload (tools/trace_check fails on it unless --allow-drops).
Gauge TraceDropped("obs.trace.dropped", [] {
  return static_cast<int64_t>(Tracer::get().totalDropped());
});

/// Static description of each Ev: display name, Chrome phase ('i' instant,
/// 'B' begin, 'E' end), and names for the two payload args (null = omit).
struct KindInfo {
  const char *Name;
  char Phase;
  const char *Arg0;
  const char *Arg1;
  /// Flow-binding category for 's'/'f' phases (flows bind by (cat, name,
  /// id)); the span flows predate the field, hence the default.
  const char *Cat = "spans";
};

constexpr KindInfo Kinds[] = {
    /* Fork             */ {"fork", 'i', nullptr, nullptr},
    /* Steal            */ {"steal", 'i', "victim", nullptr},
    /* StrandBegin      */ {"strand", 'B', nullptr, nullptr},
    /* StrandEnd        */ {"strand", 'E', nullptr, nullptr},
    /* JoinWaitBegin    */ {"join_wait", 'B', nullptr, nullptr},
    /* JoinWaitEnd      */ {"join_wait", 'E', nullptr, nullptr},
    /* WriteBarrierSlow */ {"write_barrier_slow", 'i', nullptr, nullptr},
    /* ReadBarrierSlow  */ {"read_barrier_slow", 'i', nullptr, nullptr},
    /* Pin              */ {"pin", 'i', "bytes", "unpin_depth"},
    /* Unpin            */ {"unpin", 'i', "bytes", nullptr},
    /* HeapJoinBegin    */ {"heap_join", 'B', "child_depth", nullptr},
    /* HeapJoinEnd      */ {"heap_join", 'E', "unpinned", nullptr},
    /* GcBegin          */ {"gc", 'B', "chain_heaps", nullptr},
    /* GcEnd            */ {"gc", 'E', "copied_bytes", "reclaimed_bytes"},
    /* GcMarkBegin      */ {"gc_mark", 'B', nullptr, nullptr},
    /* GcMarkEnd        */ {"gc_mark", 'E', nullptr, nullptr},
    /* GcEvacBegin      */ {"gc_evac", 'B', nullptr, nullptr},
    /* GcEvacEnd        */ {"gc_evac", 'E', nullptr, nullptr},
    /* GcReclaimBegin   */ {"gc_reclaim", 'B', nullptr, nullptr},
    /* GcReclaimEnd     */ {"gc_reclaim", 'E', nullptr, nullptr},
    /* PressureChange   */ {"pressure_change", 'i', "level", "bytes"},
    /* EmergencyGc      */ {"emergency_gc", 'i', "before_bytes", "after_bytes"},
    /* AllocRetry       */ {"alloc_retry", 'i', "attempt", "bytes"},
    /* ContCapture      */ {"cont_capture", 'i', "bytes", "depth"},
    /* ContResume       */ {"cont_resume", 'i', "bytes", "depth"},
    /* FlowOut          */ {"task_flow", 's', nullptr, nullptr},
    /* FlowIn           */ {"task_flow", 'f', nullptr, nullptr},
    /* NetAccept        */ {"net.accept", 'i', "conn", nullptr},
    /* NetShed          */ {"net.shed", 'i', "req", "pressure"},
    /* NetDeadlineExpired */ {"net.deadline_expired", 'i', "req", "overrun_ns"},
    /* NetDrain         */ {"net.drain", 'i', "inflight", nullptr},
    /* NetFlowOut       */ {"net.request_flow", 's', nullptr, nullptr, "net"},
    /* NetFlowIn        */ {"net.request_flow", 'f', nullptr, nullptr, "net"},
    /* JitCompile       */ {"jit_compile", 'i', "fn", "code_bytes"},
};
static_assert(sizeof(Kinds) / sizeof(Kinds[0]) ==
                  static_cast<size_t>(Ev::NumKinds),
              "KindInfo table out of sync with Ev");

uint64_t roundUpPow2(uint64_t V) {
  if (V < 2)
    return 2;
  return std::bit_ceil(V);
}

void writeEvent(json::Writer &W, const KindInfo &KI, int Track, double TsUs,
                const TraceEvent &E) {
  W.newline()
      .beginObject()
      .kv("name", KI.Name)
      .kv("ph", std::string_view(&KI.Phase, 1))
      .kv("pid", 0)
      .kv("tid", Track)
      .kv("ts", TsUs);
  if (KI.Phase == 'i')
    W.kv("s", "t"); // Thread-scoped instant.
  if (KI.Phase == 's' || KI.Phase == 'f') {
    // Flow events bind by (cat, name, id); 'f' with bp:"e" attaches to the
    // enclosing slice at the receiving end.
    W.kv("cat", KI.Cat).kv("id", E.Arg0);
    if (KI.Phase == 'f')
      W.kv("bp", "e");
  } else if (KI.Arg0) {
    W.key("args").beginObject().kv(KI.Arg0, E.Arg0);
    if (KI.Arg1)
      W.kv(KI.Arg1, E.Arg1);
    W.endObject();
  }
  W.endObject();
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceBuffer / Tracer
//===----------------------------------------------------------------------===//

TraceBuffer::TraceBuffer(uint64_t CapacityPow2)
    : Mask(CapacityPow2 - 1), Slots(new TraceEvent[CapacityPow2]) {}

Tracer &Tracer::get() {
  static Tracer Instance;
  return Instance;
}

void Tracer::enable(const TraceOptions &O) {
  {
    std::lock_guard<std::mutex> G(Mu);
    Opts = O;
    Opts.Capacity = roundUpPow2(O.Capacity);
    BaseTimeNs = nowNs();
    // Buffers of still-live threads persist across enable() calls; bring
    // them to the new capacity (producers are quiescent by contract).
    for (auto &B : Buffers)
      if (B->capacity() != Opts.Capacity)
        B->resize(Opts.Capacity);
  }
  detail::TraceActiveFlag.store(1, std::memory_order_release);
}

void Tracer::disable() {
  detail::TraceActiveFlag.store(0, std::memory_order_release);
}

bool Tracer::enabled() const {
  return detail::TraceActiveFlag.load(std::memory_order_acquire) != 0;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> G(Mu);
  Buffers.erase(std::remove_if(Buffers.begin(), Buffers.end(),
                               [](const std::unique_ptr<TraceBuffer> &B) {
                                 return B->Retired.load(
                                     std::memory_order_acquire);
                               }),
                Buffers.end());
  for (auto &B : Buffers)
    B->reset();
}

uint64_t Tracer::totalEvents() const {
  std::lock_guard<std::mutex> G(Mu);
  uint64_t N = 0;
  for (const auto &B : Buffers)
    N += B->size();
  return N;
}

uint64_t Tracer::totalDropped() const {
  std::lock_guard<std::mutex> G(Mu);
  uint64_t N = 0;
  for (const auto &B : Buffers)
    N += B->dropped();
  return N;
}

void Tracer::forEachBuffer(
    const std::function<void(const TraceBuffer &)> &Fn) const {
  std::lock_guard<std::mutex> G(Mu);
  for (const auto &B : Buffers)
    Fn(*B);
}

TraceBuffer *Tracer::threadBuffer() {
  if (Tls.B)
    return Tls.B;
  std::lock_guard<std::mutex> G(Mu);
  auto B = std::make_unique<TraceBuffer>(Opts.Capacity);
  B->TrackId = TlsTrackId >= 0 ? TlsTrackId : NextForeignTrack++;
  Tls.B = B.get();
  Buffers.push_back(std::move(B));
  return Tls.B;
}

void Tracer::labelThread(int TrackId) {
  TlsTrackId = TrackId;
  if (Tls.B)
    Tls.B->TrackId = TrackId;
}

std::string Tracer::chromeTraceJson() const {
  // The registry is read before Mu: a registry snapshot runs the
  // obs.trace.dropped gauge, which takes Mu, so the order is always
  // registry lock, then Mu.
  auto Counters = StatRegistry::get().snapshotAll();
  std::lock_guard<std::mutex> G(Mu);

  // Export timestamps relative to the earliest retained event so traces
  // open centered in Perfetto regardless of process uptime.
  int64_t Base = INT64_MAX;
  for (const auto &B : Buffers)
    for (uint64_t I = B->first(), E = B->head(); I != E; ++I)
      Base = std::min(Base, B->at(I).TimeNs);
  if (Base == INT64_MAX)
    Base = 0;

  json::Writer W;
  W.beginObject()
      .kv("displayTimeUnit", "ms")
      .key("traceEvents")
      .beginArray();
  uint64_t Dropped = 0;
  for (const auto &B : Buffers) {
    Dropped += B->dropped();
    // Track metadata: name the per-worker rows.
    const char *Label = B->TrackId < 1000 ? "worker" : "thread";
    W.newline()
        .beginObject()
        .kv("name", "thread_name")
        .kv("ph", "M")
        .kv("pid", 0)
        .kv("tid", B->TrackId)
        .key("args")
        .beginObject()
        .kv("name", std::string(Label) + " " + std::to_string(B->TrackId))
        .endObject()
        .endObject();

    // Ring wrap can orphan an 'E' whose 'B' was overwritten; skip
    // unmatched ends so the stream stays well-nested for the viewer.
    int Depth = 0;
    for (uint64_t I = B->first(), E = B->head(); I != E; ++I) {
      const TraceEvent &Rec = B->at(I);
      if (Rec.Kind >= static_cast<uint16_t>(Ev::NumKinds))
        continue; // Corrupt kind: never emitted by hooks; be defensive.
      const KindInfo &KI = Kinds[Rec.Kind];
      if (KI.Phase == 'B')
        ++Depth;
      else if (KI.Phase == 'E' && --Depth < 0) {
        Depth = 0;
        continue;
      }
      double TsUs = static_cast<double>(Rec.TimeNs - Base) / 1000.0;
      writeEvent(W, KI, B->TrackId, TsUs, Rec);
    }
  }
  W.newline()
      .endArray()
      .key("otherData")
      .beginObject()
      .kv("dropped_events", std::to_string(Dropped));
  // A counters block so post-mortem checkers (trace_check
  // --check-net-balance) can assert cross-counter invariants without a
  // separate metrics file. The registry folds retired Stats into
  // snapshotAll(), so even the final atexit flush — which runs after a
  // net::Server's Impl (and its net.* Stats) has been destroyed — still
  // reports the full net.* family.
  W.key("counters").beginObject();
  for (const auto &[Name, V] : Counters)
    W.kv(Name, V);
  W.endObject().endObject().endObject().newline();
  return W.take();
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  return writeFile(Path, chromeTraceJson());
}

//===----------------------------------------------------------------------===//
// Free functions: emit slow path, thread labeling, env gating
//===----------------------------------------------------------------------===//

void detail::emitSlow(Ev K, uint64_t A0, uint64_t A1) {
  TraceBuffer *B = Tls.B;
  if (!B)
    B = Tracer::get().threadBuffer();
  B->emit(K, nowNs(), A0, A1);
}

void obs::labelCurrentThread(int Id) {
  Tracer::get().labelThread(Id);
  SpanLedger::get().labelThread(Id);
}

namespace {
void flushAtExit() {
  MetricsSampler::get().stop();
  flushEnvSinks();
}
} // namespace

void obs::initFromEnv() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    bool AnySink = false;
    if (const char *Path = std::getenv("MPL_TRACE")) {
      TraceOptions O;
      O.Path = Path;
      if (const char *Cap = std::getenv("MPL_TRACE_CAPACITY"))
        if (long long V = std::atoll(Cap); V > 0)
          O.Capacity = static_cast<uint64_t>(V);
      Tracer::get().enable(O);
      AnySink = true;
    }
    if (const char *Path = std::getenv("MPL_METRICS")) {
      int64_t IntervalUs = 1000;
      if (const char *I = std::getenv("MPL_METRICS_INTERVAL_US"))
        if (long long V = std::atoll(I); V > 0)
          IntervalUs = V;
      MetricsSampler::get().start(IntervalUs, Path);
      AnySink = true;
    }
    // MPL_PROFILE: "0"/unset = off, "1" = armed (query via the Profiler
    // API), anything else = armed + merged profile JSON flushed to that
    // path at exit / Runtime destruction.
    if (const char *P = std::getenv("MPL_PROFILE")) {
      if (std::strcmp(P, "0") != 0) {
        Profiler::get().enable();
        if (std::strcmp(P, "1") != 0) {
          Profiler::get().setConfiguredPath(P);
          AnySink = true;
        }
      }
    }
    // MPL_SPANS mirrors MPL_PROFILE: "0"/unset = off, "1" = armed (query
    // via SpanLedger / tools), anything else = armed + the last run's
    // mpl-spans/1 JSON flushed to that path.
    if (const char *P = std::getenv("MPL_SPANS")) {
      if (std::strcmp(P, "0") != 0) {
        SpanLedger::get().enable();
        if (std::strcmp(P, "1") != 0) {
          SpanLedger::get().setConfiguredPath(P);
          AnySink = true;
        }
      }
    }
    // MPL_STATS_DUMP=<path>: arm the SIGUSR1-triggered Prometheus dump.
    // Not a quiescence sink — the file is written whenever a periodic
    // thread services the request — but a final service at exit catches a
    // signal that landed after the last tick.
    if (const char *Path = std::getenv("MPL_STATS_DUMP")) {
      armStatsDump(Path);
      AnySink = true;
    }
    if (AnySink)
      std::atexit(flushAtExit);
  });
}

void obs::flushEnvSinks() {
  serviceStatsDump();
  // A sink whose file cannot be written says so once on stderr.
  auto Check = [](const std::string &Path, bool Ok) {
    if (!Ok)
      std::fprintf(stderr, "mpl: cannot write %s\n", Path.c_str());
  };
  Tracer &T = Tracer::get();
  if (T.enabled() && !T.configuredPath().empty())
    Check(T.configuredPath(), T.writeChromeTrace(T.configuredPath()));
  MetricsSampler &M = MetricsSampler::get();
  if (!M.configuredPath().empty())
    Check(M.configuredPath(), M.writeJson(M.configuredPath()));
  Profiler &P = Profiler::get();
  if (!P.configuredPath().empty())
    Check(P.configuredPath(), writeFile(P.configuredPath(), P.jsonDump()));
  SpanLedger &S = SpanLedger::get();
  if (std::string SpanPath = S.configuredPath(); !SpanPath.empty()) {
    SpanRunSummary Sum = S.lastRun();
    if (Sum.Valid || Sum.Tasks > 0)
      Check(SpanPath, writeFile(SpanPath, Sum.toJson()));
  }
}
