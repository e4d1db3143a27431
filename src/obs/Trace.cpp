//===- obs/Trace.cpp - Per-worker ring-buffer event tracer ----------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Exposition.h"
#include "obs/Metrics.h"
#include "obs/HeapTree.h"
#include "obs/Span.h"
#include "support/File.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include <sys/stat.h>

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
/// workload (`mpl_report trace` fails on it unless --allow-drops).
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

/// Opens a Chrome counter event up to its "args" key. Each numeric arg is
/// one counter track in Perfetto, named "<Name> <arg>".
json::Writer &beginCounter(json::Writer &W, const char *Name, double TsUs) {
  return W.newline()
      .beginObject()
      .kv("name", Name)
      .kv("ph", "C")
      .kv("pid", 0)
      .kv("tid", 0)
      .kv("ts", TsUs)
      .key("args");
}

/// A per-depth histogram as counter args "0".."Width-1", zero-padded so
/// every sample sets every track (a counter holds its last value).
void writeDepths(json::Writer &W, const char *Name, double TsUs,
                 const std::vector<int64_t> &Hist, size_t Width) {
  if (Width == 0)
    return;
  beginCounter(W, Name, TsUs).beginObject();
  for (size_t D = 0; D < Width; ++D)
    W.kv(std::to_string(D), D < Hist.size() ? Hist[D] : 0);
  W.endObject().endObject();
}

/// One MetricsSampler sample as counter events: the em cost counters and
/// the registry gauges under their registry names, the live-heap summary
/// and the per-depth heap and task histograms.
void writeSample(json::Writer &W, const MetricsSample &S, double TsUs,
                 size_t DepthWidth, size_t TaskWidth) {
  writeJson(beginCounter(W, "em", TsUs), S.Counters);
  W.endObject();
  writeJson(beginCounter(W, "gauges", TsUs), S.Gauges);
  W.endObject();
  beginCounter(W, "heaps", TsUs)
      .beginObject()
      .kv("live", S.LiveHeaps)
      .kv("max_depth", S.MaxHeapDepth)
      .endObject()
      .endObject();
  writeDepths(W, "depth_hist", TsUs, S.DepthHist, DepthWidth);
  writeDepths(W, "task_depth_hist", TsUs, S.TaskDepthHist, TaskWidth);
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceBuffer / Tracer
//===----------------------------------------------------------------------===//

Tracer &Tracer::get() {
  static Tracer Instance;
  return Instance;
}

void Tracer::enable() {
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
  auto B = std::make_unique<TraceBuffer>();
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
  // Everything outside the rings is read before Mu: a sample and a registry
  // snapshot both run the obs.trace.dropped gauge, which takes Mu, so the
  // order is always sampler, registry, then Mu. These reads run no gauge
  // callback themselves, so an exit-time flush reads nothing destroyed.
  std::vector<MetricsSample> Samples = MetricsSampler::get().series();
  auto Counters = StatRegistry::get().snapshotAll();
  std::vector<Histogram::Snapshot> Hists = StatRegistry::get().histograms();
  HeapTree Tree;
  readHeapTree(Tree);
  std::lock_guard<std::mutex> G(Mu);

  // Export timestamps relative to the earliest retained event or sample so
  // traces open centered in Perfetto regardless of process uptime, and no
  // ts is negative.
  int64_t Base = INT64_MAX;
  size_t DepthWidth = 0, TaskWidth = 0;
  for (const MetricsSample &S : Samples) {
    Base = std::min(Base, S.TimeNs);
    DepthWidth = std::max(DepthWidth, S.DepthHist.size());
    TaskWidth = std::max(TaskWidth, S.TaskDepthHist.size());
  }
  for (const auto &B : Buffers)
    for (uint64_t I = B->first(), E = B->head(); I != E; ++I)
      Base = std::min(Base, B->at(I).TimeNs);
  if (Base == INT64_MAX)
    Base = 0;
  auto TsUs = [Base](int64_t Ns) {
    return static_cast<double>(Ns - Base) / 1000.0;
  };

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
      writeEvent(W, KI, B->TrackId, TsUs(Rec.TimeNs), Rec);
    }
  }
  for (const MetricsSample &S : Samples)
    writeSample(W, S, TsUs(S.TimeNs), DepthWidth, TaskWidth);
  W.newline()
      .endArray()
      .key("otherData")
      .beginObject()
      .kv("dropped_events", std::to_string(Dropped));
  // Counters, histograms and the live heap tree at export time, so
  // post-mortem checkers (mpl_report trace) need no second
  // file. The registry folds retired Stats into snapshotAll(), so even the
  // final atexit flush — which runs after a net::Server's Impl (and its
  // net.* Stats) has been destroyed — still reports the full net.* family.
  writeJson(W.key("counters"), Counters);
  W.key("histograms").beginArray();
  for (const Histogram::Snapshot &H : Hists)
    writeJson(W.newline(), H);
  W.newline().endArray().key("heap_tree");
  writeHeapTree(W, Tree);
  W.endObject().endObject().newline();
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

constexpr const char *SinkFiles[] = {
    /* Trace       */ "trace.json",
    /* Spans       */ "spans.json",
    /* Stats       */ "stats.prom",
    /* OomHeapTree */ "oom-heap-tree.json",
};

/// The planes MPL_OBS armed; only these write files at a flush.
unsigned EnvPlanes = 0;

/// MPL_OBS_DIR, read once ("" when unset).
const std::string &obsDir() {
  static const std::string Dir = [] {
    const char *D = std::getenv("MPL_OBS_DIR");
    return std::string(D ? D : "");
  }();
  return Dir;
}

void flushAtExit() {
  MetricsSampler::get().stop();
  flushEnvSinks();
}

} // namespace

unsigned obs::armPlanes(std::string_view List) {
  constexpr std::pair<std::string_view, Plane> Names[] = {
      {"trace", PlaneTrace}, {"spans", PlaneSpans}};
  unsigned Planes = 0;
  for (size_t Pos = 0; Pos <= List.size();) {
    size_t End = std::min(List.find(',', Pos), List.size());
    std::string_view Name = List.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Name.empty())
      continue;
    auto It = std::find_if(std::begin(Names), std::end(Names),
                           [&](const auto &N) { return N.first == Name; });
    if (It == std::end(Names)) {
      std::fprintf(stderr,
                   "mpl: MPL_OBS: unknown plane '%.*s' (trace, spans); no "
                   "plane armed\n",
                   static_cast<int>(Name.size()), Name.data());
      return 0;
    }
    Planes |= It->second;
  }
  if (Planes & PlaneTrace) {
    Tracer::get().enable();
    MetricsSampler::get().start(/*IntervalUs=*/1000);
  }
  if (Planes & PlaneSpans)
    SpanLedger::get().enable();
  return Planes;
}

std::string obs::sinkPath(Sink S) {
  if (obsDir().empty())
    return "";
  return obsDir() + "/" + SinkFiles[static_cast<int>(S)];
}

void obs::initFromEnv() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    if (const char *List = std::getenv("MPL_OBS"))
      EnvPlanes = armPlanes(List);
    if (!obsDir().empty()) {
      // Create MPL_OBS_DIR if needed; a failure shows at the first write.
      ::mkdir(obsDir().c_str(), 0777);
      armStatsDump(sinkPath(Sink::Stats));
    }
    // The exit flush also stops a sampler thread that `trace` started.
    if (EnvPlanes || !obsDir().empty())
      std::atexit(flushAtExit);
  });
}

void obs::flushEnvSinks() {
  serviceStatsDump();
  if (obsDir().empty())
    return; // Armed planes without MPL_OBS_DIR write nothing.
  // The exit flush stops the sampler first, so a running sampler means a
  // live Runtime: sample once more while its gauges are registered, so a
  // run shorter than one interval still reaches the trace.
  if (MetricsSampler::get().running())
    MetricsSampler::get().sampleOnce();
  // A sink whose file cannot be written says so once on stderr.
  auto Write = [](Plane P, Sink S, auto Render) {
    std::string Path = sinkPath(S);
    if ((EnvPlanes & P) && !writeFile(Path, Render()))
      std::fprintf(stderr, "mpl: cannot write %s\n", Path.c_str());
  };
  Write(PlaneTrace, Sink::Trace,
        [] { return Tracer::get().chromeTraceJson(); });
  if (EnvPlanes & PlaneSpans)
    if (SpanRunSummary Sum = SpanLedger::get().lastRun();
        Sum.Valid || Sum.Tasks > 0)
      Write(PlaneSpans, Sink::Spans, [&] { return Sum.toJson(); });
}
