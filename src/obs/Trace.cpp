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
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <unordered_map>

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
    /* NetAccept        */ {"net.accept", 'i', "conn", nullptr},
    /* NetShed          */ {"net.shed", 'i', "req", "pressure"},
    /* NetDeadlineExpired */ {"net.deadline_expired", 'i', "req", "overrun_ns"},
    /* NetDrain         */ {"net.drain", 'i', "inflight", nullptr},
    /* NetFlowOut       */ {"net.request_flow", 's', nullptr, nullptr},
    /* NetFlowIn        */ {"net.request_flow", 'f', nullptr, nullptr},
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
    // enclosing slice at the receiving end. The ring's only flows are the
    // server's requests (task flows come from the span ledger).
    W.kv("cat", "net").kv("id", E.Arg0);
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

/// One MetricsSampler sample as counter events: the em cost counters and
/// the registry gauges under their registry names, the live-heap summary
/// and the live heaps per depth as args "0".."DepthWidth-1", zero-padded
/// so every sample sets every track (a counter holds its last value).
void writeSample(json::Writer &W, const MetricsSample &S, double TsUs,
                 size_t DepthWidth) {
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
  if (DepthWidth == 0)
    return;
  beginCounter(W, "depth_hist", TsUs).beginObject();
  for (size_t D = 0; D < DepthWidth; ++D)
    W.kv(std::to_string(D), D < S.DepthHist.size() ? S.DepthHist[D] : 0);
  W.endObject().endObject();
}

/// The span ledger's last run on the trace's timeline: one complete slice
/// per task on the track of the worker that ran it, carrying the task's
/// record, then a task_flow edge from the parent's track to each child's
/// start ('f' with bp:"e" binds to the child's slice).
template <typename TsFn>
void writeTasks(json::Writer &W, const SpanRunSummary &S, TsFn TsUs) {
  std::unordered_map<uint64_t, int> WorkerOf;
  for (const SpanTaskOut &T : S.AllTasks) {
    WorkerOf.emplace(T.Id, T.Worker);
    bool Root = T.Parent == ~uint64_t(0);
    W.newline()
        .beginObject()
        .kv("name", "task")
        .kv("ph", "X")
        .kv("pid", 0)
        .kv("tid", T.Worker)
        .kv("ts", TsUs(T.StartNs))
        .kv("dur", static_cast<double>(T.StopNs - T.StartNs) / 1000.0)
        .key("args")
        .beginObject()
        .kv("id", T.Id)
        .kv("parent", Root ? int64_t(-1) : static_cast<int64_t>(T.Parent))
        .kv("self_ns", T.SelfNs)
        .kv("line", T.SrcLine)
        .kv("col", T.SrcCol)
        .kv("depth", T.HeapDepth)
        .kv("em_reads", T.EmReads)
        .kv("pins", T.Pins)
        .kv("on_cp", T.OnCriticalPath ? 1 : 0)
        .endObject()
        .endObject();
  }
  for (const SpanTaskOut &T : S.AllTasks) {
    auto Parent = WorkerOf.find(T.Parent);
    if (Parent == WorkerOf.end())
      continue;
    for (bool In : {false, true}) {
      W.newline()
          .beginObject()
          .kv("name", "task_flow")
          .kv("ph", In ? "f" : "s")
          .kv("pid", 0)
          .kv("tid", In ? T.Worker : Parent->second)
          .kv("ts", TsUs(T.StartNs))
          .kv("cat", "spans")
          .kv("id", T.Id);
      if (In)
        W.kv("bp", "e");
      W.endObject();
    }
  }
}

/// otherData.spans: what a task slice cannot carry, namely the scheduler's
/// W and S, the DAG's validity and drops, and the em reads and pins each
/// pml line's instructions caused.
void writeSpanData(json::Writer &W, const SpanRunSummary &S) {
  W.key("spans")
      .beginObject()
      .kv("work_s", S.SchedWorkSec)
      .kv("span_s", S.SchedSpanSec)
      .kv("valid", S.Valid ? 1 : 0)
      .kv("dropped", S.Dropped)
      .key("lines")
      .beginArray();
  for (const auto &[Loc, L] : S.Lines)
    if (L.EmReads != 0 || L.Pins != 0)
      W.newline()
          .beginObject()
          .kv("line", Loc >> 8)
          .kv("col", Loc & 0xff)
          .kv("em_reads", L.EmReads)
          .kv("pins", L.Pins)
          .endObject();
  W.endArray().endObject();
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
  // A thread that is no worker (a server connection, say) takes over the
  // ring of one that exited, events and track included: a long-lived
  // server then holds as many rings as it ever had such threads at once,
  // not one per connection it ever served. A live owner may still relabel
  // its ring, so TrackId is read only once Retired is seen.
  if (TlsTrackId < 0)
    for (auto &B : Buffers)
      if (B->Retired.load(std::memory_order_acquire) && B->TrackId >= 1000) {
        B->Retired.store(false, std::memory_order_relaxed);
        return Tls.B = B.get();
      }
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
  bool WithSpans = spansEnabled();
  SpanRunSummary Spans;
  if (WithSpans)
    Spans = SpanLedger::get().lastRun();
  std::lock_guard<std::mutex> G(Mu);

  // Export timestamps relative to the earliest retained event, sample or
  // task so traces open centered in Perfetto regardless of process uptime,
  // and no ts is negative.
  int64_t Base = INT64_MAX;
  size_t DepthWidth = 0;
  for (const MetricsSample &S : Samples) {
    Base = std::min(Base, S.TimeNs);
    DepthWidth = std::max(DepthWidth, S.DepthHist.size());
  }
  for (const auto &B : Buffers)
    for (uint64_t I = B->first(), E = B->head(); I != E; ++I)
      Base = std::min(Base, B->at(I).TimeNs);
  for (const SpanTaskOut &T : Spans.AllTasks)
    Base = std::min(Base, T.StartNs);
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
  // Track metadata: name every track, including workers that ran tasks
  // but emitted no event (spans armed without trace).
  std::set<int> Tracks;
  for (const auto &B : Buffers)
    Tracks.insert(B->TrackId);
  for (const SpanTaskOut &T : Spans.AllTasks)
    Tracks.insert(T.Worker);
  for (int Tid : Tracks)
    W.newline()
        .beginObject()
        .kv("name", "thread_name")
        .kv("ph", "M")
        .kv("pid", 0)
        .kv("tid", Tid)
        .key("args")
        .beginObject()
        .kv("name", (Tid < 1000 ? "worker " : "thread ") + std::to_string(Tid))
        .endObject()
        .endObject();
  uint64_t Dropped = 0;
  for (const auto &B : Buffers) {
    Dropped += B->dropped();
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
  writeTasks(W, Spans, TsUs);
  for (const MetricsSample &S : Samples)
    writeSample(W, S, TsUs(S.TimeNs), DepthWidth);
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
  if (WithSpans)
    writeSpanData(W, Spans);
  W.endObject().endObject().newline();
  return W.take();
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  return writeFile(Path, chromeTraceJson());
}

bool obs::readSpanTrace(const std::string &Text, SpanRunSummary &Out,
                        std::string &Err) {
  json::Value Doc;
  if (!json::parse(Text, Doc, Err)) {
    Err = "parse error: " + Err;
    return false;
  }
  const json::Value *Evs = Doc.field("traceEvents");
  const json::Value *Other = Doc.field("otherData");
  const json::Value *Spans = Other ? Other->field("spans") : nullptr;
  if (!Evs || !Evs->isArray()) {
    Err = "no traceEvents array (not a trace)";
    return false;
  }
  if (!Spans || !Spans->isObject()) {
    Err = "no otherData.spans (record the run with MPL_OBS=spans)";
    return false;
  }
  // A field that is absent or not of its type reads as Default.
  auto Num = [](const json::Value *V, const char *Name, double Default = 0) {
    const json::Value *F = V ? V->field(Name) : nullptr;
    return F && F->isNumber() ? F->NumV : Default;
  };
  auto Int = [&](const json::Value *V, const char *Name) {
    return static_cast<int64_t>(Num(V, Name));
  };
  auto Str = [](const json::Value &V, const char *Name) {
    const json::Value *F = V.field(Name);
    return F && F->isString() ? F->StrV : std::string();
  };
  Out = SpanRunSummary{};
  Out.Valid = Int(Spans, "valid") != 0;
  Out.Dropped = Int(Spans, "dropped");
  Out.SchedWorkSec = Num(Spans, "work_s");
  Out.SchedSpanSec = Num(Spans, "span_s");
  if (const json::Value *Lines = Spans->field("lines");
      Lines && Lines->isArray())
    for (const json::Value &L : Lines->Items) {
      SpanLineStat S;
      S.EmReads = Int(&L, "em_reads");
      S.Pins = Int(&L, "pins");
      Out.Lines.emplace_back(
          spanPackLoc(static_cast<uint32_t>(Int(&L, "line")),
                      static_cast<uint32_t>(Int(&L, "col"))),
          S);
    }
  for (const json::Value &E : Evs->Items) {
    if (Str(E, "ph") != "X" || Str(E, "name") != "task")
      continue;
    std::string Where = "task slice " + std::to_string(Out.AllTasks.size());
    const json::Value *Args = E.field("args");
    const json::Value *Id = Args ? Args->field("id") : nullptr;
    if (!Id || !Id->isNumber()) {
      Err = Where + ": no numeric id";
      return false;
    }
    double Dur = Num(&E, "dur", -1);
    if (Dur < 0) {
      Err = Where + ": no numeric dur >= 0";
      return false;
    }
    SpanTaskOut T;
    T.Id = static_cast<uint64_t>(Id->NumV);
    int64_t Parent = static_cast<int64_t>(Num(Args, "parent", -1));
    T.Parent = Parent < 0 ? ~uint64_t(0) : static_cast<uint64_t>(Parent);
    T.StartNs = std::llround(Num(&E, "ts") * 1000.0);
    T.StopNs = T.StartNs + std::llround(Dur * 1000.0);
    T.SelfNs = Int(Args, "self_ns");
    T.Worker = static_cast<int>(Int(&E, "tid"));
    T.OnCriticalPath = Int(Args, "on_cp") != 0;
    T.EmReads = static_cast<uint32_t>(Int(Args, "em_reads"));
    T.Pins = static_cast<uint32_t>(Int(Args, "pins"));
    T.SrcLine = static_cast<uint16_t>(Int(Args, "line"));
    T.SrcCol = static_cast<uint8_t>(Int(Args, "col"));
    T.HeapDepth = static_cast<uint8_t>(Int(Args, "depth"));
    Out.AllTasks.push_back(T); // writeTasks writes them in start order.
  }
  Out.derive();
  return true;
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
    // The exit flush also stops a sampler thread that `trace` started. It
    // renders the trace through these singletons, so they are built first
    // and so outlive it.
    if (EnvPlanes || !obsDir().empty()) {
      Tracer::get();
      MetricsSampler::get();
      SpanLedger::get();
      std::atexit(flushAtExit);
    }
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
  // Either plane writes the one trace; a failed write says so on stderr.
  std::string Path = sinkPath(Sink::Trace);
  if (EnvPlanes && !writeFile(Path, Tracer::get().chromeTraceJson()))
    std::fprintf(stderr, "mpl: cannot write %s\n", Path.c_str());
}
