//===- obs/Trace.h - Per-worker ring-buffer event tracer -------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime's time-resolved observability layer. The cumulative counters
/// (em::Counts, support/Stats) say *how much* entanglement management cost a
/// run; this tracer says *when*: every scheduler fork/steal/join, every
/// barrier slow path, every pin/unpin, every heap join and every GC phase
/// is a 32-byte timestamped record in a per-thread ring buffer, exported as
/// Chrome trace-event JSON that Perfetto / chrome://tracing loads directly,
/// with one track per worker.
///
/// Design constraints, in order:
///
///  1. Disabled cost ~ zero. Every hook compiles to a relaxed atomic load
///     and a predictable not-taken branch (obs::emit). No Tracer state is
///     touched, no buffer is allocated, until tracing is enabled.
///  2. Enabled cost is bounded and allocation-free on the hot path: the
///     emitting thread owns its buffer (single producer, no CAS, no lock),
///     writes one 32-byte record and bumps an index. When the ring wraps,
///     the oldest events are overwritten and counted as dropped — tracing
///     keeps the most recent window, never blocks, never corrupts.
///  3. Export happens at quiescence. writeChromeTrace()/clear() must run
///     while no traced thread is actively emitting (after a run, after a
///     Runtime was destroyed, in a test harness); the producers' release
///     store on Head and the consumer's acquire load make the no-wrap case
///     race-free, and quiescence covers the wrap case.
///
/// Gating: MPL_OBS=trace arms the tracer process-wide (see
/// obs::initFromEnv, called by rt::Runtime) together with the metrics
/// sampler, whose series the exporter renders as counter tracks;
/// MPL_OBS=spans adds the span ledger's DAG. The trace goes to
/// MPL_OBS_DIR/trace.json on Runtime destruction and at exit.
/// Tests and the fuzz harness use Tracer::enable() directly.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_OBS_TRACE_H
#define MPL_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mpl {
namespace obs {

struct SpanRunSummary;

/// Every traced runtime event. Begin/End pairs become Chrome "B"/"E"
/// duration slices; the rest are instant events on the worker's track.
enum class Ev : uint16_t {
  Fork,             ///< Scheduler::forkImpl: child job made stealable.
  Steal,            ///< Successful steal; Arg0 = victim worker id.
  StrandBegin,      ///< Worker starts running user code (strand resume).
  StrandEnd,        ///< Worker stops running user code (strand pause).
  JoinWaitBegin,    ///< Parent starts waiting/helping on a stolen child.
  JoinWaitEnd,      ///< Stolen child finished; parent resumes.
  WriteBarrierSlow, ///< em::writeBarrierSlow entered.
  ReadBarrierSlow,  ///< em::readBarrierSlow entered (an entangled read).
  Pin,              ///< Object newly pinned; Arg0 = bytes, Arg1 = depth.
  Unpin,            ///< Join released a pin; Arg0 = bytes.
  HeapJoinBegin,    ///< HeapManager::join entered; Arg0 = child depth.
  HeapJoinEnd,      ///< Join done; Arg0 = objects unpinned.
  GcBegin,          ///< Collector::collectChain entered; Arg0 = chain len.
  GcEnd,            ///< Collection done; Arg0 = bytes copied, Arg1 = freed.
  GcMarkBegin,      ///< GC phase A: mark pinned closures in place.
  GcMarkEnd,
  GcEvacBegin,      ///< GC phase B: evacuate from roots.
  GcEvacEnd,
  GcReclaimBegin,   ///< GC phase C: reclaim / retire from-space chunks.
  GcReclaimEnd,
  PressureChange,   ///< Governor level changed; Arg0 = level, Arg1 = bytes.
  EmergencyGc,      ///< Pressure-forced GC; Arg0/Arg1 = bytes before/after.
  AllocRetry,       ///< Chunk alloc recovery; Arg0 = attempt, Arg1 = bytes.
  ContCapture,      ///< Continuation captured; Arg0 = bytes, Arg1 = depth.
  ContResume,       ///< Continuation resumed; Arg0 = bytes, Arg1 = depth.
  NetAccept,        ///< Connection accepted; Arg0 = connection id.
  NetShed,          ///< Request shed; Arg0 = request id, Arg1 = pressure.
  NetDeadlineExpired, ///< Request aborted; Arg0 = req id, Arg1 = overrun ns.
  NetDrain,         ///< Server began draining; Arg0 = in-flight requests.
  NetFlowOut,       ///< Request enqueued (flow 's'); Arg0 = request id.
  NetFlowIn,        ///< Request starts executing (flow 'f'); Arg0 = req id.
  JitCompile,       ///< pml fn tiered to native; Arg0 = fn idx, Arg1 = bytes.
  NumKinds
};

/// One trace record. 32 bytes so a TraceBuffer ring is 8 MiB per thread
/// and an emit dirties at most one cache line beyond the index.
/// Trivially constructible: a new ring's pages stay untouched until events
/// land in them.
struct TraceEvent {
  int64_t TimeNs;  ///< Steady-clock timestamp (support/Timer nowNs).
  uint64_t Arg0;
  uint64_t Arg1;
  uint16_t Kind;   ///< An Ev value.
  uint16_t Pad16;
  uint32_t Pad32;
};
static_assert(sizeof(TraceEvent) == 32, "trace record layout changed");

/// A single-producer ring of TraceEvents owned by one thread. The producer
/// only ever writes Slots[Head % Capacity] then publishes Head+1; when Head
/// exceeds the capacity the ring has wrapped and Head - Capacity events
/// have been dropped (overwritten). Consumers read at quiescence.
class TraceBuffer {
public:
  /// Ring capacity in events. The CI server smoke (16 MiB limit, every
  /// 5th chunk allocation failing) records 74-77K events on its busiest
  /// worker, more than a 2^16 ring holds.
  static constexpr uint64_t Capacity = uint64_t(1) << 18;

  TraceBuffer() : Slots(new TraceEvent[Capacity]) {}

  void emit(Ev K, int64_t TimeNs, uint64_t A0, uint64_t A1) {
    uint64_t H = Head.load(std::memory_order_relaxed);
    TraceEvent &E = Slots[H % Capacity];
    E.TimeNs = TimeNs;
    E.Arg0 = A0;
    E.Arg1 = A1;
    E.Kind = static_cast<uint16_t>(K);
    Head.store(H + 1, std::memory_order_release);
  }

  uint64_t capacity() const { return Capacity; }
  uint64_t head() const { return Head.load(std::memory_order_acquire); }

  /// Events currently held (<= capacity).
  uint64_t size() const { return std::min(head(), capacity()); }

  /// Events overwritten by ring wrap.
  uint64_t dropped() const {
    uint64_t H = head();
    return H > capacity() ? H - capacity() : 0;
  }

  /// Index of the oldest retained event; iterate [first, head()).
  uint64_t first() const {
    uint64_t H = head();
    return H > capacity() ? H - capacity() : 0;
  }

  const TraceEvent &at(uint64_t I) const { return Slots[I % Capacity]; }

  /// Consumer-side reset (quiescent producers only).
  void reset() { Head.store(0, std::memory_order_release); }

  /// Track id: the scheduler worker id when the owning thread is a worker,
  /// otherwise 1000 + a registration ordinal.
  int TrackId = 0;

  /// Set by the owning thread's TLS destructor; clear() frees retired
  /// buffers (their events are kept until then so post-join flushes work).
  std::atomic<bool> Retired{false};

private:
  std::atomic<uint64_t> Head{0};
  std::unique_ptr<TraceEvent[]> Slots;
};

/// Process-wide tracer: owns every thread's ring buffer and the exporter.
class Tracer {
public:
  static Tracer &get();

  /// Arms tracing (idempotent).
  void enable();

  /// Disarms every hook; buffers and their events are kept until clear().
  void disable();

  bool enabled() const;

  /// Drops all recorded events and frees buffers of exited threads.
  /// Producers must be quiescent.
  void clear();

  /// Total events currently retained / dropped across all buffers.
  uint64_t totalEvents() const;
  uint64_t totalDropped() const;

  /// Runs \p Fn over every buffer under the registry lock.
  void forEachBuffer(const std::function<void(const TraceBuffer &)> &Fn) const;

  /// Renders the whole trace as Chrome trace-event JSON: every retained
  /// event, the MetricsSampler series as counter ("C") events, and under
  /// otherData the counters, histograms and live heap tree. While the span
  /// ledger is armed it adds the ledger's last run: one "task" slice ("X")
  /// per task on its worker's track, a "task_flow" edge from each parent
  /// to each child, and otherData.spans (obs/Span.h).
  std::string chromeTraceJson() const;

  /// Writes chromeTraceJson() to \p Path; false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

  // Internal: called from detail::emitSlow / labelCurrentThread.
  TraceBuffer *threadBuffer();
  void labelThread(int TrackId);

private:
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<TraceBuffer>> Buffers;
  int NextForeignTrack = 1000;
};

namespace detail {
extern std::atomic<uint32_t> TraceActiveFlag;
void emitSlow(Ev K, uint64_t A0, uint64_t A1);
} // namespace detail

/// The single branch-predictable check every hook compiles to.
inline bool traceEnabled() {
  return detail::TraceActiveFlag.load(std::memory_order_relaxed) != 0;
}

/// Records one event on the calling thread's track (no-op when disabled).
inline void emit(Ev K, uint64_t A0 = 0, uint64_t A1 = 0) {
  if (traceEnabled()) [[unlikely]]
    detail::emitSlow(K, A0, A1);
}

/// Reads back the span ledger's run from a trace that chromeTraceJson
/// wrote with the ledger armed (`mpl_report spans`): the "task" slices,
/// in file order, and otherData.spans. False with a one-line diagnostic in
/// \p Err on malformed input or a trace without span data.
bool readSpanTrace(const std::string &Text, SpanRunSummary &Out,
                   std::string &Err);

/// Names the calling thread's trace track after scheduler worker \p Id.
/// Cheap and callable whether or not tracing is active; the scheduler calls
/// it when binding worker threads.
void labelCurrentThread(int Id);

//===----------------------------------------------------------------------===//
// The observability switch: MPL_OBS=<planes>, MPL_OBS_DIR=<dir>
//===----------------------------------------------------------------------===//

/// The planes MPL_OBS arms, as bit flags.
enum Plane : unsigned {
  PlaneTrace = 1, ///< "trace": Tracer + MetricsSampler -> trace.json;
                  ///< also clocks pin lifetimes (Heap::addPinned).
  PlaneSpans = 2, ///< "spans": SpanLedger -> task slices in trace.json;
                  ///< pins pml to the interpreter (exact Line:Col).
};

/// Arms the planes named by \p List, a comma list of trace and spans, and
/// returns them. An unknown name arms nothing: it returns 0 and
/// prints one line on stderr.
unsigned armPlanes(std::string_view List);

/// Every file the observability layer writes under MPL_OBS_DIR.
enum class Sink {
  Trace,       ///< trace.json, at Runtime destruction and at exit.
  Stats,       ///< stats.prom, on SIGUSR1.
  OomHeapTree, ///< oom-heap-tree.json, when OutOfMemoryError is raised.
};

/// MPL_OBS_DIR/<file of \p S>, or "" when MPL_OBS_DIR is unset (the planes
/// are then armed but write nothing).
std::string sinkPath(Sink S);

/// Reads MPL_OBS / MPL_OBS_DIR once per process, arms the named planes and
/// the SIGUSR1 stats dump. Called by rt::Runtime's constructor; idempotent
/// and cheap afterwards.
void initFromEnv();

/// Writes trace.json under MPL_OBS_DIR when a plane is armed. Called on
/// Runtime destruction (quiescent; a running sampler first takes a final
/// sample) and at process exit (the sampler is stopped first, so no gauge
/// runs).
void flushEnvSinks();

} // namespace obs
} // namespace mpl

#endif // MPL_OBS_TRACE_H
