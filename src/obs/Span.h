//===- obs/Span.h - Causal span ledger for the fork-join DAG ---*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The causal layer of the observability stack. The scheduler's embedded
/// work-span profiler reduces a run to two scalars (W and S); the tracer
/// records *when* things happened but not *why*. This ledger records every
/// fork-join task as one 56-byte record — id, parent id, start/stop, self
/// (strand) time, heap depth, em-event counts, and the pml source location
/// of the `par` that spawned it — so at quiescence the full fork-join DAG
/// can be rebuilt, the critical path extracted, and hot pml source lines
/// named.
///
/// Design constraints mirror the tracer's (obs/Trace.h):
///
///  1. Disabled cost ~ zero: every hook is a relaxed atomic load and a
///     predictable not-taken branch. No state is touched until the ledger
///     is enabled (MPL_OBS=spans, or SpanLedger::enable()).
///  2. Armed cost is bounded: the live task state is a stack-allocated POD
///     in the scheduler frame that runs the task; finishing a task appends
///     one record to the executing thread's shard (single producer, no
///     lock). Self time reuses the exact strand-clock quanta the scheduler
///     already measures, so the ledger's critical path is *computed from
///     the same numbers* as the scheduler's S — the two are a consistency
///     oracle for each other (DESIGN.md §14).
///  3. Merge and analysis happen at quiescence, in runEnd(): shards are
///     merged into a DAG keyed by task id, CP(T) = Self(T) + Σ over fork
///     pairs max(CP(a), CP(b)) is computed iteratively, the winner tree is
///     marked, and a SpanRunSummary is stored. The trace exporter writes
///     it into trace.json (one "task" slice per task, obs/Trace.h);
///     `mpl_report spans` reads that file back into the same summary, and
///     it and the REPL's :spans print through the renderers below.
///
/// Task ids come from one global counter, allocated in consecutive pairs
/// at each fork (A = n, B = n+1); children of a parent sorted by id thus
/// reconstruct the fork pairs without storing per-fork edges. The stolen
/// flag is derived from the DAG: a task was stolen iff it executed on a
/// different worker than its parent (the scheduler never steals from the
/// local deque).
///
//===----------------------------------------------------------------------===//

#ifndef MPL_OBS_SPAN_H
#define MPL_OBS_SPAN_H

#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mpl {
namespace obs {

/// One finished task, as stored in the per-thread shard. 56 bytes so a
/// million-task run costs 56 MB at worst and appends stay cache-friendly.
struct SpanRecord {
  uint64_t Id;        ///< Global task id (pairs at forks: A=n, B=n+1).
  uint64_t Parent;    ///< Parent task id; ~0 for the root task.
  int64_t StartNs;    ///< nowNs() at task begin.
  int64_t StopNs;     ///< nowNs() at task end.
  int64_t SelfNs;     ///< Strand time inside this task, children excluded.
  uint32_t EmReads;   ///< Entangled reads in this task.
  uint32_t Pins;      ///< Pins created by this task.
  uint16_t SrcLine;   ///< pml line of the spawning `par` (0 = none).
  uint8_t SrcCol;     ///< pml column of the spawning `par`.
  uint8_t HeapDepth;  ///< Depth of the task's heap (saturating at 255).
};
static_assert(sizeof(SpanRecord) == 56, "span record layout changed");

/// Live state of the task the current thread is executing. Stack-allocated
/// by the scheduler in the frame that runs the task; a TLS pointer tracks
/// the innermost one (helping joins nest tasks on one thread).
struct SpanTask {
  uint64_t Id = 0;
  uint64_t Parent = ~uint64_t(0);
  int64_t StartNs = 0;
  int64_t SelfNs = 0;
  uint32_t EmReads = 0;
  uint32_t Pins = 0;
  uint32_t Loc = 0; ///< Packed (Line << 8) | Col of the spawning `par`.
  uint32_t HeapDepth = 0;
};

/// Per-source-line aggregate in a run summary. EmReads/Pins count barrier
/// events attributed to the *instruction* location current when the event
/// fired (more precise than the task's fork location); SelfNs/CpSelfNs/
/// Tasks aggregate tasks whose spawning `par` sits on this line
/// (SpanRunSummary::derive).
struct SpanLineStat {
  int64_t EmReads = 0;
  int64_t Pins = 0;
  int64_t SelfNs = 0;
  int64_t CpSelfNs = 0;
  int64_t Tasks = 0;
};

/// One merged task in a run summary: a "task" slice in trace.json.
struct SpanTaskOut {
  uint64_t Id = 0;
  uint64_t Parent = ~uint64_t(0);
  int64_t StartNs = 0; ///< nowNs() at begin; read back from a trace, ts.
  int64_t StopNs = 0;
  int64_t SelfNs = 0;
  int Worker = 0;
  bool Stolen = false; ///< Derived: ran on another worker than its parent.
  bool OnCriticalPath = false;
  uint32_t EmReads = 0;
  uint32_t Pins = 0;
  uint16_t SrcLine = 0;
  uint8_t SrcCol = 0;
  uint8_t HeapDepth = 0;
};

/// The merged, analyzed result of one run. Valid until the next runBegin().
/// The runtime builds it at runEnd() and `mpl_report spans` reads it back
/// from trace.json; both set the recorded fields and call derive().
struct SpanRunSummary {
  // Recorded.
  bool Valid = false;
  int64_t Dropped = 0; ///< Records lost to the per-shard cap; CP skipped.
  double SchedWorkSec = 0;  ///< Scheduler's W for the same run.
  double SchedSpanSec = 0;  ///< Scheduler's S — the consistency oracle.

  /// All tasks, sorted by start time. Root first by construction.
  std::vector<SpanTaskOut> AllTasks;

  /// Per-line aggregates, keyed by packed (Line << 8) | Col, sorted.
  std::vector<std::pair<uint32_t, SpanLineStat>> Lines;

  // Derived from AllTasks by derive().
  int64_t Tasks = 0;
  int64_t Stolen = 0;
  double LedgerWorkSec = 0; ///< Σ Self over all tasks.
  double CriticalPathSec = 0; ///< Σ Self over on-critical-path tasks.
  int64_t EmReads = 0;
  int64_t PinEvents = 0;

  /// Fills the derived fields, each task's Stolen flag and the task side
  /// of Lines (SelfNs, CpSelfNs, Tasks) from AllTasks. Call once, with
  /// Lines holding only the barrier events' EmReads/Pins.
  void derive();

  /// Ledger CP vs scheduler S, in percent (positive = ledger longer).
  /// Meaningless when !Valid or SchedSpanSec == 0.
  double agreementPct() const {
    if (SchedSpanSec <= 0)
      return 0;
    return 100.0 * (CriticalPathSec - SchedSpanSec) / SchedSpanSec;
  }
};

// The renderers behind `mpl_report spans` and the REPL's :spans.

/// Task counts, ledger work and critical path against the scheduler's W
/// and S, and the em event totals (`mpl_report spans analyze`).
std::string renderSpanSummary(const SpanRunSummary &S);

/// The summary, then the critical path one task per line, root first
/// (`mpl_report spans critical-path`).
std::string renderCriticalPath(const SpanRunSummary &S);

/// Per-line attribution sorted by em reads then CP self time, top \p TopK
/// rows (`mpl_report spans top-lines`).
std::string renderTopLines(const SpanRunSummary &S, int TopK);

/// Folded stacks for flamegraph tools: one "root;L3:5;L7:2 <self_ns>" line
/// per task with nonzero self time, stack = chain of ancestor fork sites
/// (`mpl_report spans fold`).
std::string foldSpans(const SpanRunSummary &S);

/// Process-wide ledger: owns every thread's shard and the last run's
/// merged summary.
class SpanLedger {
public:
  static SpanLedger &get();

  /// Arms the hooks. Unlike the tracer there are no options: capacity is
  /// fixed (records are never overwritten, only capped + counted).
  void enable();
  void disable();

  /// Clears all shards and resets the id counter. Called by the scheduler
  /// at the start of an armed run (quiescent workers only).
  void runBegin();

  /// Merges shards, rebuilds the DAG, extracts the critical path and
  /// stores the summary. \p WorkSec / \p SpanSec are the scheduler's W/S
  /// for the same run. Producers must be quiescent.
  void runEnd(double WorkSec, double SpanSec);

  /// The last runEnd() summary (Valid == false before the first run).
  SpanRunSummary lastRun() const;

  /// Names the calling thread's shard after scheduler worker \p Id.
  void labelThread(int Id);

  /// Internal: append one finished task on the calling thread's shard.
  void append(const SpanRecord &R);

  /// Internal: attribute one barrier event to packed source loc \p Loc.
  void noteLineEvent(uint32_t Loc, bool Pin);

private:
  struct Shard {
    int WorkerId = -1;
    std::vector<SpanRecord> Recs;
    std::unordered_map<uint32_t, SpanLineStat> LineEv;
    uint64_t Dropped = 0;
    std::atomic<bool> Retired{false};
  };

  Shard *threadShard();

  mutable std::mutex Mu;
  std::vector<std::unique_ptr<Shard>> Shards;
  SpanRunSummary LastRun;
  int NextForeignWorker = 1000;
};

namespace detail {
extern std::atomic<uint32_t> SpanActiveFlag;
extern std::atomic<uint64_t> NextSpanId;
extern thread_local SpanTask *CurSpanTask;
extern thread_local uint32_t CurPmlLoc;
void finishTask(const SpanTask &T, int64_t StopNs);
} // namespace detail

/// The single branch-predictable check every hook compiles to.
inline bool spansEnabled() {
  return detail::SpanActiveFlag.load(std::memory_order_relaxed) != 0;
}

/// Packs a pml source location the way the ledger stores it. Matches the
/// pml compiler's source-map encoding (pml/Compiler.h, packSrcLoc).
inline uint32_t spanPackLoc(uint32_t Line, uint32_t Col) {
  return (std::min<uint32_t>(Line, 0xffff) << 8) | std::min<uint32_t>(Col, 0xff);
}

/// Allocates \p N consecutive task ids; returns the first. Forks allocate
/// pairs (A = n, B = n+1) so the merge can reconstruct fork edges.
inline uint64_t spanAllocIds(uint32_t N) {
  return detail::NextSpanId.fetch_add(N, std::memory_order_relaxed);
}

/// Id of the task the current thread is executing (~0 outside any task).
inline uint64_t spanCurrentId() {
  return detail::CurSpanTask ? detail::CurSpanTask->Id : ~uint64_t(0);
}

/// Packed pml location of the instruction the VM is currently executing
/// on this thread (0 outside pml code). Forks stamp it into child tasks.
inline uint32_t spanCurrentLoc() { return detail::CurPmlLoc; }

/// Sets the current thread's pml location (VM dispatch, armed runs only).
inline void spanSetPmlLoc(uint32_t Packed) { detail::CurPmlLoc = Packed; }

/// Enters task \p T (stack-allocated by the caller); returns the previous
/// innermost task so the caller can restore it via spanExitTask.
inline SpanTask *spanEnterTask(SpanTask *T, uint64_t Id, uint64_t Parent,
                               uint32_t Loc) {
  T->Id = Id;
  T->Parent = Parent;
  T->StartNs = nowNs();
  T->SelfNs = 0;
  T->EmReads = 0;
  T->Pins = 0;
  T->Loc = Loc;
  T->HeapDepth = 0;
  // Events attribute to the task's fork location until the VM dispatch
  // loop refines it; this also clears a stale location left by a previous
  // pml run when a native task starts on the same thread.
  detail::CurPmlLoc = Loc;
  SpanTask *Saved = detail::CurSpanTask;
  detail::CurSpanTask = T;
  return Saved;
}

/// Finishes \p T: appends its record to the thread shard and restores the
/// previous innermost task.
inline void spanExitTask(SpanTask *T, SpanTask *Saved) {
  detail::finishTask(*T, nowNs());
  detail::CurSpanTask = Saved;
}

/// Credits \p Ns of strand time to the current task. The scheduler calls
/// this with the *same* elapsed quantum it adds to SpanAccNs/WorkAccNs, so
/// ledger CP and scheduler S are built from identical numbers.
inline void spanAddSelf(int64_t Ns) {
  if (spansEnabled() && detail::CurSpanTask) [[unlikely]]
    detail::CurSpanTask->SelfNs += Ns;
}

/// em::readBarrierSlow hook: one entangled read in the current task,
/// attributed to the current pml location.
inline void spanNoteEmRead() {
  if (spansEnabled() && detail::CurSpanTask) [[unlikely]] {
    ++detail::CurSpanTask->EmReads;
    SpanLedger::get().noteLineEvent(detail::CurPmlLoc, /*Pin=*/false);
  }
}

/// em::writeBarrierSlow hook: one pin created by the current task.
inline void spanNotePin() {
  if (spansEnabled() && detail::CurSpanTask) [[unlikely]] {
    ++detail::CurSpanTask->Pins;
    SpanLedger::get().noteLineEvent(detail::CurPmlLoc, /*Pin=*/true);
  }
}

/// rt::par hook: depth of the heap the current task runs in.
inline void spanNoteHeapDepth(uint32_t Depth) {
  if (spansEnabled() && detail::CurSpanTask) [[unlikely]]
    detail::CurSpanTask->HeapDepth = Depth;
}

} // namespace obs
} // namespace mpl

#endif // MPL_OBS_SPAN_H
