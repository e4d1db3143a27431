//===- core/Runtime.h - The mpl-em public runtime API ----------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public embedding API. A Runtime owns the scheduler, the heap
/// hierarchy, and the collector. User code runs inside Runtime::run and
/// uses rt::par for fork-join parallelism; every par gives each branch a
/// fresh child heap and merges (joins) the heaps afterwards, driving the
/// unpinning of entanglement candidates whose unpin depth is reached.
///
/// Typical use:
/// \code
///   mpl::rt::Runtime R({.NumWorkers = 4});
///   R.run([] {
///     mpl::Local A(mpl::ops::newArray(1000, mpl::ops::boxInt(0)));
///     auto [L, Rr] = mpl::rt::par([&] { ... return Slot; },
///                                 [&] { ... return Slot; });
///   });
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef MPL_CORE_RUNTIME_H
#define MPL_CORE_RUNTIME_H

#include "core/Deadline.h"
#include "core/Em.h"
#include "core/WorkerCtx.h"
#include "gc/Collector.h"
#include "hh/Heap.h"
#include "mm/MemoryGovernor.h"
#include "obs/Span.h"
#include "sched/Scheduler.h"
#include "support/Stats.h"

#include <cstdint>
#include <exception>
#include <utility>

namespace mpl {
namespace rt {

/// Runtime configuration.
struct Config {
  int NumWorkers = 1;
  em::Mode Mode = em::Mode::Manage;

  /// Collection policy: collect the private chain once it has allocated
  /// more than max(GcMinBytes, GcFactor * live-after-last-GC).
  int64_t GcMinBytes = int64_t(1) << 21;
  double GcFactor = 2.0;
};

/// The runtime instance. At most one may exist at a time.
class Runtime {
public:
  explicit Runtime(const Config &Cfg);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  static Runtime *current();

  /// Runs \p Root as the top-level task (fresh depth-0 heap) and returns
  /// the work-span measurement of the computation.
  ///
  /// Recoverable runtime errors (mpl::OutOfMemoryError once the governor's
  /// recovery ladder is spent, em::EntanglementError in Detect mode) unwind
  /// the failing strand, propagate through the rt::par joins, and are
  /// rethrown here after the run's heaps are torn down — the Runtime stays
  /// usable for another run().
  template <typename Fn> WorkSpan run(Fn &&Root) {
    beginRun();
    std::exception_ptr Err;
    WorkSpan WS = Sched.run([&] {
      try {
        Root();
      } catch (...) {
        Err = std::current_exception();
      }
      finishRootTask();
    });
    endRun();
    if (Err)
      std::rethrow_exception(Err);
    return WS;
  }

  /// The mutator context of the calling thread (created on first use).
  static WorkerCtx *ctx();

  Scheduler &scheduler() { return Sched; }
  HeapManager &heaps() { return Heaps; }
  const Config &config() const { return Cfg; }

  /// Runs the collection policy for the calling thread; collects the
  /// private chain when the allocation budget is exhausted (or always, if
  /// \p Force). Returns true when a collection ran.
  bool maybeCollect(bool Force = false);

  /// Current global residency (bytes held in chunks).
  static int64_t residencyBytes();

private:
  void beginRun();
  void endRun();
  void finishRootTask();

  Config Cfg;
  Scheduler Sched;
  HeapManager Heaps;
  Collector Gc;
  Heap *RootHeap = nullptr;
  /// hh.heaps and mm.freelist.bytes, registered for this Runtime's
  /// lifetime; declared after Heaps, which the first one reads.
  Gauge HeapsGauge;
  Gauge FreeListGauge;
};

namespace detail {
/// One rt::par branch, on whichever worker runs it: points that worker's
/// context at the branch's heap and the forking strand's deadline (a stolen
/// branch's thread knows neither), and catches what the branch throws, as
/// no exception may unwind a scheduler frame.
template <typename F>
void runBranch(F &Body, Heap *H, int64_t DeadlineNs, Slot &Out,
               std::exception_ptr &Err) {
  WorkerCtx *Me = Runtime::ctx();
  Heap *SavedHeap = Me->CurrentHeap;
  int64_t SavedDl = Me->DeadlineNs;
  Me->CurrentHeap = H;
  Me->DeadlineNs = DeadlineNs;
  obs::spanNoteHeapDepth(H->depth());
  try {
    Out = Body();
  } catch (...) {
    Err = std::current_exception();
  }
  Me->CurrentHeap = SavedHeap;
  Me->DeadlineNs = SavedDl;
}
} // namespace detail

/// Fork-join with heap management: runs A and B in fresh sibling heaps
/// (potentially in parallel), joins the heaps, and returns both results as
/// tagged slots. Branch results that are objects are merged into the
/// calling task's heap by the join, so they may be used directly.
///
/// Branch bodies must return Slot and must root (mpl::Local) any object
/// reference they hold across an allocation.
///
/// A branch that throws is caught at the branch boundary (an exception must
/// never unwind a scheduler frame): both heaps still join normally — the
/// failed branch's allocations merge and become garbage — and the exception
/// is rethrown on the parent strand afterwards. When both branches throw,
/// A's exception wins and B's is dropped.
template <typename FA, typename FB>
std::pair<Slot, Slot> par(FA &&A, FB &&B) {
  Runtime *R = Runtime::current();
  MPL_CHECK(R, "rt::par outside Runtime::run");
  WorkerCtx *C = Runtime::ctx();
  Heap *H = C->CurrentHeap;
  MPL_CHECK(H, "rt::par outside a task");

  // A safe point: an expired request aborts before paying for the fork.
  checkDeadline();

  H->setActiveForks(2);
  Heap *HA = R->heaps().forkChild(H);
  Heap *HB = R->heaps().forkChild(H);
  int64_t DL = C->DeadlineNs;

  Slot RA = 0, RB = 0;
  std::exception_ptr EA, EB;
  R->scheduler().fork2join([&] { detail::runBranch(A, HA, DL, RA, EA); },
                           [&] { detail::runBranch(B, HB, DL, RB, EB); });

  R->heaps().join(H, HA);
  R->heaps().join(H, HB);
  H->setActiveForks(0);
  C->CurrentHeap = H;
  if (EA)
    std::rethrow_exception(EA);
  if (EB)
    std::rethrow_exception(EB);
  return {RA, RB};
}

/// Parallel loop with per-iteration heaps amortized by grain: the standard
/// divide-and-conquer reduction of parallelFor to par.
template <typename Body>
void parFor(int64_t Lo, int64_t Hi, int64_t Grain, const Body &B) {
  if (Hi - Lo <= Grain) {
    for (int64_t I = Lo; I < Hi; ++I)
      B(I);
    return;
  }
  int64_t Mid = Lo + (Hi - Lo) / 2;
  par([&] { parFor(Lo, Mid, Grain, B); return Slot(0); },
      [&] { parFor(Mid, Hi, Grain, B); return Slot(0); });
}

} // namespace rt
} // namespace mpl

#endif // MPL_CORE_RUNTIME_H
