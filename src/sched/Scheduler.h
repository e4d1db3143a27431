//===- sched/Scheduler.h - Work-stealing fork-join scheduler ---*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing fork-join scheduler in the style of MPL's (and Cilk's):
/// child-stealing with helping joins. It also embeds the *work-span
/// profiler* used to reproduce the paper's scalability results on a machine
/// with fewer cores than the authors' 72-core server: every strand of user
/// code is timed, total work W and critical-path span S are accumulated
/// compositionally at forks/joins, and T_P is then reported through the
/// greedy-scheduler (Brent) bound T_P = W/P + S, which is the model MPL's
/// scheduler provably achieves up to constant factors.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SCHED_SCHEDULER_H
#define MPL_SCHED_SCHEDULER_H

#include "sched/Deque.h"
#include "sched/Job.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace mpl {

class Gauge;

/// Per-worker scheduler state. Worker 0 is the main thread; workers 1..P-1
/// own std::threads that run the steal loop.
struct Worker {
  int Id = 0;
  Deque Dq;
  Rng StealRng;

  // Work-span profiler state.
  double SpanAccNs = 0;     ///< Span of the current strand sequence.
  int64_t StrandStartNs = 0; ///< Start of the running strand, 0 if paused.
  double WorkAccNs = 0;     ///< Total user-code nanoseconds on this worker.
};

/// Aggregate work-span measurement for one top-level computation.
struct WorkSpan {
  double WorkSec = 0;
  double SpanSec = 0;

  /// Brent bound: predicted wall-clock on P processors.
  double predictedTime(int P) const {
    return WorkSec / static_cast<double>(P) + SpanSec;
  }
};

/// The process-wide scheduler. Create one (typically via rt::Runtime), call
/// run() from the main thread, and destroy it to join the worker threads.
class Scheduler {
public:
  struct Config {
    int NumWorkers = 1;
  };

  explicit Scheduler(const Config &Cfg);
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  int numWorkers() const { return static_cast<int>(Workers.size()); }

  /// Executes \p Root on worker 0 with all workers active; returns the
  /// work-span measurement of the whole computation.
  template <typename Fn> WorkSpan run(Fn &&Root) {
    return runImpl(
        [](void *Env) { (*static_cast<Fn *>(Env))(); },
        static_cast<void *>(&Root));
  }

  /// Fork-join: runs A and B, potentially in parallel; returns when both
  /// are done. Must be called from within run().
  template <typename FnA, typename FnB> void fork2join(FnA &&A, FnB &&B) {
    Job JB;
    JB.Run = [](Job *J) { (*static_cast<FnB *>(J->Env))(); };
    JB.Env = static_cast<void *>(&B);
    forkImpl(
        [](void *Env) { (*static_cast<FnA *>(Env))(); },
        static_cast<void *>(&A), JB);
  }

  /// Divide-and-conquer parallel loop over [Lo, Hi) with the given grain.
  template <typename Body>
  void parallelFor(int64_t Lo, int64_t Hi, int64_t Grain, const Body &B) {
    if (Hi - Lo <= Grain) {
      for (int64_t I = Lo; I < Hi; ++I)
        B(I);
      return;
    }
    int64_t Mid = Lo + (Hi - Lo) / 2;
    fork2join([&] { parallelFor(Lo, Mid, Grain, B); },
              [&] { parallelFor(Mid, Hi, Grain, B); });
  }

  /// Work-span totals of the last completed run().
  WorkSpan lastRun() const { return Last; }

private:
  using Thunk = void (*)(void *);

  WorkSpan runImpl(Thunk Root, void *Env);
  void forkImpl(Thunk A, void *EnvA, Job &JB);

  void stealLoop(Worker *W);
  bool tryStealAndRun(Worker *W);
  void executeJob(Worker *W, Job *J);

  void strandPause(Worker *W);
  void strandResume(Worker *W);

  std::vector<Worker *> Workers;
  std::vector<std::thread> Threads;
  /// sched.deque.w<Id>, one per worker; destroyed before the workers.
  std::vector<std::unique_ptr<Gauge>> DequeGauges;
  /// Idle workers spin on these two flags: alignas gives them a cache
  /// line no other object writes. Without it, where the Runtime lands on
  /// the heap decided whether they shared a line with the HeapManager lock
  /// that every fork takes (perfbench fj-pure ran ~5% slower at P when
  /// they did).
  alignas(64) std::atomic<bool> ShuttingDown{false};
  std::atomic<bool> Active{false};
  WorkSpan Last;
};

} // namespace mpl

#endif // MPL_SCHED_SCHEDULER_H
