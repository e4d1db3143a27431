//===- sched/Scheduler.cpp - Work-stealing fork-join scheduler ------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sched/Scheduler.h"

#include "chaos/ChaosSchedule.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Assert.h"
#include "support/Histogram.h"
#include "support/Stats.h"

#include <algorithm>
#include <string>

using namespace mpl;

namespace {
thread_local Scheduler *CurScheduler = nullptr;
thread_local Worker *CurWorker = nullptr;

Stat NumSteals("sched.steals");
Stat NumForks("sched.forks");

/// Latency of *successful* steal attempts: entering tryStealAndRun to
/// acquiring a job (failed probe rounds would swamp the distribution).
Histogram StealLatencyNs("sched.steal.latency.ns");

/// Strand-quantum poll installed by the runtime layer (deadline latching).
/// Read on every strandPause; the write happens at Runtime setup/teardown
/// while workers are quiescent, but an atomic keeps TSan happy.
std::atomic<void (*)()> StrandPollHook{nullptr};
} // namespace

Scheduler *Scheduler::current() { return CurScheduler; }
Worker *Scheduler::currentWorker() { return CurWorker; }

Scheduler::Scheduler(const Config &Cfg) {
  int N = std::max(1, Cfg.NumWorkers);
  Workers.reserve(N);
  for (int I = 0; I < N; ++I) {
    Worker *W = new Worker();
    W->Id = I;
    W->StealRng = Rng(0x9e3779b9u + static_cast<uint64_t>(I) * 77);
    Workers.push_back(W);
    DequeGauges.push_back(std::make_unique<Gauge>(
        "sched.deque.w" + std::to_string(I), [W] { return W->Dq.size(); }));
  }
  // Worker 0 is the caller's thread; start threads for the rest.
  for (int I = 1; I < N; ++I)
    Threads.emplace_back([this, I] {
      CurScheduler = this;
      CurWorker = Workers[I];
      obs::labelCurrentThread(I);
      stealLoop(Workers[I]);
      CurWorker = nullptr;
      CurScheduler = nullptr;
    });
}

Scheduler::~Scheduler() {
  DequeGauges.clear(); // They read the workers' deques.
  ShuttingDown.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  for (Worker *W : Workers)
    delete W;
}

void Scheduler::setStrandPollHook(void (*Hook)()) {
  StrandPollHook.store(Hook, std::memory_order_release);
}

void Scheduler::strandPause(Worker *W) {
  // The quantum boundary is the deadline poll point. The hook never throws
  // (flag-latch only).
  if (void (*Hook)() = StrandPollHook.load(std::memory_order_acquire))
    Hook();
  if (W->StrandStartNs == 0)
    return;
  obs::emit(obs::Ev::StrandEnd);
  int64_t ElapsedNs = nowNs() - W->StrandStartNs;
  double Elapsed = static_cast<double>(ElapsedNs);
  W->StrandStartNs = 0;
  W->SpanAccNs += Elapsed;
  W->WorkAccNs += Elapsed;
  // The ledger's per-task self time is built from the same quanta, so its
  // critical path and the scheduler's S agree by construction.
  obs::spanAddSelf(ElapsedNs);
}

void Scheduler::strandResume(Worker *W) {
  obs::emit(obs::Ev::StrandBegin);
  W->StrandStartNs = nowNs();
}

WorkSpan Scheduler::runImpl(Thunk Root, void *Env) {
  MPL_CHECK(CurWorker == nullptr, "nested Scheduler::run is not supported");
  Worker *W = Workers[0];
  CurScheduler = this;
  CurWorker = W;
  obs::labelCurrentThread(0);
  for (Worker *Each : Workers) {
    Each->SpanAccNs = 0;
    Each->WorkAccNs = 0;
    Each->StrandStartNs = 0;
  }
  // Arm the span ledger for this run. The check happens per run (not just
  // at construction) so tests and benches that enable the ledger after
  // building the Runtime still get a DAG. The ledger's self times come
  // from the strand clock, which always runs.
  bool SpansOn = obs::spansEnabled();
  if (SpansOn)
    obs::SpanLedger::get().runBegin();
  Active.store(true, std::memory_order_release);

  obs::SpanTask RootTask;
  obs::SpanTask *SavedTask = nullptr;
  if (SpansOn)
    SavedTask = obs::spanEnterTask(&RootTask, obs::spanAllocIds(1),
                                   ~uint64_t(0), /*Loc=*/0);
  strandResume(W);
  Root(Env);
  strandPause(W);
  if (SpansOn)
    obs::spanExitTask(&RootTask, SavedTask);

  Active.store(false, std::memory_order_release);
  CurWorker = nullptr;
  CurScheduler = nullptr;

  Last.SpanSec = W->SpanAccNs * 1e-9;
  double TotalWork = 0;
  for (Worker *Each : Workers)
    TotalWork += Each->WorkAccNs;
  Last.WorkSec = TotalWork * 1e-9;
  if (SpansOn)
    obs::SpanLedger::get().runEnd(Last.WorkSec, Last.SpanSec);
  return Last;
}

void Scheduler::executeJob(Worker *W, Job *J) {
  // Strand clock must be paused on entry. Spans of distinct jobs must not
  // blend, so the accumulator is saved around the body; the ledger's task
  // state nests the same way (helping joins run jobs inside jobs).
  double Saved = W->SpanAccNs;
  W->SpanAccNs = 0;
  obs::SpanTask Task;
  obs::SpanTask *SavedTask = nullptr;
  bool SpansOn = J->SpanId != 0 && obs::spansEnabled();
  if (SpansOn)
    SavedTask = obs::spanEnterTask(&Task, J->SpanId, J->SpanParent,
                                   J->SpanLoc);
  strandResume(W);
  J->Run(J);
  strandPause(W);
  if (SpansOn)
    obs::spanExitTask(&Task, SavedTask);
  J->SpanOutNs = W->SpanAccNs;
  W->SpanAccNs = Saved;
  J->Done.store(1, std::memory_order_release);
}

void Scheduler::forkImpl(Thunk A, void *EnvA, Job &JB) {
  Worker *W = CurWorker;
  MPL_CHECK(W != nullptr, "fork2join called outside Scheduler::run");
  NumForks.inc();

  strandPause(W);
  double SpanBefore = W->SpanAccNs;
  W->SpanAccNs = 0;

  // Span ledger: allocate the fork's task-id pair (A = n, B = n+1) before
  // JB becomes stealable, so a thief records the right identity. Both
  // children inherit the pml location of the spawning `par` (the VM's
  // current instruction on this thread).
  uint64_t IdA = 0;
  bool SpansOn = obs::spansEnabled();
  if (SpansOn) {
    IdA = obs::spanAllocIds(2);
    JB.SpanId = IdA + 1;
    JB.SpanParent = obs::spanCurrentId();
    JB.SpanLoc = obs::spanCurrentLoc();
  }

  W->Dq.push(&JB);
  obs::emit(obs::Ev::Fork);
  // Schedule fuzzing: widen the window in which JB is stealable.
  chaos::preemptPoint(chaos::Point::Fork);

  // Run branch A inline (work-first).
  obs::SpanTask TaskA;
  obs::SpanTask *SavedTask = nullptr;
  if (SpansOn)
    SavedTask = obs::spanEnterTask(&TaskA, IdA, JB.SpanParent, JB.SpanLoc);
  strandResume(W);
  A(EnvA);
  strandPause(W);
  if (SpansOn)
    obs::spanExitTask(&TaskA, SavedTask);
  double SpanA = W->SpanAccNs;

  double SpanB;
  Job *Popped = W->Dq.pop();
  if (Popped == &JB) {
    // Not stolen: run B inline.
    executeJob(W, &JB);
    SpanB = JB.SpanOutNs;
  } else {
    MPL_CHECK(Popped == nullptr,
              "fork2join: unbalanced deque (nested job leaked)");
    // Stolen: help until the thief finishes.
    obs::emit(obs::Ev::JoinWaitBegin);
    while (!JB.Done.load(std::memory_order_acquire)) {
      // Schedule fuzzing: delayed joins hold the parent here so the thief
      // (and its heap) outlive the window the join rule expects.
      for (uint32_t S = chaos::delayedJoinSpins(); S > 0; --S)
        std::this_thread::yield();
      chaos::preemptPoint(chaos::Point::JoinWait);
      if (!tryStealAndRun(W))
        std::this_thread::yield();
    }
    obs::emit(obs::Ev::JoinWaitEnd);
    SpanB = JB.SpanOutNs;
  }

  W->SpanAccNs = SpanBefore + std::max(SpanA, SpanB);
  strandResume(W);
}

bool Scheduler::tryStealAndRun(Worker *W) {
  int N = numWorkers();
  if (N <= 1)
    return false;
  int64_t AttemptStartNs = nowNs();
  // A few random probes; returning false lets the caller back off.
  for (int Attempt = 0; Attempt < 2 * N; ++Attempt) {
    // Schedule fuzzing: victim choices come from the seed when forced.
    int Victim = chaos::pickVictim(W->Id, N);
    if (Victim < 0)
      Victim =
          static_cast<int>(W->StealRng.nextBounded(static_cast<uint64_t>(N)));
    if (Victim == W->Id)
      continue;
    Worker *V = Workers[Victim];
    if (V->Dq.looksEmpty())
      continue;
    if (Job *J = V->Dq.steal()) {
      NumSteals.inc();
      StealLatencyNs.record(nowNs() - AttemptStartNs);
      obs::emit(obs::Ev::Steal, static_cast<uint64_t>(Victim));
      executeJob(W, J);
      return true;
    }
  }
  return false;
}

void Scheduler::stealLoop(Worker *W) {
  while (!ShuttingDown.load(std::memory_order_acquire)) {
    if (!Active.load(std::memory_order_acquire)) {
      std::this_thread::yield();
      continue;
    }
    chaos::preemptPoint(chaos::Point::StealLoop);
    if (!tryStealAndRun(W) && !chaos::stealStorm())
      std::this_thread::yield();
  }
}
