//===- tests/sched_test.cpp - Unit tests for the scheduler ----------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sched/Deque.h"
#include "sched/Job.h"
#include "sched/Scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

using namespace mpl;

TEST(DequeTest, PushPopLifo) {
  Deque D;
  Job J1, J2, J3;
  D.push(&J1);
  D.push(&J2);
  D.push(&J3);
  EXPECT_EQ(D.pop(), &J3);
  EXPECT_EQ(D.pop(), &J2);
  EXPECT_EQ(D.pop(), &J1);
  EXPECT_EQ(D.pop(), nullptr);
}

TEST(DequeTest, StealFifo) {
  Deque D;
  Job J1, J2;
  D.push(&J1);
  D.push(&J2);
  EXPECT_EQ(D.steal(), &J1);
  EXPECT_EQ(D.steal(), &J2);
  EXPECT_EQ(D.steal(), nullptr);
}

TEST(DequeTest, ConcurrentStealersGetEachJobOnce) {
  Deque D;
  constexpr int N = 4096;
  std::vector<Job> Jobs(N);
  for (auto &J : Jobs)
    D.push(&J);

  std::atomic<int> Stolen{0};
  std::vector<std::thread> Thieves;
  for (int T = 0; T < 4; ++T)
    Thieves.emplace_back([&] {
      while (true) {
        Job *J = D.steal();
        if (!J) {
          if (D.looksEmpty())
            break;
          continue;
        }
        // Each job must be won exactly once.
        uint32_t Prev = J->Done.fetch_add(1);
        EXPECT_EQ(Prev, 0u);
        Stolen.fetch_add(1);
      }
    });
  for (auto &T : Thieves)
    T.join();
  EXPECT_EQ(Stolen.load(), N);
}

TEST(SchedulerTest, RunsRoot) {
  Scheduler S({.NumWorkers = 1});
  int X = 0;
  S.run([&] { X = 42; });
  EXPECT_EQ(X, 42);
}

TEST(SchedulerTest, ForkJoinComputesBothBranches) {
  Scheduler S({.NumWorkers = 2});
  int A = 0, B = 0;
  S.run([&] { S.fork2join([&] { A = 1; }, [&] { B = 2; }); });
  EXPECT_EQ(A, 1);
  EXPECT_EQ(B, 2);
}

static int64_t schedFib(Scheduler &S, int64_t N) {
  if (N < 2)
    return N;
  if (N < 12) // Grain: run small subtrees sequentially.
    return schedFib(S, N - 1) + schedFib(S, N - 2);
  int64_t A = 0, B = 0;
  S.fork2join([&] { A = schedFib(S, N - 1); },
              [&] { B = schedFib(S, N - 2); });
  return A + B;
}

TEST(SchedulerTest, NestedForkJoinFib) {
  for (int Workers : {1, 2, 4}) {
    Scheduler S({.NumWorkers = Workers});
    int64_t R = 0;
    S.run([&] { R = schedFib(S, 22); });
    EXPECT_EQ(R, 17711) << "workers=" << Workers;
  }
}

TEST(SchedulerTest, ParallelForCoversRange) {
  Scheduler S({.NumWorkers = 3});
  constexpr int64_t N = 10000;
  std::vector<std::atomic<int>> Hits(N);
  S.run([&] {
    S.parallelFor(0, N, 64, [&](int64_t I) { Hits[I].fetch_add(1); });
  });
  for (int64_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(SchedulerTest, ParallelForEmptyAndTinyRanges) {
  Scheduler S({.NumWorkers = 2});
  int Count = 0;
  S.run([&] {
    S.parallelFor(5, 5, 1, [&](int64_t) { ++Count; });
    S.parallelFor(0, 1, 1, [&](int64_t) { ++Count; });
  });
  EXPECT_EQ(Count, 1);
}

TEST(WorkSpanTest, WorkAtLeastSpan) {
  Scheduler S({.NumWorkers = 1});
  WorkSpan WS = S.run([&] { volatile int64_t X = schedFib(S, 20); (void)X; });
  EXPECT_GT(WS.WorkSec, 0.0);
  EXPECT_GT(WS.SpanSec, 0.0);
  // Work >= span always (with slack for clock jitter).
  EXPECT_GE(WS.WorkSec * 1.05, WS.SpanSec);
}

TEST(WorkSpanTest, ParallelWorkloadHasParallelism) {
  // fib has abundant parallelism: W/S should clearly exceed 1 even with
  // sequential execution underneath.
  Scheduler S({.NumWorkers = 1});
  WorkSpan WS = S.run([&] { volatile int64_t X = schedFib(S, 26); (void)X; });
  EXPECT_GT(WS.WorkSec / WS.SpanSec, 1.5);
  // And the Brent bound must be monotone in P.
  EXPECT_GT(WS.predictedTime(1), WS.predictedTime(8));
  EXPECT_GE(WS.predictedTime(8), WS.SpanSec);
}

TEST(WorkSpanTest, SequentialChainHasNoParallelism) {
  // A purely sequential computation: span == work (no forks).
  Scheduler S({.NumWorkers = 2});
  WorkSpan WS = S.run([&] {
    volatile int64_t Acc = 0;
    for (int I = 0; I < 2000000; ++I)
      Acc = Acc + I;
  });
  EXPECT_NEAR(WS.WorkSec, WS.SpanSec, WS.WorkSec * 0.2);
}
