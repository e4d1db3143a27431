//===- tests/stress_test.cpp - Multi-worker stress tests ------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Concurrency stress: real worker threads, aggressive collection budgets,
// and entangled communication patterns, checking value integrity and
// statistic invariants. These tests are about races the deterministic
// suites cannot reach: remote pins during local collections, concurrent
// joins, barrier traffic against entangled reads.
//
//===----------------------------------------------------------------------===//

#include "chaos/ChaosSchedule.h"
#include "core/Em.h"
#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "support/Stats.h"
#include "workloads/Entangled.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace mpl;
using namespace mpl::ops;

namespace {
rt::Config stressCfg(int Workers) {
  rt::Config C;
  C.NumWorkers = Workers;
  C.GcMinBytes = 1 << 17; // Very aggressive: maximize GC interleavings.
  return C;
}

/// CI's memory-pressure stage runs this whole binary with
/// MPL_CHAOS_FAULT_EVERY_N=<n> (n >= 2) and a tight MPL_MEM_LIMIT_MB: every
/// n-th chunk acquisition fails and the governor's recovery ladder must
/// absorb it — all stress tests pass unchanged, zero process aborts. n == 1
/// is rejected (every retry would fail too; the ladder could never settle).
class ChunkFaultEnv : public ::testing::Environment {
public:
  void SetUp() override {
    const char *S = std::getenv("MPL_CHAOS_FAULT_EVERY_N");
    if (!S)
      return;
    int N = std::atoi(S);
    if (N < 2)
      return;
    chaos::Config C;
    C.Seed = 99;
    C.InjectFault = chaos::Fault::FailChunkAlloc;
    C.FaultEveryN = static_cast<uint32_t>(N);
    chaos::enable(C);
    Armed = true;
  }
  void TearDown() override {
    if (Armed)
      chaos::disable();
  }

private:
  bool Armed = false;
};

[[maybe_unused]] const auto *RegisteredEnv =
    ::testing::AddGlobalTestEnvironment(new ChunkFaultEnv);
} // namespace

TEST(StressTest, DeepNestedParWithChurn) {
  rt::Runtime R(stressCfg(4));
  int64_t Got = 0;
  R.run([&] {
    struct Rec {
      static int64_t go(int Depth) {
        if (Depth == 0) {
          // Churn: build and discard a list.
          Local List(nullptr);
          for (int I = 0; I < 200; ++I) {
            Local Node(newRecord(0b10, {boxInt(I), List.slot()}));
            List.set(Node.get());
          }
          int64_t Sum = 0;
          for (Object *Cur = List.get(); Cur;
               Cur = Object::asPointer(recGet(Cur, 1)))
            Sum += unboxInt(recGet(Cur, 0));
          return Sum;
        }
        auto [A, B] = rt::par([&] { return boxInt(go(Depth - 1)); },
                              [&] { return boxInt(go(Depth - 1)); });
        return unboxInt(A) + unboxInt(B);
      }
    };
    Got = Rec::go(6);
  });
  EXPECT_EQ(Got, 64 * (199 * 200 / 2));
}

TEST(StressTest, ManyRoundsOfEntangledExchange) {
  em::Counts.reset();
  rt::Runtime R(stressCfg(4));
  int64_t Bad = 0;
  R.run([&] {
    for (int Round = 0; Round < 20; ++Round)
      if (wl::exchange(500) != 500)
        ++Bad;
  });
  EXPECT_EQ(Bad, 0);
  // Everything pinned must have been released by the joins.
  em::CounterSnapshot S = em::Counts.snapshot();
  EXPECT_GT(S.PinnedBytes, 0);
  EXPECT_EQ(S.livePinnedBytes(), 0);
  EXPECT_EQ(S.livePinnedObjects(), 0);
}

TEST(StressTest, ConcurrentDedupUnderTinyGcBudget) {
  rt::Runtime R(stressCfg(4));
  int64_t Got = 0;
  R.run([&] {
    Local Keys(wl::randomInts(30000, 4000, 99));
    Got = wl::dedup(Keys.get(), 64);
  });
  // Reference count computed natively.
  std::vector<bool> Seen(4000, false);
  int64_t Expect = 0;
  for (int64_t I = 0; I < 30000; ++I) {
    auto V = static_cast<size_t>(
        hash64(99 ^ hash64(static_cast<uint64_t>(I))) % 4000);
    if (!Seen[V]) {
      Seen[V] = true;
      ++Expect;
    }
  }
  EXPECT_EQ(Got, Expect);
}

TEST(StressTest, PipelineRepeatedWithCollections) {
  rt::Runtime R(stressCfg(2));
  int64_t Total = 0;
  R.run([&] {
    for (int Round = 0; Round < 10; ++Round) {
      Total += wl::channelPipeline(2000);
      rt::Runtime::current()->maybeCollect(/*Force=*/true);
    }
  });
  EXPECT_EQ(Total, 10 * (2000 * 1999 / 2));
}

TEST(StressTest, MixedWorkloadsBackToBack) {
  // One runtime, many different kernels in sequence: shakes out state
  // leaking between phases (stale pins, heap accounting, root leaks).
  rt::Runtime R(stressCfg(4));
  R.run([&] {
    EXPECT_EQ(wl::fib(20, 8), 6765);
    Local A(wl::randomInts(20000, 1 << 20, 1));
    Local S(wl::mergesortInts(A.get(), 512));
    EXPECT_TRUE(wl::isSortedInts(S.get()));
    Local K(wl::randomInts(10000, 1500, 2));
    EXPECT_GT(wl::dedup(K.get(), 128), 0);
    EXPECT_EQ(wl::exchange(1000), 1000);
    Local P(wl::primesUpTo(20000));
    EXPECT_EQ(arrLen(P.get()), 2262u); // pi(2*10^4)
    EXPECT_EQ(wl::nqueens(9), 352);
  });
}

TEST(StressTest, SharedCountersWithCas) {
  // Many tasks CAS-increment shared refs: exercises refCas + barriers
  // under contention.
  rt::Runtime R(stressCfg(4));
  int64_t Total = -1;
  R.run([&] {
    Local Counter(newRef(boxInt(0)));
    rt::parFor(0, 4000, 16, [&](int64_t) {
      while (true) {
        Slot Cur = refGet(Counter.get());
        if (refCas(Counter.get(), Cur, boxInt(unboxInt(Cur) + 1)))
          break;
      }
    });
    Total = unboxInt(refGet(Counter.get()));
  });
  EXPECT_EQ(Total, 4000);
}

TEST(StressTest, EntangledTreePassing) {
  // Builds an immutable tree in one branch, publishes the root, and the
  // sibling traverses it fully (entangled immutable traversal) while the
  // builder collects aggressively.
  rt::Runtime R(stressCfg(2));
  int64_t SumA = -1, SumB = -2;
  R.run([&] {
    Local Shared(newRef(boxInt(0)));
    auto [RA, RB] = rt::par(
        [&]() -> Slot {
          struct Build {
            static Object *tree(int Depth, int64_t &Sum, int64_t Next) {
              if (Depth == 0) {
                Sum += Next;
                return newRecord(0, {boxInt(Next)});
              }
              Local L(tree(Depth - 1, Sum, Next * 2));
              Local Rr(tree(Depth - 1, Sum, Next * 2 + 1));
              return newRecord(0b11, {L.slot(), Rr.slot()});
            }
          };
          int64_t Sum = 0;
          Local Root(Build::tree(10, Sum, 1));
          refSet(Shared.get(), Root.slot());
          // Churn + collect after publishing.
          for (int I = 0; I < 30000; ++I)
            newRecord(0, {boxInt(I)});
          rt::Runtime::current()->maybeCollect(/*Force=*/true);
          return boxInt(Sum);
        },
        [&]() -> Slot {
          // Wait for the tree, then sum the leaves barrier-free through
          // immutable fields.
          Object *Root;
          while (!(Root = Object::asPointer(refGet(Shared.get()))))
            std::this_thread::yield();
          struct Walk {
            static int64_t sum(Object *N, int Depth) {
              if (Depth == 0)
                return unboxInt(recGet(N, 0));
              return sum(Object::asPointer(recGet(N, 0)), Depth - 1) +
                     sum(Object::asPointer(recGet(N, 1)), Depth - 1);
            }
          };
          return boxInt(Walk::sum(Root, 10));
        });
    SumA = unboxInt(RA);
    SumB = unboxInt(RB);
  });
  EXPECT_EQ(SumA, SumB) << "reader must observe the exact tree";
}

TEST(StressTest, RepeatedRuntimeLifecycles) {
  // Create/destroy runtimes repeatedly; the chunk pool and heap managers
  // must not leak or corrupt across lifecycles.
  for (int Cycle = 0; Cycle < 6; ++Cycle) {
    rt::Runtime R(stressCfg(1 + Cycle % 3));
    int64_t Got = 0;
    R.run([&] { Got = wl::fib(18, 8); });
    EXPECT_EQ(Got, 2584);
  }
  // All chunks returned (nothing outstanding between runtimes).
  EXPECT_EQ(rt::Runtime::residencyBytes(), 0);
}
