//===- tests/core_test.cpp - Runtime + entanglement integration tests -----===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "obs/HeapTree.h"
#include "support/EmCounters.h"
#include "support/Stats.h"
#include "support/Timer.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace mpl;
using namespace mpl::ops;

namespace {
rt::Config cfg(int Workers, em::Mode M = em::Mode::Manage) {
  rt::Config C;
  C.NumWorkers = Workers;
  C.Mode = M;
  C.GcMinBytes = 1 << 16; // Small budget: tests exercise GC aggressively.
  return C;
}
} // namespace

TEST(RuntimeTest, RunsAndAllocates) {
  rt::Runtime R(cfg(1));
  int64_t Got = 0;
  R.run([&] {
    Local Ref(newRef(boxInt(41)));
    refSet(Ref.get(), boxInt(unboxInt(refGet(Ref.get())) + 1));
    Got = unboxInt(refGet(Ref.get()));
  });
  EXPECT_EQ(Got, 42);
}

TEST(RuntimeTest, SurvivesForcedCollection) {
  rt::Runtime R(cfg(1));
  R.run([&] {
    Local List(nullptr);
    // Build a 100-node list, GC'ing along the way.
    for (int I = 0; I < 100; ++I) {
      Local Node(newRecord(0b10, {boxInt(I), List.slot()}));
      List.set(Node.get());
      rt::Runtime::current()->maybeCollect(/*Force=*/true);
    }
    // Verify the whole list.
    Object *Cur = List.get();
    for (int I = 99; I >= 0; --I) {
      ASSERT_NE(Cur, nullptr);
      EXPECT_EQ(unboxInt(recGet(Cur, 0)), I);
      Cur = Object::asPointer(recGet(Cur, 1));
    }
    EXPECT_EQ(Cur, nullptr);
  });
}

TEST(RuntimeTest, GarbageCollectedUnderPressure) {
  rt::Runtime R(cfg(1));
  R.run([&] {
    for (int I = 0; I < 200000; ++I)
      newRecord(0, {boxInt(I)}); // All garbage.
  });
  // The policy must have kept residency bounded well below total
  // allocation (200000 * 16B = 3.2MB minimum allocated).
  EXPECT_LT(rt::Runtime::residencyBytes(), 64 << 20);
  EXPECT_GT(StatRegistry::get().valueOf("gc.collections"), 0);
}

TEST(RuntimeTest, ParReturnsBothResults) {
  rt::Runtime R(cfg(2));
  int64_t Sum = 0;
  R.run([&] {
    auto [A, B] = rt::par([&] { return boxInt(10); },
                          [&] { return boxInt(32); });
    Sum = unboxInt(A) + unboxInt(B);
  });
  EXPECT_EQ(Sum, 42);
}

TEST(RuntimeTest, ParResultObjectsMergeIntoParent) {
  rt::Runtime R(cfg(2));
  R.run([&] {
    auto [A, B] = rt::par([&] { return Object::fromPointer(newRef(boxInt(1))); },
                          [&] { return Object::fromPointer(newRef(boxInt(2))); });
    Local LA(A), LB(B);
    // Results were allocated in child heaps; after the join they live in
    // the parent's heap and are freely usable.
    Heap *Cur = rt::Runtime::ctx()->CurrentHeap;
    EXPECT_EQ(Heap::of(LA.get()), Cur);
    EXPECT_EQ(Heap::of(LB.get()), Cur);
    EXPECT_EQ(unboxInt(refGet(LA.get())), 1);
    EXPECT_EQ(unboxInt(refGet(LB.get())), 2);
    // And they survive a collection in the merged heap.
    rt::Runtime::current()->maybeCollect(/*Force=*/true);
    EXPECT_EQ(unboxInt(refGet(LA.get())), 1);
    EXPECT_EQ(unboxInt(refGet(LB.get())), 2);
  });
}

static int64_t parFib(int64_t N) {
  if (N < 2)
    return N;
  if (N < 10)
    return parFib(N - 1) + parFib(N - 2);
  auto [A, B] = rt::par([&] { return boxInt(parFib(N - 1)); },
                        [&] { return boxInt(parFib(N - 2)); });
  return unboxInt(A) + unboxInt(B);
}

TEST(RuntimeTest, NestedParFib) {
  for (int Workers : {1, 2, 4}) {
    rt::Runtime R(cfg(Workers));
    int64_t Got = 0;
    R.run([&] { Got = parFib(20); });
    EXPECT_EQ(Got, 6765) << "workers=" << Workers;
  }
}

TEST(RuntimeTest, RunEndFreesItsHeaps) {
  // A long-lived Runtime (the request server, the REPL) keeps no heap past
  // the run that created it: between runs the manager holds none and the
  // heap-tree walker sees none, while each run still sees its own root.
  rt::Runtime R(cfg(2));
  for (int Run = 0; Run < 100; ++Run) {
    size_t InRun = 0;
    R.run([&] {
      EXPECT_EQ(parFib(14), 377);
      InRun = R.heaps().heapCount();
    });
    EXPECT_GT(InRun, 1u) << "run " << Run;
    EXPECT_EQ(R.heaps().heapCount(), 0u) << "run " << Run;
    obs::HeapTree T;
    ASSERT_TRUE(obs::readHeapTree(T));
    EXPECT_TRUE(T.Heaps.empty()) << "run " << Run;
  }
}

TEST(RuntimeTest, ParForAccumulatesViaArray) {
  rt::Runtime R(cfg(2));
  int64_t Sum = 0;
  R.run([&] {
    constexpr int64_t N = 5000;
    Local Arr(newArray(N, boxInt(0)));
    rt::parFor(0, N, 64, [&](int64_t I) {
      arrSet(Arr.get(), static_cast<uint32_t>(I), boxInt(I));
    });
    for (int64_t I = 0; I < N; ++I)
      Sum += unboxInt(arrGet(Arr.get(), static_cast<uint32_t>(I)));
  });
  EXPECT_EQ(Sum, 5000 * 4999 / 2);
}

TEST(RuntimeTest, BranchAllocationsSurviveBranchGc) {
  rt::Runtime R(cfg(2));
  R.run([&] {
    auto [A, B] = rt::par(
        [&] {
          Local List(nullptr);
          for (int I = 0; I < 500; ++I) {
            Local Node(newRecord(0b10, {boxInt(I), List.slot()}));
            List.set(Node.get());
            if (I % 100 == 0)
              rt::Runtime::current()->maybeCollect(/*Force=*/true);
          }
          int64_t Count = 0;
          for (Object *Cur = List.get(); Cur;
               Cur = Object::asPointer(recGet(Cur, 1)))
            ++Count;
          return boxInt(Count);
        },
        [&] { return boxInt(0); });
    EXPECT_EQ(unboxInt(A), 500);
    (void)B;
  });
}

//===----------------------------------------------------------------------===//
// Entanglement scenarios
//===----------------------------------------------------------------------===//

TEST(EntanglementTest, DisentangledProgramTriggersNoBarrierEvents) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg(2));
  R.run([&] {
    Local Arr(newArray(1000, boxInt(0)));
    rt::parFor(0, 1000, 32, [&](int64_t I) {
      arrSet(Arr.get(), static_cast<uint32_t>(I), boxInt(I * 2));
    });
    int64_t Sum = 0;
    for (uint32_t I = 0; I < 1000; ++I)
      Sum += unboxInt(arrGet(Arr.get(), I));
    EXPECT_EQ(Sum, 999000);
  });
  EXPECT_EQ(StatRegistry::get().valueOf("em.reads.entangled"), 0);
  EXPECT_EQ(StatRegistry::get().valueOf("em.pins.cross"), 0);
}

TEST(EntanglementTest, DownPointerWritePins) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg(1));
  R.run([&] {
    Local Shared(newRef(boxInt(0))); // Depth 0.
    rt::par(
        [&] {
          // Allocated at depth 1, published into a depth-0 ref: this is a
          // down-pointer; the write barrier must pin the boxed value.
          Local Mine(newRef(boxInt(123)));
          refSet(Shared.get(), Object::fromPointer(Mine.get()));
          EXPECT_TRUE(Mine.get()->isPinned());
          EXPECT_EQ(Mine.get()->unpinDepth(), 0u);
          return unit();
        },
        [&] { return unit(); });
    // After the join back to depth 0, the pin must be released.
    Object *Published = Object::asPointer(refGet(Shared.get()));
    ASSERT_NE(Published, nullptr);
    EXPECT_FALSE(Published->isPinned());
    EXPECT_EQ(unboxInt(refGet(Published)), 123);
  });
  EXPECT_GT(StatRegistry::get().valueOf("em.pins.down"), 0);
  EXPECT_GT(StatRegistry::get().valueOf("em.unpins"), 0);
}

TEST(EntanglementTest, EntangledReadDetectedAndManaged) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg(1)); // One worker: branch A fully precedes branch B.
  int64_t SeenByB = -1;
  R.run([&] {
    Local Shared(newRef(boxInt(0)));
    rt::par(
        [&] {
          Local Mine(newRef(boxInt(77)));
          refSet(Shared.get(), Object::fromPointer(Mine.get()));
          return unit();
        },
        [&] {
          // B reads A's object through the shared ref while A's heap is
          // still a concurrent sibling: an entangled read.
          Slot V = refGet(Shared.get());
          Object *P = Object::asPointer(V);
          if (P)
            SeenByB = unboxInt(refGet(P));
          return unit();
        });
  });
  EXPECT_EQ(SeenByB, 77);
  EXPECT_GT(StatRegistry::get().valueOf("em.reads.entangled"), 0);
}

TEST(EntanglementTest, PinnedObjectSurvivesPublisherGc) {
  rt::Runtime R(cfg(1));
  int64_t SeenByB = -1;
  R.run([&] {
    Local Shared(newRef(boxInt(0)));
    rt::par(
        [&] {
          Local Mine(newRef(boxInt(55)));
          refSet(Shared.get(), Object::fromPointer(Mine.get()));
          // Publisher drops its own reference and collects: the pin alone
          // must keep the published object alive and in place.
          Object *Raw = Mine.get();
          Mine.set(nullptr);
          for (int I = 0; I < 50000; ++I)
            newRecord(0, {boxInt(I)});
          rt::Runtime::current()->maybeCollect(/*Force=*/true);
          EXPECT_FALSE(Raw->isForwarded());
          return unit();
        },
        [&] {
          Slot V = refGet(Shared.get());
          Object *P = Object::asPointer(V);
          if (P)
            SeenByB = unboxInt(refGet(P));
          return unit();
        });
  });
  EXPECT_EQ(SeenByB, 55);
}

TEST(EntanglementTest, PinnedClosureTraversableByReader) {
  rt::Runtime R(cfg(1));
  int64_t Sum = 0;
  R.run([&] {
    Local Shared(newRef(boxInt(0)));
    rt::par(
        [&] {
          // Publish an immutable record with two boxed fields: the reader
          // will traverse the record's immutable fields barrier-free, so
          // the whole closure must survive this branch's GC in place.
          Local F1(newRef(boxInt(30)));
          Local F2(newRef(boxInt(12)));
          Local Rec(newRecord(0b11,
                              {Object::fromPointer(F1.get()),
                               Object::fromPointer(F2.get())}));
          refSet(Shared.get(), Object::fromPointer(Rec.get()));
          F1.set(nullptr);
          F2.set(nullptr);
          Rec.set(nullptr);
          for (int I = 0; I < 20000; ++I)
            newRecord(0, {boxInt(I)});
          rt::Runtime::current()->maybeCollect(/*Force=*/true);
          return unit();
        },
        [&] {
          Object *Rec = Object::asPointer(refGet(Shared.get()));
          if (Rec) {
            Object *F1 = Object::asPointer(recGet(Rec, 0));
            Object *F2 = Object::asPointer(recGet(Rec, 1));
            Sum = unboxInt(refGet(F1)) + unboxInt(refGet(F2));
          }
          return unit();
        });
  });
  EXPECT_EQ(Sum, 42);
}

TEST(EntanglementTest, StickyPinRetainsOverwrittenValue) {
  rt::Runtime R(cfg(1));
  int64_t Seen = -1;
  R.run([&] {
    Local Shared(newRef(boxInt(0)));
    rt::par(
        [&] {
          Local P(newRef(boxInt(1)));
          refSet(Shared.get(), Object::fromPointer(P.get()));
          Object *RawP = P.get();
          // Overwrite the published field; the pin must be sticky so a
          // reader that loaded the old pointer earlier stays safe.
          Local Q(newRef(boxInt(2)));
          refSet(Shared.get(), Object::fromPointer(Q.get()));
          EXPECT_TRUE(RawP->isPinned()) << "pins are sticky until join";
          P.set(nullptr);
          rt::Runtime::current()->maybeCollect(/*Force=*/true);
          EXPECT_FALSE(RawP->isForwarded());
          Seen = unboxInt(refGet(RawP));
          return unit();
        },
        [&] { return unit(); });
  });
  EXPECT_EQ(Seen, 1);
}

TEST(EntanglementTest, DetectModeRejectsEntangledRead) {
  auto EntangledProgram = [] {
    rt::Runtime R(cfg(1, em::Mode::Detect));
    R.run([&] {
      Local Shared(newRef(boxInt(0)));
      rt::par(
          [&] {
            Local Mine(newRef(boxInt(1)));
            refSet(Shared.get(), Object::fromPointer(Mine.get()));
            return unit();
          },
          [&] {
            Slot V = refGet(Shared.get()); // Entangled: must reject.
            (void)V;
            return unit();
          });
    });
  };
  // The rejection is a structured, recoverable error (usable as a CI
  // gate), not a process abort.
  EXPECT_THROW(EntangledProgram(), em::EntanglementError);
}

TEST(EntanglementTest, DetectModeAllowsDisentangledPrograms) {
  rt::Runtime R(cfg(2, em::Mode::Detect));
  int64_t Got = 0;
  R.run([&] { Got = parFib(16); });
  EXPECT_EQ(Got, 987);
}

TEST(EntanglementTest, CrossPointerStorePins) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg(1));
  R.run([&] {
    Local SharedA(newRef(boxInt(0))); // Will hold A's object.
    Local SharedB(newRef(boxInt(0))); // B stores A's object + its own.
    rt::par(
        [&] {
          Local Mine(newRef(boxInt(9)));
          refSet(SharedA.get(), Object::fromPointer(Mine.get()));
          return unit();
        },
        [&] {
          // B picks up A's entangled object and stores it into a record
          // field of its OWN fresh mutable record: a cross-pointer.
          Object *FromA = Object::asPointer(refGet(SharedA.get()));
          if (FromA) {
            Local LA(FromA);
            Local Rec(newMutRecord(0b1, {LA.slot()}));
            // Also publish B's record down to depth 0.
            refSet(SharedB.get(), Object::fromPointer(Rec.get()));
          }
          return unit();
        });
    Object *Rec = Object::asPointer(refGet(SharedB.get()));
    ASSERT_NE(Rec, nullptr);
    Object *Inner = Object::asPointer(recGetMut(Rec, 0));
    ASSERT_NE(Inner, nullptr);
    EXPECT_EQ(unboxInt(refGet(Inner)), 9);
  });
  EXPECT_GT(StatRegistry::get().valueOf("em.reads.entangled"), 0);
}

TEST(EntanglementTest, MultiWorkerEntangledStress) {
  // Real concurrency: siblings exchange freshly allocated objects through
  // a shared array while collecting aggressively. Checks value integrity.
  rt::Runtime R(cfg(4));
  constexpr int64_t N = 2000;
  int64_t BadValues = 0;
  R.run([&] {
    Local Board(newArray(N, boxInt(0)));
    rt::par(
        [&] {
          for (int64_t I = 0; I < N; ++I) {
            Local Box(newRef(boxInt(I)));
            arrSet(Board.get(), static_cast<uint32_t>(I),
                   Object::fromPointer(Box.get()));
          }
          rt::Runtime::current()->maybeCollect(/*Force=*/true);
          return unit();
        },
        [&] {
          for (int64_t Round = 0; Round < 3; ++Round)
            for (int64_t I = 0; I < N; ++I) {
              Slot V = arrGet(Board.get(), static_cast<uint32_t>(I));
              if (Object *P = Object::asPointer(V)) {
                int64_t Got = unboxInt(refGet(P));
                if (Got != I)
                  ++BadValues;
              }
            }
          return unit();
        });
  });
  EXPECT_EQ(BadValues, 0);
}

//===----------------------------------------------------------------------===//
// Deadlines (core/Deadline.h): one instant each strand inherits
//===----------------------------------------------------------------------===//

class DeadlineTest : public ::testing::TestWithParam<int> {};

TEST_P(DeadlineTest, ExpiresMidRunReleasesPinsAndRuntimeStaysUsable) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg(GetParam()));
  int64_t Overrun = -1;
  try {
    R.run([&] {
      Local Shared(newRef(boxInt(0))); // Depth 0.
      rt::ScopedDeadline SD(nowNs() + 1000000);
      rt::par(
          [&] {
            // Entangled churn: each fresh ref published into the depth-0
            // ref is pinned until its heap joins at depth 0, so the
            // deadline unwinds a task that holds pins.
            for (int64_t I = 0;; ++I) {
              Local Mine(newRef(boxInt(I)));
              refSet(Shared.get(), Object::fromPointer(Mine.get()));
            }
            return unit();
          },
          [&] { return boxInt(wl::fib(45)); }); // minutes of work
    });
  } catch (const DeadlineError &E) {
    Overrun = E.overrunNs();
  }
  EXPECT_GE(Overrun, 0) << "R.run must rethrow the DeadlineError";
  // The aborted tasks' heaps joined; the join unpin rule released the pins.
  EXPECT_EQ(em::Counts.snapshot().livePinnedObjects(), 0);
  int64_t Got = 0;
  R.run([&] { Got = wl::fib(22); });
  EXPECT_EQ(Got, 17711);
}

TEST_P(DeadlineTest, PastDeadlineThrowsAtFirstPar) {
  rt::Runtime R(cfg(GetParam()));
  int64_t ForksBefore = StatRegistry::get().valueOf("sched.forks");
  bool RanUpToPar = false;
  std::atomic<int> BranchesRun{0};
  EXPECT_THROW(R.run([&] {
    rt::ScopedDeadline SD(nowNs() - 1);
    RanUpToPar = true; // No safe point before the fork.
    rt::par([&] { BranchesRun.fetch_add(1); return unit(); },
            [&] { BranchesRun.fetch_add(1); return unit(); });
  }),
               DeadlineError);
  EXPECT_TRUE(RanUpToPar);
  EXPECT_EQ(BranchesRun.load(), 0);
  EXPECT_EQ(StatRegistry::get().valueOf("sched.forks"), ForksBefore);
}

TEST_P(DeadlineTest, ZeroNeverThrows) {
  rt::Runtime R(cfg(GetParam()));
  int64_t Got = 0;
  R.run([&] {
    rt::ScopedDeadline Past(nowNs() - 1);
    {
      rt::ScopedDeadline None(0); // Shadows the expired one.
      Got = wl::fib(22);
      Local Arr(newArray(1000, boxInt(0)));
      rt::parFor(0, 1000, 1, [&](int64_t I) {
        arrSet(Arr.get(), static_cast<uint32_t>(I), boxInt(I));
      });
    }
    EXPECT_THROW(rt::checkDeadline(), DeadlineError);
  });
  EXPECT_EQ(Got, 17711);
  EXPECT_EQ(rt::Runtime::ctx()->DeadlineNs, 0);
}

TEST_P(DeadlineTest, EveryBranchInheritsTheDeadline) {
  rt::Runtime R(cfg(GetParam()));
  const int64_t DL = nowNs() + int64_t(3600) * 1000000000;
  std::atomic<int64_t> Seen{0}, Wrong{0};
  R.run([&] {
    rt::ScopedDeadline SD(DL);
    rt::parFor(0, 4096, 1, [&](int64_t) {
      Seen.fetch_add(1);
      if (rt::Runtime::ctx()->DeadlineNs != DL)
        Wrong.fetch_add(1);
    });
  });
  EXPECT_EQ(Seen.load(), 4096);
  EXPECT_EQ(Wrong.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Workers, DeadlineTest, ::testing::Values(1, 4));
