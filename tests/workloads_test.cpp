//===- tests/workloads_test.cpp - Benchmark kernel correctness ------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Every benchmark kernel is validated against an independly computed
// expected result, across worker counts (parameterized), so that the bench
// numbers later measure *correct* executions.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"
#include "workloads/Collections.h"
#include "workloads/Entangled.h"
#include "workloads/Graph.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using namespace mpl;
using namespace mpl::ops;

namespace {

class WorkloadsTest : public ::testing::TestWithParam<int> {
protected:
  rt::Config cfg() {
    rt::Config C;
    C.NumWorkers = GetParam();
    C.GcMinBytes = 1 << 19; // Aggressive GC in tests.
    return C;
  }
};

} // namespace

TEST_P(WorkloadsTest, Fib) {
  rt::Runtime R(cfg());
  int64_t Got = 0;
  R.run([&] { Got = wl::fib(24, 10); });
  EXPECT_EQ(Got, 46368);
}

TEST_P(WorkloadsTest, TabulateAndSum) {
  rt::Runtime R(cfg());
  int64_t Sum = 0;
  R.run([&] {
    Local A(wl::tabulate(10000, [](int64_t I) { return boxInt(I * I); }, 256));
    Sum = wl::sumInts(A.get(), 256);
  });
  int64_t Expect = 0;
  for (int64_t I = 0; I < 10000; ++I)
    Expect += I * I;
  EXPECT_EQ(Sum, Expect);
}

TEST_P(WorkloadsTest, ScanPlus) {
  rt::Runtime R(cfg());
  std::vector<int64_t> Got;
  int64_t Total = 0;
  R.run([&] {
    Local A(wl::tabulate(1000, [](int64_t I) { return boxInt(I + 1); }, 64));
    Local S(wl::scanPlus(A.get(), 64));
    Local Sums(Object::asPointer(recGet(S.get(), 0)));
    Total = unboxInt(recGet(S.get(), 1));
    for (uint32_t I = 0; I < 1000; ++I)
      Got.push_back(unboxInt(arrGet(Sums.get(), I)));
  });
  EXPECT_EQ(Total, 1000 * 1001 / 2);
  int64_t Acc = 0;
  for (int64_t I = 0; I < 1000; ++I) {
    EXPECT_EQ(Got[static_cast<size_t>(I)], Acc);
    Acc += I + 1;
  }
}

static bool isEven(int64_t V) { return V % 2 == 0; }

TEST_P(WorkloadsTest, FilterInts) {
  rt::Runtime R(cfg());
  std::vector<int64_t> Got;
  R.run([&] {
    Local A(wl::tabulate(1000, [](int64_t I) { return boxInt(I); }, 64));
    Local F(wl::filterInts(A.get(), isEven, 64));
    for (uint32_t I = 0, E = arrLen(F.get()); I < E; ++I)
      Got.push_back(unboxInt(arrGet(F.get(), I)));
  });
  ASSERT_EQ(Got.size(), 500u);
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_EQ(Got[I], static_cast<int64_t>(2 * I));
}

TEST_P(WorkloadsTest, MaxInts) {
  rt::Runtime R(cfg());
  int64_t Got = 0;
  R.run([&] {
    Local A(wl::randomInts(5000, 1 << 30, 17));
    int64_t Expect = INT64_MIN;
    for (uint32_t I = 0; I < 5000; ++I)
      Expect = std::max(Expect, unboxInt(arrGet(A.get(), I)));
    Got = wl::maxInts(A.get(), 128) - Expect;
  });
  EXPECT_EQ(Got, 0);
}

TEST_P(WorkloadsTest, MergesortSortsRandomInput) {
  rt::Runtime R(cfg());
  bool Sorted = false;
  int64_t SumBefore = 0, SumAfter = 0;
  R.run([&] {
    Local A(wl::randomInts(20000, 1 << 20, 42));
    SumBefore = wl::sumInts(A.get());
    Local S(wl::mergesortInts(A.get(), 512));
    Sorted = wl::isSortedInts(S.get());
    SumAfter = wl::sumInts(S.get());
    EXPECT_EQ(arrLen(S.get()), 20000u);
  });
  EXPECT_TRUE(Sorted);
  EXPECT_EQ(SumBefore, SumAfter) << "sorting must permute, not alter";
}

TEST_P(WorkloadsTest, MergesortEdgeCases) {
  rt::Runtime R(cfg());
  R.run([&] {
    // Empty.
    Local E(newArray(0, boxInt(0)));
    Local SE(wl::mergesortInts(E.get()));
    EXPECT_EQ(arrLen(SE.get()), 0u);
    // Single.
    Local One(newArray(1, boxInt(7)));
    Local SOne(wl::mergesortInts(One.get()));
    EXPECT_EQ(unboxInt(arrGet(SOne.get(), 0)), 7);
    // All equal.
    Local Eq(newArray(100, boxInt(5)));
    Local SEq(wl::mergesortInts(Eq.get(), 16));
    EXPECT_TRUE(wl::isSortedInts(SEq.get()));
    // Reverse sorted, with negatives.
    Local Rev(wl::tabulate(500, [](int64_t I) { return boxInt(250 - I); }, 32));
    Local SRev(wl::mergesortInts(Rev.get(), 16));
    EXPECT_TRUE(wl::isSortedInts(SRev.get()));
    EXPECT_EQ(unboxInt(arrGet(SRev.get(), 0)), 250 - 499);
  });
}

TEST_P(WorkloadsTest, QuicksortMatchesMergesort) {
  rt::Runtime R(cfg());
  bool Match = true;
  R.run([&] {
    Local A(wl::randomInts(8000, 1000, 9)); // Many duplicates.
    Local S1(wl::mergesortInts(A.get(), 256));
    Local S2(wl::quicksortInts(A.get(), 256));
    ASSERT_EQ(arrLen(S1.get()), arrLen(S2.get()));
    for (uint32_t I = 0, E = arrLen(S1.get()); I < E; ++I)
      Match &= arrGet(S1.get(), I) == arrGet(S2.get(), I);
  });
  EXPECT_TRUE(Match);
}

TEST_P(WorkloadsTest, NQueensKnownCounts) {
  rt::Runtime R(cfg());
  int64_t Q6 = 0, Q8 = 0;
  R.run([&] {
    Q6 = wl::nqueens(6);
    Q8 = wl::nqueens(8);
  });
  EXPECT_EQ(Q6, 4);
  EXPECT_EQ(Q8, 92);
}

TEST_P(WorkloadsTest, PrimesKnownCounts) {
  rt::Runtime R(cfg());
  int64_t Count = 0;
  int64_t Last = 0;
  R.run([&] {
    Local P(wl::primesUpTo(10000));
    Count = arrLen(P.get());
    Last = unboxInt(arrGet(P.get(), static_cast<uint32_t>(Count - 1)));
    EXPECT_EQ(unboxInt(arrGet(P.get(), 0)), 2);
    EXPECT_EQ(unboxInt(arrGet(P.get(), 3)), 7);
  });
  EXPECT_EQ(Count, 1229); // pi(10^4)
  EXPECT_EQ(Last, 9973);
}

TEST_P(WorkloadsTest, TokensMatchesSequentialCount) {
  rt::Runtime R(cfg());
  int64_t Got = 0, Expect = 0;
  R.run([&] {
    Local T(wl::randomText(100000, 3));
    // Sequential reference count.
    const char *D = strBytes(T.get());
    int64_t Len = static_cast<int64_t>(strLen(T.get()));
    auto Sp = [](char C) { return C == ' ' || C == '\n' || C == '\t'; };
    for (int64_t I = 0; I < Len; ++I)
      if (!Sp(D[I]) && (I == 0 || Sp(D[I - 1])))
        ++Expect;
    Got = wl::tokens(T.get(), 1024);
  });
  EXPECT_EQ(Got, Expect);
  EXPECT_GT(Got, 0);
}

TEST_P(WorkloadsTest, HistogramCountsAll) {
  rt::Runtime R(cfg());
  std::vector<int64_t> Got;
  constexpr int64_t N = 20000, Buckets = 32;
  R.run([&] {
    Local A(wl::randomInts(N, Buckets, 5));
    Local H(wl::histogram(A.get(), Buckets, 256));
    for (uint32_t I = 0; I < Buckets; ++I)
      Got.push_back(unboxInt(arrGet(H.get(), I)));
  });
  int64_t Total = 0;
  for (int64_t C : Got) {
    EXPECT_GE(C, 0);
    Total += C;
  }
  EXPECT_EQ(Total, N);
}

TEST_P(WorkloadsTest, BfsReachesEverythingWithValidParents) {
  rt::Runtime R(cfg());
  int64_t Reached = 0;
  constexpr int64_t N = 3000;
  R.run([&] {
    Local G(wl::buildRandomGraph(N, 4, 11));
    Local P(wl::bfs(G.get(), 0));
    Reached = wl::countReached(P.get());
    // Parent edges must exist in the graph.
    wl::GraphView V = wl::GraphView::of(G.get());
    const int64_t *Par = reinterpret_cast<const int64_t *>(P.get()->slots());
    for (int64_t U = 0; U < N; ++U) {
      if (U == 0) {
        EXPECT_EQ(Par[U], -1);
        continue;
      }
      int64_t Pu = Par[U];
      ASSERT_GE(Pu, 0);
      bool Found = false;
      for (int64_t E = V.Offsets[Pu]; E < V.Offsets[Pu + 1]; ++E)
        Found |= V.Edges[E] == U;
      EXPECT_TRUE(Found) << "parent edge " << Pu << "->" << U;
    }
  });
  EXPECT_EQ(Reached, N);
}

//===----------------------------------------------------------------------===//
// Entangled workloads
//===----------------------------------------------------------------------===//

TEST_P(WorkloadsTest, HashSetBasic) {
  rt::Runtime R(cfg());
  R.run([&] {
    Local T(wl::HashSet::create(100));
    EXPECT_TRUE(wl::HashSet::insert(T.get(), 42));
    EXPECT_FALSE(wl::HashSet::insert(T.get(), 42));
    EXPECT_TRUE(wl::HashSet::insert(T.get(), 43));
    EXPECT_TRUE(wl::HashSet::contains(T.get(), 42));
    EXPECT_FALSE(wl::HashSet::contains(T.get(), 41));
    EXPECT_EQ(wl::HashSet::size(T.get()), 2);
  });
}

TEST_P(WorkloadsTest, DedupCountsDistinctKeys) {
  rt::Runtime R(cfg());
  int64_t Got = 0, Expect = 0;
  R.run([&] {
    Local Keys(wl::randomInts(5000, 700, 23)); // Guaranteed duplicates.
    std::set<int64_t> Ref;
    for (uint32_t I = 0; I < 5000; ++I)
      Ref.insert(unboxInt(arrGet(Keys.get(), I)));
    Expect = static_cast<int64_t>(Ref.size());
    Got = wl::dedup(Keys.get(), 128);
  });
  EXPECT_EQ(Got, Expect);
}

TEST_P(WorkloadsTest, DedupIsEntangledUnderParallelism) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg());
  R.run([&] {
    Local Keys(wl::randomInts(4000, 500, 7));
    wl::dedup(Keys.get(), 64);
  });
  // Publishing boxes into the shared table must pin (down-pointers).
  EXPECT_GT(StatRegistry::get().valueOf("em.pins.down"), 0);
}

TEST_P(WorkloadsTest, ChannelPipelineDeliversEverything) {
  rt::Runtime R(cfg());
  int64_t Sum = 0;
  constexpr int64_t N = 3000;
  R.run([&] { Sum = wl::channelPipeline(N); });
  EXPECT_EQ(Sum, N * (N - 1) / 2);
}

TEST_P(WorkloadsTest, ExchangeRoundTripsIntact) {
  rt::Runtime R(cfg());
  int64_t Ok = 0;
  constexpr int64_t N = 2000;
  R.run([&] { Ok = wl::exchange(N); });
  EXPECT_EQ(Ok, N);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkloadsTest, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return "P" + std::to_string(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Quickhull
//===----------------------------------------------------------------------===//

#include "baseline/Native.h"
#include "workloads/Quickhull.h"

TEST_P(WorkloadsTest, QuickhullMatchesMonotoneChain) {
  rt::Runtime R(cfg());
  int64_t Got = 0;
  R.run([&] {
    Local P(wl::randomPoints(3000, 17));
    Got = wl::quickhullCount(P.get(), 256);
  });
  std::vector<int64_t> Xs, Ys;
  nat::randomPoints(3000, 17, Xs, Ys);
  EXPECT_EQ(Got, nat::convexHullCount(Xs, Ys));
  EXPECT_GE(Got, 3);
}

TEST_P(WorkloadsTest, QuickhullSequentialAndParallelAgree) {
  rt::Runtime R(cfg());
  int64_t Par = 0, Seq = 0;
  R.run([&] {
    Local P(wl::randomPoints(2000, 5));
    Par = wl::quickhullCount(P.get(), 128);
    Seq = wl::quickhullCount(P.get(), 1 << 30);
  });
  EXPECT_EQ(Par, Seq);
}

TEST_P(WorkloadsTest, QuickhullDegenerateSmallInputs) {
  rt::Runtime R(cfg());
  int64_t Tri = 0;
  R.run([&] {
    // A triangle: hull is all three points.
    Local Xs(newRawArray(3 * 8));
    Local Ys(newRawArray(3 * 8));
    int64_t *X = reinterpret_cast<int64_t *>(Xs.get()->slots());
    X[0] = 0; X[1] = 10; X[2] = 5;
    int64_t *Y = reinterpret_cast<int64_t *>(Ys.get()->slots());
    Y[0] = 0; Y[1] = 0; Y[2] = 7;
    Local P(newRecord(0b110, {boxInt(3), Xs.slot(), Ys.slot()}));
    Tri = wl::quickhullCount(P.get(), 16);
  });
  EXPECT_EQ(Tri, 3);
}
