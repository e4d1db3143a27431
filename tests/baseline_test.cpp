//===- tests/baseline_test.cpp - Native baselines match runtime kernels ---===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// The cross-language table (T3) is only meaningful if both sides compute
// the same thing; these tests pin the native kernels to the runtime
// kernels' results.
//
//===----------------------------------------------------------------------===//

#include "baseline/Native.h"
#include "workloads/Collections.h"
#include "workloads/Entangled.h"
#include "workloads/Graph.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

using namespace mpl;
using namespace mpl::ops;

TEST(BaselineTest, FibMatches) {
  rt::Runtime R({.NumWorkers = 1});
  int64_t Rt = 0;
  R.run([&] { Rt = wl::fib(20, 8); });
  EXPECT_EQ(Rt, nat::fib(20));
}

TEST(BaselineTest, RandomIntsMatch) {
  rt::Runtime R({.NumWorkers = 1});
  std::vector<int64_t> FromRt;
  R.run([&] {
    Local A(wl::randomInts(1000, 1 << 20, 77));
    for (uint32_t I = 0; I < 1000; ++I)
      FromRt.push_back(unboxInt(arrGet(A.get(), I)));
  });
  std::vector<int64_t> FromNat = nat::randomInts(1000, 1 << 20, 77);
  EXPECT_EQ(FromRt, FromNat) << "same seed derivation on both sides";
}

TEST(BaselineTest, SortsAgree) {
  std::vector<int64_t> V = nat::randomInts(20000, 1 << 16, 3);
  std::vector<int64_t> A = nat::sortIdiomatic(V);
  std::vector<int64_t> B = nat::msortFunctional(V);
  EXPECT_EQ(A, B);
  EXPECT_TRUE(std::is_sorted(A.begin(), A.end()));
}

TEST(BaselineTest, SortMatchesRuntimeSort) {
  rt::Runtime R({.NumWorkers = 1});
  std::vector<int64_t> FromRt;
  R.run([&] {
    Local A(wl::randomInts(5000, 1 << 16, 3));
    Local S(wl::mergesortInts(A.get(), 256));
    for (uint32_t I = 0; I < 5000; ++I)
      FromRt.push_back(unboxInt(arrGet(S.get(), I)));
  });
  std::vector<int64_t> Expect =
      nat::sortIdiomatic(nat::randomInts(5000, 1 << 16, 3));
  EXPECT_EQ(FromRt, Expect);
}

TEST(BaselineTest, NQueensMatches) {
  rt::Runtime R({.NumWorkers = 1});
  int64_t Rt = 0;
  R.run([&] { Rt = wl::nqueens(8); });
  EXPECT_EQ(Rt, nat::nqueens(8));
  EXPECT_EQ(nat::nqueens(6), 4);
}

TEST(BaselineTest, PrimesMatch) {
  rt::Runtime R({.NumWorkers = 1});
  int64_t Count = 0;
  R.run([&] {
    Local P(wl::primesUpTo(50000));
    Count = arrLen(P.get());
  });
  EXPECT_EQ(Count, nat::primesCount(50000));
}

TEST(BaselineTest, TokensMatch) {
  rt::Runtime R({.NumWorkers = 1});
  int64_t Rt = 0;
  R.run([&] {
    Local T(wl::randomText(50000, 5));
    Rt = wl::tokens(T.get());
  });
  EXPECT_EQ(Rt, nat::tokens(nat::randomText(50000, 5)));
}

TEST(BaselineTest, DedupMatches) {
  rt::Runtime R({.NumWorkers = 1});
  int64_t Rt = 0;
  R.run([&] {
    Local K(wl::randomInts(4000, 600, 13));
    Rt = wl::dedup(K.get(), 128);
  });
  EXPECT_EQ(Rt, nat::dedupIdiomatic(nat::randomInts(4000, 600, 13)));
}

TEST(BaselineTest, GraphsIdenticalAndBfsAgrees) {
  nat::Graph NG = nat::buildRandomGraph(2000, 4, 11);
  rt::Runtime R({.NumWorkers = 1});
  int64_t Reached = 0;
  R.run([&] {
    Local G(wl::buildRandomGraph(2000, 4, 11));
    wl::GraphView V = wl::GraphView::of(G.get());
    ASSERT_EQ(V.NumVertices, NG.N);
    ASSERT_EQ(V.NumEdges,
              static_cast<int64_t>(NG.Edges.size()));
    for (int64_t I = 0; I <= 2000; ++I)
      ASSERT_EQ(V.Offsets[I], NG.Offsets[static_cast<size_t>(I)]);
    for (size_t I = 0; I < NG.Edges.size(); ++I)
      ASSERT_EQ(V.Edges[I], NG.Edges[I]);
    Local P(wl::bfs(G.get(), 0));
    Reached = wl::countReached(P.get());
  });
  EXPECT_EQ(Reached, nat::bfsReached(NG, 0));
  EXPECT_EQ(Reached, 2000);
}

TEST(BaselineTest, HistogramMatches) {
  std::vector<int64_t> V = nat::randomInts(10000, 64, 21);
  std::vector<int64_t> NH = nat::histogram(V, 64);
  rt::Runtime R({.NumWorkers = 1});
  std::vector<int64_t> RH;
  R.run([&] {
    Local A(wl::randomInts(10000, 64, 21));
    Local H(wl::histogram(A.get(), 64, 512));
    for (uint32_t I = 0; I < 64; ++I)
      RH.push_back(unboxInt(arrGet(H.get(), I)));
  });
  EXPECT_EQ(RH, NH);
}
