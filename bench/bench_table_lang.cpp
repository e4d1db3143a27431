//===- bench/bench_table_lang.cpp - Paper table T3: cross-language ----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Regenerates the cross-language comparison. The paper compares MPL with
// C++, Go, Java, and OCaml; only the C++ column is reproducible in this
// offline container (DESIGN.md §2), so the table reports:
//   * C++ idiomatic:  what a practitioner writes (std::sort, etc.);
//   * C++ alloc-match: allocation behaviour matched to the functional code;
//   * mpl-em T_1:     our runtime, one worker, full management.
// The paper's claim being tested: the managed functional runtime is in the
// same ballpark as procedural C++ (typically within 1-3x of idiomatic).
//
//===----------------------------------------------------------------------===//

#include "baseline/Native.h"
#include "bench/Common.h"
#include "support/Cli.h"

#include <algorithm>
#include <cstdio>

using namespace mpl;
using namespace mpl::bench;
using namespace mpl::ops;

namespace {

double timeMedian(int Reps, const std::function<int64_t()> &Fn,
                  int64_t *Checksum) {
  std::vector<double> Times;
  for (int I = 0; I < Reps; ++I) {
    Timer T;
    int64_t Sum = Fn();
    Times.push_back(T.elapsedSec());
    *Checksum = Sum;
  }
  return repStats(Times).Median;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C(Argc, Argv);
  double Scale = C.getDouble("scale", 0.25);
  int Reps = static_cast<int>(C.getInt("reps", 2));
  std::string JsonPath = C.getString("json", "");

  const int64_t NSort = std::max<int64_t>(1024, int64_t(2'000'000 * Scale));
  const int64_t NPrimes = std::max<int64_t>(1024, int64_t(8'000'000 * Scale));
  const int64_t NText = std::max<int64_t>(1024, int64_t(30'000'000 * Scale));
  const int64_t NDedup = std::max<int64_t>(1024, int64_t(1'000'000 * Scale));
  const int64_t NGraph = std::max<int64_t>(1024, int64_t(500'000 * Scale));
  const int64_t FibN = Scale >= 1.0 ? 33 : (Scale >= 0.25 ? 30 : 26);

  std::printf("== T3: cross-language comparison (scale=%.2f; Go/Java/OCaml "
              "columns not reproducible offline) ==\n%s\n",
              Scale, methodologyLine(Reps).c_str());
  BenchJson J("table_lang", Scale, Reps);

  Table T({"benchmark", "C++ idiomatic", "C++ alloc-match", "mpl-em T_1",
           "mpl/idiomatic"});

  struct Row {
    const char *Name;
    std::function<int64_t()> Idiomatic;
    std::function<int64_t()> AllocMatch;
    std::function<int64_t()> Mpl; // Runs inside a Runtime.
  };

  std::vector<Row> Rows;

  Rows.push_back(
      {"fib", [&] { return nat::fib(FibN); }, [&] { return nat::fib(FibN); },
       [&] { return wl::fib(FibN, 18); }});

  Rows.push_back({"msort",
                  [&] {
                    auto V = nat::randomInts(NSort, int64_t(1) << 40, 42);
                    return nat::sortIdiomatic(std::move(V))[0];
                  },
                  [&] {
                    auto V = nat::randomInts(NSort, int64_t(1) << 40, 42);
                    return nat::msortFunctional(V)[0];
                  },
                  [&] {
                    Local A(wl::randomInts(NSort, int64_t(1) << 40, 42));
                    Local S(wl::mergesortInts(A.get(), 4096));
                    return unboxInt(arrGet(S.get(), 0));
                  }});

  Rows.push_back({"primes", [&] { return nat::primesCount(NPrimes); },
                  [&] { return nat::primesCount(NPrimes); },
                  [&] {
                    Local P(wl::primesUpTo(NPrimes, 8192));
                    return static_cast<int64_t>(arrLen(P.get()));
                  }});

  Rows.push_back({"tokens",
                  [&] { return nat::tokens(nat::randomText(NText, 3)); },
                  [&] { return nat::tokens(nat::randomText(NText, 3)); },
                  [&] {
                    Local S(wl::randomText(NText, 3));
                    return wl::tokens(S.get(), 8192);
                  }});

  Rows.push_back(
      {"dedup",
       [&] {
         return nat::dedupIdiomatic(nat::randomInts(NDedup, NDedup / 4, 23));
       },
       [&] {
         return nat::dedupIdiomatic(nat::randomInts(NDedup, NDedup / 4, 23));
       },
       [&] {
         Local K(wl::randomInts(NDedup, NDedup / 4, 23));
         return wl::dedup(K.get(), 512);
       }});

  Rows.push_back({"bfs",
                  [&] {
                    auto G = nat::buildRandomGraph(NGraph, 4, 11);
                    return nat::bfsReached(G, 0);
                  },
                  [&] {
                    auto G = nat::buildRandomGraph(NGraph, 4, 11);
                    return nat::bfsReached(G, 0);
                  },
                  [&] {
                    Local G(wl::buildRandomGraph(NGraph, 4, 11));
                    Local P(wl::bfs(G.get(), 0, 64));
                    return wl::countReached(P.get());
                  }});

  for (const Row &R : Rows) {
    int64_t CkI = 0, CkA = 0, CkM = 0;
    double TI = timeMedian(Reps, R.Idiomatic, &CkI);
    double TA = timeMedian(Reps, R.AllocMatch, &CkA);

    std::vector<double> MplTimes;
    for (int I = 0; I < Reps; ++I) {
      rt::Config Cfg;
      Cfg.NumWorkers = 1;
      Cfg.Profile = false;
      rt::Runtime Rt(Cfg);
      Timer T;
      Rt.run([&] { CkM = R.Mpl(); });
      MplTimes.push_back(T.elapsedSec());
    }
    double TM = repStats(MplTimes).Median;
    MPL_CHECK(CkI == CkM && CkA == CkM,
              "cross-language kernels computed different results");

    T.addRow({R.Name, Table::fmtSec(TI), Table::fmtSec(TA),
              Table::fmtSec(TM), Table::fmtRatio(TM / TI)});
    J.addCustomRow(R.Name, "mpl-w1", TM, [&](json::Writer &W) {
      W.kv("idiomatic_s", TI).kv("alloc_match_s", TA).kv("checksum", CkM);
    });
  }
  T.print();
  if (!JsonPath.empty() && !J.write(JsonPath))
    return 1;
  return 0;
}
