//===- bench/Common.cpp - Shared benchmark harness --------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include "baseline/Native.h"
#include "support/File.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

using namespace mpl;
using namespace mpl::ops;

namespace mpl {
namespace bench {

namespace {
int64_t scaled(double Scale, int64_t N) {
  return std::max<int64_t>(1024, static_cast<int64_t>(N * Scale));
}
} // namespace

std::vector<SuiteEntry> makeSuite(double Scale) {
  std::vector<SuiteEntry> Suite;

  const int64_t NTab = scaled(Scale, 20'000'000);
  const int64_t NScan = scaled(Scale, 8'000'000);
  const int64_t NSort = scaled(Scale, 2'000'000);
  const int64_t NQSort = scaled(Scale, 1'000'000);
  const int64_t NPrimes = scaled(Scale, 8'000'000);
  const int64_t NText = scaled(Scale, 30'000'000);
  const int64_t NHist = scaled(Scale, 15'000'000);
  const int64_t NGraph = scaled(Scale, 500'000);
  const int64_t NDedup = scaled(Scale, 1'000'000);
  const int64_t NChan = scaled(Scale, 150'000);
  const int64_t NExch = scaled(Scale, 200'000);
  const int64_t FibN = Scale >= 1.0 ? 33 : (Scale >= 0.25 ? 30 : 26);

  Suite.push_back({"fib", false, [=](bool Seq) {
                     return wl::fib(FibN, Seq ? FibN : 18);
                   }});
  Suite.back().Native = [=] { return nat::fib(FibN); };

  Suite.push_back({"tabulate", false, [=](bool Seq) {
                     Local A(wl::tabulate(
                         NTab,
                         [](int64_t I) {
                           return boxInt(static_cast<int64_t>(hash64(
                               static_cast<uint64_t>(I))));
                         },
                         Seq ? NTab : wl::DefaultGrain));
                     return static_cast<int64_t>(arrLen(A.get()));
                   }});

  Suite.push_back({"map-reduce", false, [=](bool Seq) {
                     int64_t Grain = Seq ? NTab : wl::DefaultGrain;
                     Local A(wl::tabulate(
                         NTab, [](int64_t I) { return boxInt(I & 0xff); },
                         Grain));
                     return wl::sumInts(A.get(), Grain);
                   }});

  Suite.push_back({"scan", false, [=](bool Seq) {
                     int64_t Grain = Seq ? NScan : wl::DefaultGrain;
                     Local A(wl::tabulate(
                         NScan, [](int64_t I) { return boxInt(I & 0xf); },
                         Grain));
                     Local S(wl::scanPlus(A.get(), Grain));
                     return unboxInt(recGet(S.get(), 1));
                   }});

  Suite.push_back({"filter", false, [=](bool Seq) {
                     int64_t Grain = Seq ? NScan : wl::DefaultGrain;
                     Local A(wl::tabulate(
                         NScan,
                         [](int64_t I) {
                           return boxInt(static_cast<int64_t>(
                               hash64(static_cast<uint64_t>(I)) & 0xffff));
                         },
                         Grain));
                     Local F(wl::filterInts(
                         A.get(), [](int64_t V) { return V % 3 == 0; },
                         Grain));
                     return static_cast<int64_t>(arrLen(F.get()));
                   }});

  Suite.push_back({"msort", false, [=](bool Seq) {
                     Local A(wl::randomInts(NSort, int64_t(1) << 40, 42));
                     Local S(wl::mergesortInts(A.get(), 4096,
                                               /*Parallel=*/!Seq));
                     MPL_CHECK(wl::isSortedInts(S.get()), "msort broken");
                     return unboxInt(arrGet(S.get(), 0));
                   }});
  Suite.back().Native = [=] {
    return nat::sortIdiomatic(nat::randomInts(NSort, int64_t(1) << 40, 42))[0];
  };
  Suite.back().NativeAllocMatch = [=] {
    return nat::msortFunctional(
        nat::randomInts(NSort, int64_t(1) << 40, 42))[0];
  };

  Suite.push_back({"quicksort", false, [=](bool Seq) {
                     Local A(wl::randomInts(NQSort, int64_t(1) << 40, 7));
                     Local S(wl::quicksortInts(A.get(), 8192,
                                               /*Parallel=*/!Seq));
                     MPL_CHECK(wl::isSortedInts(S.get()), "qsort broken");
                     return unboxInt(arrGet(S.get(), 0));
                   }});

  Suite.push_back({"nqueens", false, [=](bool Seq) {
                     return wl::nqueens(11, /*Parallel=*/!Seq);
                   }});

  Suite.push_back({"primes", false, [=](bool Seq) {
                     Local P(wl::primesUpTo(NPrimes,
                                            Seq ? NPrimes + 2 : 8192));
                     return static_cast<int64_t>(arrLen(P.get()));
                   }});
  Suite.back().Native = [=] { return nat::primesCount(NPrimes); };

  Suite.push_back({"tokens", false, [=](bool Seq) {
                     Local T(wl::randomText(NText, 3));
                     return wl::tokens(T.get(), Seq ? NText : 8192);
                   }});
  Suite.back().Native = [=] { return nat::tokens(nat::randomText(NText, 3)); };

  Suite.push_back({"histogram", false, [=](bool Seq) {
                     int64_t Grain = Seq ? NHist : wl::DefaultGrain;
                     Local A(wl::randomInts(NHist, 256, 5));
                     Local H(wl::histogram(A.get(), 256, Grain));
                     return unboxInt(arrGet(H.get(), 0));
                   }});

  Suite.push_back({"bfs", false, [=](bool Seq) {
                     Local G(wl::buildRandomGraph(NGraph, 4, 11));
                     Local P(wl::bfs(G.get(), 0,
                                     Seq ? NGraph : 64));
                     return wl::countReached(P.get());
                   }});
  Suite.back().Native = [=] {
    return nat::bfsReached(nat::buildRandomGraph(NGraph, 4, 11), 0);
  };

  const int64_t NHull = scaled(Scale, 1'000'000);
  Suite.push_back({"quickhull", false, [=](bool Seq) {
                     Local P(wl::randomPoints(NHull, 31));
                     return wl::quickhullCount(P.get(),
                                               Seq ? NHull + 1 : 4096);
                   }});

  // Entangled benchmarks: tasks communicate through effects. These are
  // the programs this paper newly supports.
  Suite.push_back({"dedup-ht", true, [=](bool Seq) {
                     Local K(wl::randomInts(NDedup, NDedup / 4, 23));
                     return wl::dedup(K.get(), Seq ? NDedup : 512);
                   }});
  Suite.back().Native = [=] {
    return nat::dedupIdiomatic(nat::randomInts(NDedup, NDedup / 4, 23));
  };

  Suite.push_back({"channel", true, [=](bool Seq) {
                     (void)Seq; // Two tasks by construction.
                     return wl::channelPipeline(NChan);
                   }});

  Suite.push_back({"exchange", true, [=](bool Seq) {
                     (void)Seq;
                     return wl::exchange(NExch);
                   }});

  return Suite;
}

namespace {
/// Per-rep capture so the reported row is one internally consistent rep.
struct RepData {
  double Seconds = 0;
  WorkSpan WS;
  MetricsSnapshot::Values Counters;
};
} // namespace

int64_t RunResult::counter(std::string_view Name) const {
  auto It = std::lower_bound(
      Counters.begin(), Counters.end(), Name,
      [](const auto &C, std::string_view N) { return C.first < N; });
  return It != Counters.end() && It->first == Name ? It->second : 0;
}

RunResult measure(const std::function<int64_t()> &Body,
                  const std::optional<rt::Config> &Cfg, int Reps) {
  std::vector<RepData> Data;
  int64_t Checksum = 0;
  // Rep -1 is an untimed warmup: it populates the chunk pool and faults in
  // the pages, so later configurations are not advantaged by reuse.
  for (int Rep = -1; Rep < Reps; ++Rep) {
    std::optional<rt::Runtime> R;
    if (Cfg)
      R.emplace(*Cfg);
    StatRegistry::get().resetAll();
    int64_t RepChecksum = 0;
    WorkSpan WS;
    Timer T;
    if (R)
      WS = R->run([&] { RepChecksum = Body(); });
    else
      RepChecksum = Body();
    double Sec = T.elapsedSec();
    MPL_CHECK(Rep < 0 || RepChecksum == Checksum,
              "benchmark checksum varies across repetitions");
    Checksum = RepChecksum;
    if (Rep < 0)
      continue; // Warmup: discard.
    RepData D;
    D.Seconds = Sec;
    D.WS = WS;
    D.Counters = StatRegistry::get().snapshotAll();
    Data.push_back(std::move(D));
  }

  RunResult Out;
  for (const RepData &D : Data)
    Out.RepSeconds.push_back(D.Seconds);
  RepStats St = repStats(Out.RepSeconds);
  // Every reported field comes from the median rep's execution.
  const RepData &Med = Data[St.MedianRep];
  Out.Seconds = St.Median;
  Out.MinSeconds = St.Min;
  Out.StddevSeconds = St.Stddev;
  Out.WS = Med.WS;
  Out.Counters = Med.Counters;
  Out.Checksum = Checksum;
  return Out;
}

RunResult measure(const SuiteEntry &Entry, bool Sequential, int Workers,
                  em::Mode Mode, int Reps) {
  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.Mode = Mode;
  return measure([&] { return Entry.Run(Sequential); }, Cfg, Reps);
}

RepStats repStats(const std::vector<double> &Seconds) {
  RepStats St;
  if (Seconds.empty())
    return St;
  std::vector<size_t> Order(Seconds.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Seconds[A] < Seconds[B];
  });
  St.MedianRep = Order[(Order.size() - 1) / 2];
  St.Median = Seconds[St.MedianRep];
  St.Min = Seconds[Order.front()];
  if (Seconds.size() > 1) {
    double Mean = 0;
    for (double S : Seconds)
      Mean += S;
    Mean /= static_cast<double>(Seconds.size());
    double Var = 0;
    for (double S : Seconds)
      Var += (S - Mean) * (S - Mean);
    St.Stddev = std::sqrt(Var / static_cast<double>(Seconds.size() - 1));
  }
  return St;
}

std::string methodologyLine(int Reps) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "methodology: lower median of %d timed rep%s "
                "(1 untimed warmup rep discarded); spread as +-stddev, "
                "full per-rep times in -json output",
                Reps, Reps == 1 ? "" : "s");
  return Buf;
}

std::string fmtSecPm(double MedianSec, double StddevSec) {
  std::string S = Table::fmtSec(MedianSec);
  if (StddevSec > 0) {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "+-%.0f%%",
                  100.0 * StddevSec / std::max(MedianSec, 1e-12));
    S += Buf;
  }
  return S;
}

//===----------------------------------------------------------------------===//
// BenchJson
//===----------------------------------------------------------------------===//

BenchJson::BenchJson(std::string BenchId, double Scale, int Reps,
                     int WarmupReps) {
  W.beginObject()
      .kv("schema", "mpl-bench/2")
      .kv("bench", BenchId)
      .kv("scale", Scale)
      .kv("reps", Reps)
      .kv("warmup_reps", WarmupReps)
      .kv("statistic", "median_lower");
}

void BenchJson::addMeta(const std::string &Key, const std::string &Value) {
  MPL_CHECK(!RowsOpen, "BenchJson meta added after the first row");
  W.kv(Key, Value);
}

void BenchJson::addMetaInt(const std::string &Key, int64_t Value) {
  MPL_CHECK(!RowsOpen, "BenchJson meta added after the first row");
  W.kv(Key, Value);
}

json::Writer &BenchJson::beginRow(const std::string &Name,
                                  const std::string &Config) {
  if (!RowsOpen)
    W.key("rows").beginArray();
  RowsOpen = true;
  return W.newline().beginObject().kv("name", Name).kv("config", Config);
}

void BenchJson::addRow(const std::string &Name, const std::string &Config,
                       bool Entangled, const RunResult &R) {
  beginRow(Name, Config)
      .kv("entangled", Entangled)
      .key("time")
      .beginObject()
      .kv("median_s", R.Seconds)
      .kv("min_s", R.MinSeconds)
      .kv("stddev_s", R.StddevSeconds)
      .key("rep_s")
      .beginArray();
  for (double S : R.RepSeconds)
    W.value(S);
  W.endArray()
      .endObject()
      .key("work_span")
      .beginObject()
      .kv("work_s", R.WS.WorkSec)
      .kv("span_s", R.WS.SpanSec)
      .endObject();
  writeJson(W.key("counters"), R.Counters);
  W.kv("checksum", R.Checksum).endObject();
}

void BenchJson::addCustomRow(const std::string &Name,
                             const std::string &Config, double MedianSec,
                             const ExtraFields &Extra) {
  beginRow(Name, Config)
      .key("time")
      .beginObject()
      .kv("median_s", MedianSec)
      .endObject();
  if (Extra)
    Extra(W);
  W.endObject();
}

std::string BenchJson::dump() const {
  json::Writer D = W;
  if (!RowsOpen)
    D.key("rows").beginArray();
  D.newline().endArray().endObject().newline();
  return D.take();
}

bool BenchJson::write(const std::string &Path) const {
  if (!writeFile(Path, dump())) {
    std::fprintf(stderr, "bench: cannot write -json path '%s'\n",
                 Path.c_str());
    return false;
  }
  std::printf("json: wrote %s\n", Path.c_str());
  return true;
}

} // namespace bench
} // namespace mpl
