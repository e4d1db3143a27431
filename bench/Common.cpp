//===- bench/Common.cpp - Shared benchmark harness --------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/File.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

  Suite.push_back({"tokens", false, [=](bool Seq) {
                     Local T(wl::randomText(NText, 3));
                     return wl::tokens(T.get(), Seq ? NText : 8192);
                   }});

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

StatSnap StatSnap::read() {
  StatRegistry &Reg = StatRegistry::get();
  StatSnap S;
  S.EntangledReads = Reg.valueOf("em.reads.entangled");
  S.PinsDown = Reg.valueOf("em.pins.down");
  S.PinsCross = Reg.valueOf("em.pins.cross");
  S.PinsHolder = Reg.valueOf("em.pins.holder");
  S.PinnedObjects = Reg.valueOf("em.pins.objects");
  S.PinnedBytes = Reg.valueOf("em.pinned.bytes");
  S.Unpins = Reg.valueOf("em.unpins");
  S.ContCaptured = Reg.valueOf("em.cont.captured");
  S.ContResumed = Reg.valueOf("em.cont.resumed");
  S.JitCompiled = Reg.valueOf("pml.jit.compiled");
  S.JitEntries = Reg.valueOf("pml.jit.entries");
  S.JitCodeBytes = Reg.valueOf("pml.jit.code_bytes");
  S.GcCount = Reg.valueOf("gc.collections");
  S.GcMaxPauseNs = Reg.valueOf("gc.pause.max.ns");
  S.GcTotalPauseNs = Reg.valueOf("gc.pause.ns");
  S.GcInPlaceBytes = Reg.valueOf("gc.bytes.inplace");
  S.PeakResidency = Reg.valueOf("mm.bytes.peak");
  return S;
}

namespace {
/// MPL_TRACE_DIR / MPL_METRICS_DIR: after the timed repetitions, run one
/// extra instrumented repetition and write <dir>/<name>.trace.json and/or
/// <dir>/<name>.metrics.json. Kept out of the timed reps so the published
/// numbers are never measured with the tracer armed.
void dumpObservability(const SuiteEntry &Entry, bool Sequential,
                       const rt::Config &Cfg) {
  const char *TraceDir = std::getenv("MPL_TRACE_DIR");
  const char *MetricsDir = std::getenv("MPL_METRICS_DIR");
  if (!TraceDir && !MetricsDir)
    return;
  auto &Tr = obs::Tracer::get();
  auto &Ms = obs::MetricsSampler::get();
  Tr.clear();
  Ms.clearSeries();
  if (TraceDir)
    Tr.enable(obs::TraceOptions{});
  bool StartedSampler = false;
  if (MetricsDir && !Ms.running()) {
    Ms.start(/*IntervalUs=*/1000);
    StartedSampler = true;
  }
  {
    rt::Runtime R(Cfg);
    R.run([&] { (void)Entry.Run(Sequential); });
    // A run shorter than one sampling interval would leave the series
    // empty; take a final sample while the runtime's gauges are live.
    if (MetricsDir)
      Ms.sampleOnce();
  }
  if (StartedSampler)
    Ms.stop();
  if (TraceDir) {
    Tr.disable();
    Tr.writeChromeTrace(std::string(TraceDir) + "/" + Entry.Name +
                        ".trace.json");
    Tr.clear();
  }
  if (MetricsDir)
    Ms.writeJson(std::string(MetricsDir) + "/" + Entry.Name +
                 ".metrics.json");
}
} // namespace

namespace {
/// Per-rep capture so the reported row is one internally consistent rep.
struct RepData {
  double Seconds = 0;
  WorkSpan WS;
  StatSnap Stats;
  std::vector<ProfileSiteRow> Sites;
  int64_t LeakedPins = 0;
  int64_t LeakedBytes = 0;
};

std::vector<ProfileSiteRow> snapshotProfileRows() {
  std::vector<ProfileSiteRow> Rows;
  for (const obs::SiteSnap &S : obs::Profiler::get().snapshot()) {
    ProfileSiteRow R;
    R.Name = S.Name;
    R.Events = S.Events;
    R.Bytes = S.Bytes;
    R.LifetimeP50Ns = S.durQuantileNs(0.50);
    R.LifetimeP99Ns = S.durQuantileNs(0.99);
    Rows.push_back(std::move(R));
  }
  return Rows;
}
} // namespace

int64_t RunResult::profilePinnedBytes() const {
  int64_t N = 0;
  for (const ProfileSiteRow &S : ProfileSites)
    if (S.Name.rfind("em.pin.", 0) == 0 || S.Name == "hh.pin")
      N += S.Bytes;
  return N;
}

RunResult measure(const SuiteEntry &Entry, bool Sequential, int Workers,
                  em::Mode Mode, bool Profile, int Reps, bool SiteProfile,
                  bool Spans) {
  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.Mode = Mode;
  Cfg.Profile = Profile;
  // Honour an env-armed profiler (MPL_PROFILE) even when the caller did
  // not ask, so any bench binary can be site-profiled ad hoc.
  bool ProfWasEnabled = obs::profileEnabled();
  bool Prof = SiteProfile || ProfWasEnabled;

  std::vector<RepData> Data;
  int64_t Checksum = 0;
  // Rep -1 is an untimed warmup: it populates the chunk pool and faults in
  // the pages, so later configurations are not advantaged by reuse.
  for (int Rep = -1; Rep < Reps; ++Rep) {
    if (Prof) {
      // Reset per rep so the captured profile belongs to exactly one rep
      // (pin bytes can differ across reps under real parallelism).
      obs::Profiler::get().reset();
      obs::Profiler::get().enable();
    }
    rt::Runtime R(Cfg);
    StatRegistry::get().resetAll();
    int64_t RepChecksum = 0;
    Timer T;
    WorkSpan WS = R.run([&] { RepChecksum = Entry.Run(Sequential); });
    double Sec = T.elapsedSec();
    if (Rep < 0)
      continue; // Warmup: discard.
    if (Rep > 0 && Checksum != RepChecksum)
      MPL_CHECK(false, "benchmark checksum varies across repetitions");
    Checksum = RepChecksum;
    RepData D;
    D.Seconds = Sec;
    D.WS = WS;
    D.Stats = StatSnap::read();
    em::CounterSnapshot Em = em::Counts.snapshot();
    D.LeakedPins = Em.livePinnedObjects();
    D.LeakedBytes = Em.livePinnedBytes();
    if (Prof)
      D.Sites = snapshotProfileRows();
    Data.push_back(std::move(D));
  }
  if (Prof && !ProfWasEnabled)
    obs::Profiler::get().disable();

  // Lower median: index (N-1)/2 of the sorted times — always a measured
  // rep, so every reported field comes from the same execution.
  std::vector<int> Order(Data.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](int A, int B) {
    return Data[A].Seconds < Data[B].Seconds;
  });
  const RepData &Med = Data[Order[(Data.size() - 1) / 2]];

  RunResult Out;
  Out.Seconds = Med.Seconds;
  Out.MinSeconds = Data[Order.front()].Seconds;
  Out.WS = Med.WS;
  Out.Stats = Med.Stats;
  Out.Checksum = Checksum;
  Out.ProfileSites = Med.Sites;
  Out.LeakedPins = Med.LeakedPins;
  Out.LeakedBytes = Med.LeakedBytes;
  for (const RepData &D : Data)
    Out.RepSeconds.push_back(D.Seconds);
  if (Data.size() > 1) {
    double Mean = 0;
    for (double S : Out.RepSeconds)
      Mean += S;
    Mean /= static_cast<double>(Out.RepSeconds.size());
    double Var = 0;
    for (double S : Out.RepSeconds)
      Var += (S - Mean) * (S - Mean);
    Out.StddevSeconds =
        std::sqrt(Var / static_cast<double>(Out.RepSeconds.size() - 1));
  }

  if (Spans) {
    // One extra untimed rep with the span ledger armed, mirroring the
    // dumpObservability pattern: the ledger's per-task bookkeeping never
    // contaminates the timed reps, and the DAG belongs to exactly one run.
    auto &Ledger = obs::SpanLedger::get();
    bool WasEnabled = Ledger.enabled();
    Ledger.enable();
    {
      rt::Runtime R(Cfg);
      R.run([&] { (void)Entry.Run(Sequential); });
    }
    if (!WasEnabled)
      Ledger.disable();
    obs::SpanRunSummary Sum = Ledger.lastRun();
    Out.Spans.Valid = Sum.Valid;
    Out.Spans.Tasks = Sum.Tasks;
    Out.Spans.Stolen = Sum.Stolen;
    Out.Spans.WorkSec = Sum.LedgerWorkSec;
    Out.Spans.CriticalPathSec = Sum.CriticalPathSec;
    Out.Spans.AgreementPct = Sum.agreementPct();
  }

  dumpObservability(Entry, Sequential, Cfg);
  return Out;
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

BenchJson::BenchJson(std::string BenchId, double Scale, int Reps) {
  W.beginObject()
      .kv("schema", "mpl-bench/1")
      .kv("bench", BenchId)
      .kv("scale", Scale)
      .kv("reps", Reps)
      .kv("warmup_reps", 1)
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
  const StatSnap &St = R.Stats;
  W.endArray()
      .endObject()
      .key("work_span")
      .beginObject()
      .kv("work_s", R.WS.WorkSec)
      .kv("span_s", R.WS.SpanSec)
      .endObject()
      .key("em")
      .beginObject()
      .kv("entangled_reads", St.EntangledReads)
      .kv("pins_down", St.PinsDown)
      .kv("pins_cross", St.PinsCross)
      .kv("pins_holder", St.PinsHolder)
      .kv("pinned_objects", St.PinnedObjects)
      .kv("pinned_bytes", St.PinnedBytes)
      .kv("unpins", St.Unpins)
      .kv("cont_captured", St.ContCaptured)
      .kv("cont_resumed", St.ContResumed)
      .endObject();
  // Additive like "spans": only rows that actually ran the JIT tier carry
  // the block, so existing baselines keep parsing unchanged.
  if (St.JitCompiled > 0)
    W.key("jit")
        .beginObject()
        .kv("compiled", St.JitCompiled)
        .kv("entries", St.JitEntries)
        .kv("code_bytes", St.JitCodeBytes)
        .endObject();
  W.key("gc")
      .beginObject()
      .kv("collections", St.GcCount)
      .kv("max_pause_ns", St.GcMaxPauseNs)
      .kv("total_pause_ns", St.GcTotalPauseNs)
      .kv("inplace_bytes", St.GcInPlaceBytes)
      .endObject()
      .kv("max_residency_bytes", St.PeakResidency)
      .kv("checksum", R.Checksum);
  // Additive: rows measured without Spans carry no block, so existing
  // baselines keep parsing and the gate's join is unaffected.
  if (R.Spans.Valid)
    W.key("spans")
        .beginObject()
        .kv("tasks", R.Spans.Tasks)
        .kv("stolen", R.Spans.Stolen)
        .kv("work_s", R.Spans.WorkSec)
        .kv("critical_path_s", R.Spans.CriticalPathSec)
        .kv("agreement_pct", R.Spans.AgreementPct)
        .endObject();
  W.key("profile")
      .beginObject()
      .kv("leaked_pins", R.LeakedPins)
      .kv("leaked_bytes", R.LeakedBytes)
      .kv("pin_bytes_attributed", R.profilePinnedBytes())
      .key("sites")
      .beginArray();
  for (const ProfileSiteRow &P : R.ProfileSites)
    W.beginObject()
        .kv("name", P.Name)
        .kv("events", P.Events)
        .kv("bytes", P.Bytes)
        .kv("lifetime_p50_ns", P.LifetimeP50Ns)
        .kv("lifetime_p99_ns", P.LifetimeP99Ns)
        .endObject();
  W.endArray().endObject().endObject();
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

void BenchJson::addCustomRow(const std::string &Name,
                             const std::string &Config, double MedianSec,
                             const std::vector<double> &RepSeconds,
                             const ExtraFields &Extra) {
  double Mean = 0;
  for (double R : RepSeconds)
    Mean += R;
  Mean /= std::max<size_t>(RepSeconds.size(), 1);
  double Var = 0;
  for (double R : RepSeconds)
    Var += (R - Mean) * (R - Mean);
  double Stddev = RepSeconds.size() > 1
                      ? std::sqrt(Var / static_cast<double>(RepSeconds.size() - 1))
                      : 0;
  beginRow(Name, Config)
      .key("time")
      .beginObject()
      .kv("median_s", MedianSec)
      .kv("stddev_s", Stddev)
      .key("rep_s")
      .beginArray();
  for (double R : RepSeconds)
    W.value(R);
  W.endArray().endObject();
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
