//===- perfbench/src/Harness.cpp - Passes, set-up and metrics -------------===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Serve.h"
#include "Stats.h"

#include "pml/jit/Jit.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <malloc.h>
#include <sched.h>

using namespace mpl;

namespace pb {

namespace {
/// Set at static initialization: as close to process start as the
/// benchmark's own code gets.
const int64_t ProcessStartNs = nowNs();
} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"fj-pure", "fj-entangled",
                                                 "pml"};
  return Names;
}

void Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  LastOk = Ok;
  if (!Ok) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(What);
  }
}

void Result::failLast(const std::string &What) {
  if (LastOk) {
    LastOk = false;
    ++Failed;
  }
  if (Failures.size() < 8)
    Failures.push_back(What);
}

std::string Result::json(bool Traced) const {
  std::string S = "{\"correct\": ";
  S += correct() ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Traced ? PerLayer : EndToEnd) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    S += (First ? "\"" : ", \"") + json::escape(Name) + "\": {\"value\": " +
         Buf + ", \"unit\": \"" + json::escape(M.Unit) + "\"}";
    First = false;
  }
  return S + "}}";
}

namespace {

/// Pins the calling thread to one allowed CPU, the next one on every call,
/// and restores its mask on destruction. Worker 0 is the calling thread, so
/// each pass's sequential work lands on a different CPU in turn: a run
/// samples every CPU alike instead of depending on where the OS first put
/// the process (on a shared host, CPUs differ by up to 1.5x for seconds at
/// a time). Workers 1..P-1 are created before pinning and keep the full
/// mask.
class RotateCpu {
public:
  RotateCpu() {
    if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
      return;
    static unsigned Next = 0;
    std::vector<int> Cpus;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved))
        Cpus.push_back(C);
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Next++ % Cpus.size()], &One);
    Pinned = sched_setaffinity(0, sizeof(One), &One) == 0;
  }
  ~RotateCpu() {
    if (Pinned)
      sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  RotateCpu(const RotateCpu &) = delete;
  RotateCpu &operator=(const RotateCpu &) = delete;

private:
  cpu_set_t Saved;
  bool Pinned = false;
};

} // namespace

PassStats runPass(const std::vector<Op> &Ops, const PassConfig &Cfg,
                  SpanLog &L, Result &Res) {
  jit::setEnabled(Cfg.Jit);
  // Each pass starts from a trimmed malloc heap, so its peak RSS measures
  // the pass rather than what earlier passes left in the allocator.
  malloc_trim(0);
  resetPeakRss();
  PassStats PS;
  SpanLog::Scope Pass(L, std::string(Cfg.Workers == 1 ? "pass.p1" : "pass.pP") +
                             (Cfg.Jit ? ".jit" : ""));
  std::unique_ptr<rt::Runtime> R;
  {
    SpanLog::Scope S(L, "rt.construct");
    rt::Config C;
    C.NumWorkers = Cfg.Workers;
    R = std::make_unique<rt::Runtime>(C);
  }
  RotateCpu Pin;
  for (const Op &O : Ops) {
    OpRun Run;
    std::string Got, Err;
    Probe Before = Probe::read();
    int64_t T0 = nowNs();
    try {
      SpanLog::Scope S(L, "op." + O.Name);
      Got = O.Body(*R, L, Run);
    } catch (const std::exception &E) {
      Err = E.what();
    }
    double Sec = 1e-9 * static_cast<double>(nowNs() - T0);
    Probe D = Probe::delta(Probe::read(), Before);

    Res.check(Err.empty() && Got == O.Expected,
              O.Name + ": got '" + (Err.empty() ? Got : Err) +
                  "', expected '" + O.Expected + "'");
    if (int64_t Leaked = leakedPins())
      Res.failLast(O.Name + ": " + std::to_string(Leaked) +
                   " pins outlived the run");
    if (O.Disentangled && (D.pinEvents() != 0 || D.Em.PinnedObjects != 0))
      Res.failLast(O.Name + ": disentangled operation pinned " +
                   std::to_string(D.Em.PinnedObjects) + " objects");

    PS.Sec += Sec;
    PS.RunSec += Run.RunSec;
    PS.WorkSec += Run.WS.WorkSec;
    PS.SpanSec += Run.WS.SpanSec;
    PS.FrontendSec += Run.FrontendSec;
    PS.CodeOps += Run.CodeOps;
    PS.D.accumulate(D);
    PS.OpMs.push_back(1e3 * Sec);
    PS.OpSec[O.Name] += Sec;
    if (Run.VmSec > 0)
      PS.VmSec[O.Name] += Run.VmSec;
  }
  PS.PeakRssKb = peakRssKb();
  {
    SpanLog::Scope S(L, "rt.destroy");
    R.reset();
  }
  jit::setEnabled(false);
  return PS;
}

namespace {

int availableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return 1;
}

/// Passes per configuration for a run of \p Seconds: each workload's
/// round (one pass of each configuration) was sized on a 4-vCPU machine,
/// and the count depends only on --seconds, so every run of a given
/// length runs the same passes.
int roundsFor(const std::string &Workload, double Seconds) {
  const double SecPerRound = Workload == "fj-pure"        ? 0.8
                             : Workload == "fj-entangled" ? 0.85
                                                          : 0.9;
  return std::max(3, static_cast<int>(std::lround(Seconds / SecPerRound)));
}

template <typename F>
double medianOver(const std::vector<PassStats> &Ps, F Fn) {
  std::vector<double> Xs;
  for (const PassStats &P : Ps)
    Xs.push_back(Fn(P));
  return median(std::move(Xs));
}

/// Each operation's median latency over the passes, one value per
/// operation: a rare pause in one pass does not decide a quantile.
std::vector<double> opMedianMs(const std::vector<PassStats> &Ps) {
  std::vector<double> Med;
  for (size_t I = 0; !Ps.empty() && I < Ps[0].OpMs.size(); ++I)
    Med.push_back(
        medianOver(Ps, [&](const PassStats &P) { return P.OpMs[I]; }));
  return Med;
}

/// Mean per pass of a counter over \p Ps.
template <typename F> double perPass(const std::vector<PassStats> &Ps, F Fn) {
  double Sum = 0;
  for (const PassStats &P : Ps)
    Sum += static_cast<double>(Fn(P.D));
  return Ps.empty() ? 0 : Sum / static_cast<double>(Ps.size());
}

/// An empty rt::par at one worker, in microseconds: the fixed cost of a
/// fork, two child heaps and their join.
double emptyParUs() {
  rt::Config C;
  C.NumWorkers = 1;
  rt::Runtime R(C);
  std::vector<double> Us;
  for (int Rep = 0; Rep < 7; ++Rep) {
    const int N = 20000;
    int64_t T0 = nowNs();
    R.run([&] {
      for (int I = 0; I < N; ++I)
        rt::par([] { return Slot(0); }, [] { return Slot(0); });
    });
    Us.push_back(1e-3 * static_cast<double>(nowNs() - T0) / N);
  }
  return median(std::move(Us));
}

constexpr double MiB = 1024.0 * 1024.0;

/// The workloads have no arrival process: the two latency levels are the
/// two worker counts, and max_rps is the pass loop's throughput at P.
void batchLatencyMetrics(Result &Res, const std::vector<PassStats> &T1,
                         const std::vector<PassStats> &TP) {
  std::vector<double> Low = opMedianMs(T1), High = opMedianMs(TP);
  Res.set("p50_ms.low", quantile(Low, 0.5), "ms");
  Res.set("p99_ms.low", quantile(Low, 0.99), "ms");
  Res.set("p50_ms.high", quantile(High, 0.5), "ms");
  Res.set("p99_ms.high", quantile(High, 0.99), "ms");
  Res.set("max_rps", medianOver(TP, [](const PassStats &P) {
            return static_cast<double>(P.OpMs.size()) / P.Sec;
          }),
          "1/s");
}

void perLayerMetrics(Result &Res, int P, const std::vector<PassStats> &T1,
                     const std::vector<PassStats> &T1Untraced,
                     const std::vector<PassStats> &TP,
                     const std::vector<PassStats> &T1J,
                     const std::vector<PassStats> &TPJ) {
  // sched: work, span and the Brent model, per pass at P.
  double W = medianOver(TP, [](const PassStats &S) { return S.WorkSec; });
  double Sp = medianOver(TP, [](const PassStats &S) { return S.SpanSec; });
  double Run = medianOver(TP, [](const PassStats &S) { return S.RunSec; });
  double Forks = perPass(TP, [](const Probe &D) { return D.Forks; });
  double Steals = perPass(TP, [](const Probe &D) { return D.Steals; });
  Res.layer("sched.forks", Forks, "count");
  Res.layer("sched.steals", Steals, "count");
  Res.layer("sched.steal_ratio", ratio(Steals, Forks), "ratio");
  Res.layer("sched.work_s", W, "s");
  Res.layer("sched.span_s", Sp, "s");
  Res.layer("sched.brent_err", brentError(Run, W, Sp, P), "ratio");
  Res.layer("sched.idle_frac", idleFraction(W, Run, P), "ratio");

  Res.layer("core.par_us", emptyParUs(), "us");
  Res.layer("hh.heaps",
            perPass(TP, [](const Probe &D) { return D.HeapsCreated; }),
            "count");
  Res.layer("hh.joins", perPass(TP, [](const Probe &D) { return D.Joins; }),
            "count");

  // core Em: entanglement traffic per pass at P.
  double Pins = perPass(TP, [](const Probe &D) { return D.pinEvents(); });
  double Pinned =
      perPass(TP, [](const Probe &D) { return D.Em.PinnedObjects; });
  Res.layer("core.entangled_reads",
            perPass(TP, [](const Probe &D) { return D.Em.EntangledReads; }),
            "count");
  Res.layer("core.pins", Pins, "count");
  Res.layer("core.pinned_objects", Pinned, "count");
  Res.layer("core.repin_ratio", ratio(Pins, Pinned), "ratio");
  Res.layer("core.pinned_mb",
            perPass(TP, [](const Probe &D) { return D.Em.PinnedBytes; }) / MiB,
            "MiB");
  Res.layer("core.unpins", perPass(TP, [](const Probe &D) { return D.Unpins; }),
            "count");
  Res.layer("core.leaked_pins", static_cast<double>(leakedPins()), "count");

  double Copied = perPass(TP, [](const Probe &D) { return D.GcCopiedBytes; });
  double Reclaimed =
      perPass(TP, [](const Probe &D) { return D.GcReclaimedBytes; });
  Probe Now = Probe::read();
  Res.layer("gc.collections",
            perPass(TP, [](const Probe &D) { return D.GcCollections; }),
            "count");
  Res.layer("gc.pause_s",
            1e-9 * perPass(TP, [](const Probe &D) { return D.GcPauseNs; }),
            "s");
  Res.layer("gc.pause_max_ms", 1e-6 * static_cast<double>(Now.GcPauseMaxNs),
            "ms");
  Res.layer("gc.copied_mb", Copied / MiB, "MiB");
  Res.layer("gc.inplace_mb",
            perPass(TP, [](const Probe &D) { return D.GcInPlaceBytes; }) / MiB,
            "MiB");
  Res.layer("gc.survival", ratio(Copied, Copied + Reclaimed), "ratio");

  double Fresh = perPass(TP, [](const Probe &D) { return D.ChunksAllocated; });
  double Reused = perPass(TP, [](const Probe &D) { return D.ChunksReused; });
  Res.layer("mm.peak_mb", static_cast<double>(Now.MmPeakBytes) / MiB, "MiB");
  Res.layer("mm.chunks_new", Fresh, "count");
  Res.layer("mm.chunk_reuse", ratio(Reused, Reused + Fresh), "ratio");
  Res.layer("mm.trimmed",
            perPass(TP, [](const Probe &D) { return D.ChunksTrimmed; }),
            "count");
  Res.layer("mm.alloc_retries",
            perPass(TP, [](const Probe &D) { return D.AllocRetries; }),
            "count");
  Res.layer("mm.minflt", perPass(TP, [](const Probe &D) { return D.MinFlt; }),
            "count");

  // pml: front-end per pass, VM time per program at one worker, and what
  // arming the JIT bought each program.
  Res.layer("pml.frontend_s",
            medianOver(TP, [](const PassStats &S) { return S.FrontendSec; }),
            "s");
  Res.layer("pml.code_ops", TP.empty() ? 0 : static_cast<double>(TP[0].CodeOps),
            "count");
  Res.layer("pml.cont_captured",
            perPass(TP, [](const Probe &D) { return D.Em.ContCaptured; }),
            "count");
  Res.layer("pml.cont_resumed",
            perPass(TP, [](const Probe &D) { return D.Em.ContResumed; }),
            "count");
  for (const char *Prog : {"fib", "msort", "sieve", "effects"}) {
    auto Vm = [&](const PassStats &S) {
      auto It = S.VmSec.find(std::string("pml-") + Prog);
      return It == S.VmSec.end() ? 0.0 : It->second;
    };
    double Interp = medianOver(T1, Vm), Jit = medianOver(T1J, Vm);
    Res.layer(std::string("pml.vm_s.") + Prog, Interp, "s");
    Res.layer(std::string("pml.jit.speedup.") + Prog, ratio(Interp, Jit),
            "ratio");
  }
  Res.layer("pml.jit.compiled",
            perPass(TPJ, [](const Probe &D) { return D.JitCompiled; }),
            "count");
  Res.layer("pml.jit.entries",
            perPass(TPJ, [](const Probe &D) { return D.JitEntries; }), "count");
  Res.layer("pml.jit.bailouts",
            perPass(TPJ, [](const Probe &D) { return D.JitBailouts; }),
            "count");
  Res.layer("pml.jit.code_kb",
            perPass(TPJ, [](const Probe &D) { return D.JitCodeBytes; }) / 1024,
            "KiB");

  for (const char *K : {"fib", "nqueens", "msort", "scan", "dedup",
                        "channel", "exchange"}) {
    double S = medianOver(TP, [&](const PassStats &P) {
      auto It = P.OpSec.find(K);
      return It == P.OpSec.end() ? 0.0 : It->second;
    });
    Res.layer(std::string("workloads.") + K + "_s", S, "s");
  }

  double Traced = medianOver(T1, [](const PassStats &S) { return S.Sec; });
  double Untraced =
      medianOver(T1Untraced, [](const PassStats &S) { return S.Sec; });
  Res.layer("obs.overhead", Untraced > 0 ? Traced / Untraced - 1 : 0, "ratio");
}

} // namespace

Result runWorkload(const Options &Opts) {
  Options O = Opts;
  if (O.P <= 0)
    O.P = availableCpus();
  const int P = O.P;
  SpanLog Log(O.Trace), Off(false);
  Result Res;

  // Set-up, three times; setup_s is the median. The first repetition is
  // timed from process start, so it also carries the process's cold costs.
  std::vector<Op> Ops;
  std::vector<double> SetupSec;
  for (int Rep = 0; Rep < 3; ++Rep) {
    int64_t T0 = Rep == 0 ? ProcessStartNs : nowNs();
    SpanLog::Scope S(Log, "setup");
    if (O.Workload == "fj-pure")
      Ops = fjPureOps(O.Seed, O.Scale);
    else if (O.Workload == "fj-entangled")
      Ops = fjEntangledOps(O.Seed, O.Scale);
    else
      Ops = pmlOps(O.Seed, O.Scale);
    runPass(Ops, {P, false}, Off, Res); // warm-up, checked like any pass
    SetupSec.push_back(1e-9 * static_cast<double>(nowNs() - T0));
  }
  Res.set("setup_s", median(SetupSec), "s");

  std::vector<PassStats> T1, T1Untraced, TP, T1J, TPJ;
  for (int Round = 0, N = roundsFor(O.Workload, O.Seconds); Round < N;
       ++Round) {
    // The traced run interleaves untraced passes at one worker, in
    // alternating order, to measure what tracing costs.
    if (O.Trace && Round % 2)
      T1Untraced.push_back(runPass(Ops, {1, false}, Off, Res));
    T1.push_back(runPass(Ops, {1, false}, Log, Res));
    if (O.Trace && Round % 2 == 0)
      T1Untraced.push_back(runPass(Ops, {1, false}, Off, Res));
    TP.push_back(runPass(Ops, {P, false}, Log, Res));
    T1J.push_back(runPass(Ops, {1, true}, Log, Res));
    TPJ.push_back(runPass(Ops, {P, true}, Log, Res));
  }
  auto Sec = [](const PassStats &S) { return S.Sec; };
  Res.set("t1_s", medianOver(T1, Sec), "s");
  Res.set("tp_s", medianOver(TP, Sec), "s");
  Res.set("t1_s.jit", medianOver(T1J, Sec), "s");
  Res.set("tp_s.jit", medianOver(TPJ, Sec), "s");

  Res.set("cpu_s", medianOver(TP, [](const PassStats &S) {
            return S.D.CpuSec;
          }),
          "s");
  batchLatencyMetrics(Res, T1, TP);

  if (O.Trace) {
    perLayerMetrics(Res, P, T1, T1Untraced, TP, T1J, TPJ);
    // The server runs pml programs through the same front-end and VM, so
    // the pml run also measures the wire; the other workloads bypass it.
    serveLayerMetrics(Res, O.Workload == "pml" ? runWirePhase(O, Log, Res)
                                               : ServeStats{});
  }
  // The pass configuration that needs the most memory, each read as the
  // median of its passes: a process-lifetime peak is one extreme sample of
  // allocator timing.
  double PeakKb = 0;
  for (const std::vector<PassStats> *Ps : {&T1, &TP, &T1J, &TPJ})
    PeakKb = std::max(PeakKb, medianOver(*Ps, [](const PassStats &S) {
                        return static_cast<double>(S.PeakRssKb);
                      }));
  Res.set("peak_rss_mb", PeakKb / 1024, "MiB");
  // A last invariant over the whole run, counted as its own operation.
  int64_t Leaked = leakedPins();
  Res.check(Leaked == 0, "run end: " + std::to_string(Leaked) +
                             " pinned objects never unpinned");

  if (O.Trace) {
    // Span self time per name, for the reader of the spans file.
    std::map<std::string, double> Total = Log.totalSeconds();
    std::map<std::string, int64_t> Count = Log.counts();
    for (const auto &[Name, S] : Log.selfSeconds())
      std::fprintf(stderr, "span %-22s self %10.6f s  total %10.6f s  n=%lld\n",
                   Name.c_str(), S, Total[Name],
                   static_cast<long long>(Count[Name]));
    if (!O.SpanPath.empty() && !Log.write(O.SpanPath))
      std::fprintf(stderr, "perfbench: cannot write %s\n", O.SpanPath.c_str());
  }
  return Res;
}

} // namespace pb
