//===- bench/bench_table_pml.cpp - PML carrier overhead ---------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Supplementary table: the same algorithm expressed three ways —
//   (1) native C++ (no managed runtime),
//   (2) the C++ embedding of the managed runtime (compiled barriers),
//   (3) PML compiled to bytecode and interpreted by the VM.
// The paper's carrier is a whole-program ML compiler; our PML carrier is a
// bytecode interpreter, so (3)/(2) isolates *interpreter* overhead from
// the runtime itself, and (2)/(1) isolates the runtime overhead the other
// tables study. Every (3) run still uses the full hierarchical-heap +
// entanglement machinery (the VM allocates everything on the runtime
// heaps).
//
//===----------------------------------------------------------------------===//

#include "baseline/Native.h"
#include "bench/Common.h"
#include "core/Em.h"
#include "obs/Span.h"
#include "pml/Vm.h"
#include "pml/jit/Jit.h"
#include "support/Cli.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace mpl;
using namespace mpl::bench;
using namespace mpl::ops;

namespace {

/// The four carrier kernels, shared by the main table and the JIT
/// ablation so both measure literally the same programs.
const char *FibSrc = "fun fib n = if n < 2 then n else fib (n-1) + "
                     "fib (n-2)\nfib 25";
const char *SumSrc =
    "fun loop i acc = if i = 3000000 then acc else loop (i+1) (acc+i)\n"
    "loop 0 0";
const char *SieveSrc =
    "val n = 200000\n"
    "val composite = alloc (n + 1) false\n"
    "fun mark m p = if m > n then () else (set composite m true; "
    "mark (m + p) p)\n"
    "fun sieve p = if p * p > n then () else\n"
    "  ((if get composite p then () else mark (p * p) p); "
    "sieve (p + 1))\n"
    "fun count i acc = if i > n then acc else\n"
    "  count (i + 1) (if get composite i then acc else acc + 1)\n"
    "sieve 2;\ncount 2 0";
const char *EffSrc =
    "effect Yield\n"
    "effect Out\n"
    "val acc = alloc 1 0\n"
    "fun produce i = if i = 2000 then () else (perform Yield i; "
    "produce (i + 1))\n"
    "fun stage1 u = handle produce 0 with\n"
    "  | Yield v k => (perform Out (v * 2 + 1); resume k ()) end\n"
    "fun sink u = handle stage1 () with\n"
    "  | Out v k => (set acc 0 (get acc 0 + v); resume k ()) end\n"
    "sink ();\nprintInt (get acc 0)";

double timePml(const std::string &Src, int Reps, std::string *ValueOut) {
  std::vector<double> Times;
  for (int I = 0; I < Reps; ++I) {
    rt::Config Cfg;
    Cfg.NumWorkers = 1;
    Cfg.Profile = false;
    rt::Runtime R(Cfg);
    Timer T;
    R.run([&] {
      std::string Output, Rendered, TypeStr;
      std::vector<std::string> Errors;
      bool Ok = pml::evalSource(Src, Output, Rendered, TypeStr, Errors);
      MPL_CHECK(Ok, "pml benchmark program failed");
      *ValueOut = Rendered;
    });
    Times.push_back(T.elapsedSec());
  }
  return repStats(Times).Median;
}

/// Like timePml but for effectful programs: the interesting result is the
/// printed output (not the final value), and the em continuation counters
/// of the run are reported so the CI gate (BENCH_T3, --gate-counters) can
/// hold the row's capture/resume traffic steady.
double timePmlEff(const std::string &Src, int Reps, std::string *OutputOut,
                  int64_t *CapturedOut, int64_t *ResumedOut) {
  std::vector<double> Times;
  for (int I = 0; I < Reps; ++I) {
    rt::Config Cfg;
    Cfg.NumWorkers = 1;
    Cfg.Profile = false;
    em::Counts.reset();
    rt::Runtime R(Cfg);
    Timer T;
    R.run([&] {
      std::string Output, Rendered, TypeStr;
      std::vector<std::string> Errors;
      bool Ok = pml::evalSource(Src, Output, Rendered, TypeStr, Errors);
      MPL_CHECK(Ok, "pml benchmark program failed");
      *OutputOut = Output;
    });
    Times.push_back(T.elapsedSec());
    auto S = em::Counts.snapshot();
    *CapturedOut = S.ContCaptured;
    *ResumedOut = S.ContResumed;
  }
  return repStats(Times).Median;
}

/// One extra *untimed* run of \p Src with the causal span ledger armed
/// (obs/Span.h) — mirrors bench::measure's Spans rep. Returns the run's
/// critical-path fraction CP/W in percent, or -1 when the DAG is
/// incomplete. 100% on these 1-worker rows means a serial schedule; the
/// effect rows show how much of the VM's work the run's length depends on.
double pmlCpPct(const std::string &Src) {
  auto &Ledger = obs::SpanLedger::get();
  bool WasEnabled = Ledger.enabled();
  Ledger.enable();
  {
    rt::Config Cfg;
    Cfg.NumWorkers = 1;
    Cfg.Profile = false;
    rt::Runtime R(Cfg);
    R.run([&] {
      std::string Output, Rendered, TypeStr;
      std::vector<std::string> Errors;
      bool Ok = pml::evalSource(Src, Output, Rendered, TypeStr, Errors);
      MPL_CHECK(Ok, "pml benchmark program failed (spans rep)");
    });
  }
  if (!WasEnabled)
    Ledger.disable();
  obs::SpanRunSummary Sum = Ledger.lastRun();
  if (!Sum.Valid || Sum.LedgerWorkSec <= 0)
    return -1;
  return 100.0 * Sum.CriticalPathSec / Sum.LedgerWorkSec;
}

template <typename Fn>
double timeRt(Fn &&Body, int Reps, int64_t *ValueOut) {
  std::vector<double> Times;
  for (int I = 0; I < Reps; ++I) {
    rt::Config Cfg;
    Cfg.NumWorkers = 1;
    Cfg.Profile = false;
    rt::Runtime R(Cfg);
    Timer T;
    R.run([&] { *ValueOut = Body(); });
    Times.push_back(T.elapsedSec());
  }
  return repStats(Times).Median;
}

template <typename Fn>
double timeNat(Fn &&Body, int Reps, int64_t *ValueOut) {
  std::vector<double> Times;
  for (int I = 0; I < Reps; ++I) {
    Timer T;
    *ValueOut = Body();
    Times.push_back(T.elapsedSec());
  }
  return repStats(Times).Median;
}

//===----------------------------------------------------------------------===//
// Interp-vs-JIT x barrier-mode ablation
//===----------------------------------------------------------------------===//

/// One timed configuration of the ablation: a kernel under one barrier
/// mode and one tier, with the run's per-rep stats (reset before every
/// rep, so the medians and counters describe one repetition).
struct TierRun {
  double Sec = 0;
  std::vector<double> RepSec;
  std::string Output; ///< Print output of the (deterministic) run.
  std::string Value;  ///< Rendered final value.
  int64_t ContCaptured = 0;
  int64_t ContResumed = 0;
  int64_t LeakedPins = 0;
  int64_t LeakedBytes = 0;
  int64_t JitCompiled = 0;
  int64_t JitEntries = 0;
  int64_t JitCodeBytes = 0;
};

TierRun timePmlTier(const std::string &Src, int Reps, em::Mode Mode,
                    bool UseJit) {
  TierRun R;
  for (int I = 0; I < Reps; ++I) {
    // Threshold 1 so the jit rows measure compiled code from the first
    // call — the ablation isolates template quality, not warmup policy.
    jit::setCompileThreshold(1);
    jit::setEnabled(UseJit);
    StatRegistry::get().resetAll(); // em::Counts included.
    rt::Config Cfg;
    Cfg.NumWorkers = 1;
    Cfg.Profile = false;
    Cfg.Mode = Mode;
    rt::Runtime Rt(Cfg);
    Timer T;
    Rt.run([&] {
      std::string Output, Rendered, TypeStr;
      std::vector<std::string> Errors;
      bool Ok = pml::evalSource(Src, Output, Rendered, TypeStr, Errors);
      MPL_CHECK(Ok, "pml ablation program failed");
      R.Output = Output;
      R.Value = Rendered;
    });
    R.RepSec.push_back(T.elapsedSec());
    em::CounterSnapshot S = em::Counts.snapshot();
    R.ContCaptured = S.ContCaptured;
    R.ContResumed = S.ContResumed;
    R.LeakedPins = S.livePinnedObjects();
    R.LeakedBytes = S.livePinnedBytes();
    StatRegistry &Reg = StatRegistry::get();
    R.JitCompiled = Reg.valueOf("pml.jit.compiled");
    R.JitEntries = Reg.valueOf("pml.jit.entries");
    R.JitCodeBytes = Reg.valueOf("pml.jit.code_bytes");
    jit::setEnabled(false);
  }
  R.Sec = repStats(R.RepSec).Median;
  return R;
}

/// The kernel's integer checksum: the rendered value when the program has
/// one, else the printed output (the effects kernel prints its result).
int64_t tierChecksum(const TierRun &R) {
  const std::string &S = R.Value.empty() || R.Value == "()"
                             ? R.Output
                             : R.Value;
  return std::strtoll(S.c_str(), nullptr, 10);
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C(Argc, Argv);
  int Reps = static_cast<int>(C.getInt("reps", 2));
  std::string JsonPath = C.getString("json", "");

  std::printf("== Supplementary: carrier overhead — native C++ vs C++ "
              "embedding vs PML VM (1 worker) ==\n%s\n",
              methodologyLine(Reps).c_str());
  BenchJson J("table_pml", /*Scale=*/1.0, Reps);

  Table T({"benchmark", "native C++", "C++ embedding", "PML (VM)",
           "vm/embed", "embed/native", "cp%"});

  auto AddJson = [&](const char *Name, double Nat, double Rt, double Pml,
                     double CpPct) {
    J.addCustomRow(Name, "pml-vm-w1", Pml, [&](json::Writer &W) {
      W.kv("native_s", Nat).kv("embedding_s", Rt).kv("cp_pct", CpPct);
    });
  };
  auto CpCell = [](double CpPct) {
    return CpPct >= 0 ? Table::fmtPct(CpPct) : std::string("-");
  };

  // fib(25), identical recursion everywhere.
  {
    int64_t NatV = 0, RtV = 0;
    std::string PmlV;
    double Nat = timeNat([&] { return nat::fib(25); }, Reps, &NatV);
    double Rt = timeRt([&] { return wl::fib(25, 25); }, Reps, &RtV);
    const char *Src = FibSrc;
    double Pml = timePml(Src, Reps, &PmlV);
    MPL_CHECK(NatV == RtV && PmlV == std::to_string(NatV),
              "fib results disagree");
    double Cp = pmlCpPct(Src);
    T.addRow({"fib(25)", Table::fmtSec(Nat), Table::fmtSec(Rt),
              Table::fmtSec(Pml), Table::fmtRatio(Pml / Rt),
              Table::fmtRatio(Rt / Nat), CpCell(Cp)});
    AddJson("fib-25", Nat, Rt, Pml, Cp);
  }

  // Tail-loop sum of 0..N-1 (loop overhead; the embedding uses an array
  // walk for a comparable memory access pattern).
  {
    constexpr int64_t N = 3'000'000;
    int64_t NatV = 0, RtV = 0;
    std::string PmlV;
    double Nat = timeNat(
        [&] {
          volatile int64_t Acc = 0;
          for (int64_t I = 0; I < N; ++I)
            Acc += I;
          return static_cast<int64_t>(Acc);
        },
        Reps, &NatV);
    double Rt = timeRt(
        [&] {
          Local A(wl::tabulate(N, [](int64_t I) { return boxInt(I); }, N));
          return wl::sumInts(A.get(), N);
        },
        Reps, &RtV);
    const char *Src = SumSrc;
    double Pml = timePml(Src, Reps, &PmlV);
    MPL_CHECK(NatV == RtV && PmlV == std::to_string(NatV),
              "sum results disagree");
    double Cp = pmlCpPct(Src);
    T.addRow({"sum 3M", Table::fmtSec(Nat), Table::fmtSec(Rt),
              Table::fmtSec(Pml), Table::fmtRatio(Pml / Rt),
              Table::fmtRatio(Rt / Nat), CpCell(Cp)});
    AddJson("sum-3m", Nat, Rt, Pml, Cp);
  }

  // Sieve of Eratosthenes over 200k (array mutation heavy).
  {
    constexpr int64_t N = 200'000;
    int64_t NatV = 0, RtV = 0;
    std::string PmlV;
    double Nat = timeNat([&] { return nat::primesCount(N); }, Reps, &NatV);
    double Rt = timeRt(
        [&] {
          Local P(wl::primesUpTo(N, N + 2));
          return static_cast<int64_t>(arrLen(P.get()));
        },
        Reps, &RtV);
    const char *Src = SieveSrc;
    double Pml = timePml(Src, Reps, &PmlV);
    MPL_CHECK(NatV == RtV && PmlV == std::to_string(NatV),
              "sieve results disagree");
    double Cp = pmlCpPct(Src);
    T.addRow({"primes 200k", Table::fmtSec(Nat), Table::fmtSec(Rt),
              Table::fmtSec(Pml), Table::fmtRatio(Pml / Rt),
              Table::fmtRatio(Rt / Nat), CpCell(Cp)});
    AddJson("primes-200k", Nat, Rt, Pml, Cp);
  }

  // Two-stage generator/async pipeline built from effect handlers: a
  // producer Yields 0..N-1, a middle handler transforms each element and
  // re-performs it outward, the sink accumulates. Every element crosses
  // two handlers, so the row's cost is dominated by continuation
  // capture/resume (2N captures + 2N resumes). The native/embedding
  // columns run the same arithmetic as a plain loop — the vm/embed ratio
  // is therefore the *whole* cost of first-class effects in the VM.
  {
    constexpr int64_t N = 2'000;
    int64_t NatV = 0, RtV = 0;
    std::string PmlOut;
    int64_t Captured = 0, Resumed = 0;
    auto Loop = [] {
      volatile int64_t Acc = 0;
      for (int64_t I = 0; I < N; ++I)
        Acc += I * 2 + 1;
      return static_cast<int64_t>(Acc);
    };
    double Nat = timeNat(Loop, Reps, &NatV);
    double Rt = timeRt(Loop, Reps, &RtV);
    const char *Src = EffSrc;
    double Pml = timePmlEff(Src, Reps, &PmlOut, &Captured, &Resumed);
    MPL_CHECK(NatV == RtV && PmlOut == std::to_string(NatV) + "\n",
              "pipeline results disagree");
    MPL_CHECK(Captured == 2 * N && Resumed == 2 * N,
              "pipeline capture/resume counts off");
    double Cp = pmlCpPct(Src);
    T.addRow({"eff-pipeline 2k", Table::fmtSec(Nat), Table::fmtSec(Rt),
              Table::fmtSec(Pml), Table::fmtRatio(Pml / Rt),
              Table::fmtRatio(Rt / Nat), CpCell(Cp)});
    J.addCustomRow("eff-pipeline-2k", "pml-vm-w1", Pml, [&](json::Writer &W) {
      W.kv("native_s", Nat)
          .kv("embedding_s", Rt)
          .kv("cp_pct", Cp)
          .key("em")
          .beginObject()
          .kv("cont_captured", Captured)
          .kv("cont_resumed", Resumed)
          .endObject()
          .kv("checksum", NatV);
    });
  }

  T.print();
  std::printf("\nvm/embed isolates bytecode-interpretation cost; the "
              "paper's MPL compiles to\nnative code, so its carrier "
              "overhead corresponds to our 'C++ embedding' column.\n");

  // JIT ablation: the same four kernels, interpreter vs template JIT,
  // under each barrier mode. The interp and jit runs of a config must
  // print/return identical results (the differential contract, enforced
  // here at bench scale too) and leak zero pins; the JSON rows carry the
  // pml.jit.* counters and per-rep times so CI can arm the stddev-aware
  // time gate for the jit rows (tools/ci.sh, --time-gate-config pml-jit).
  {
    struct Kernel {
      const char *Name;
      const char *Src;
    };
    const Kernel Kernels[] = {{"fib-25", FibSrc},
                              {"sum-3m", SumSrc},
                              {"primes-200k", SieveSrc},
                              {"eff-pipeline-2k", EffSrc}};
    struct ModeCase {
      em::Mode Mode;
      const char *Name;
    };
    const ModeCase Modes[] = {{em::Mode::Off, "off"},
                              {em::Mode::Detect, "detect"},
                              {em::Mode::Manage, "manage"}};

    std::printf("\n== JIT ablation: interp vs jit x barrier mode "
                "(1 worker, MPL_JIT_THRESHOLD=1) ==\n");
    bool JitLive = [] {
      jit::setEnabled(true);
      bool On = jit::enabled();
      jit::setEnabled(false);
      return On;
    }();
    if (!JitLive)
      std::printf("note: jit unavailable in this build (tsan or non-x86-64) "
                  "— jit rows below run interpreted.\n");

    Table A({"benchmark", "mode", "interp", "jit", "speedup", "jit fns",
             "code KiB"});
    for (const Kernel &K : Kernels) {
      for (const ModeCase &M : Modes) {
        TierRun In = timePmlTier(K.Src, Reps, M.Mode, /*UseJit=*/false);
        TierRun Jt = timePmlTier(K.Src, Reps, M.Mode, /*UseJit=*/true);
        MPL_CHECK(In.Output == Jt.Output && In.Value == Jt.Value,
                  "interp and jit runs disagree");
        MPL_CHECK(tierChecksum(In) == tierChecksum(Jt),
                  "interp and jit checksums disagree");
        MPL_CHECK(In.LeakedPins == 0 && Jt.LeakedPins == 0,
                  "ablation run leaked pins");
        MPL_CHECK(In.ContCaptured == Jt.ContCaptured &&
                      In.ContResumed == Jt.ContResumed,
                  "interp and jit continuation traffic disagree");
        // Total JIT loss (env plumbing broken, tiering never fires) must
        // fail here deterministically: the counter gate is upward-only,
        // so a drop to zero compiled functions would pass it, and the
        // time gate's floor is too wide to catch it on the flatter
        // kernels.
        MPL_CHECK(Jt.JitCompiled > 0 && Jt.JitEntries > 0,
                  "jit ablation cell did not tier any function");
        char KiB[32];
        std::snprintf(KiB, sizeof(KiB), "%.1f",
                      static_cast<double>(Jt.JitCodeBytes) / 1024.0);
        A.addRow({K.Name, M.Name, Table::fmtSec(In.Sec),
                  Table::fmtSec(Jt.Sec), Table::fmtRatio(In.Sec / Jt.Sec),
                  std::to_string(Jt.JitCompiled), KiB});
        auto AddAbl = [&](const std::string &Cfg, const TierRun &R) {
          J.addCustomRow(K.Name, Cfg, R.Sec, R.RepSec, [&](json::Writer &W) {
            W.key("em")
                .beginObject()
                .kv("cont_captured", R.ContCaptured)
                .kv("cont_resumed", R.ContResumed)
                .endObject();
            if (R.JitCompiled > 0)
              W.key("jit")
                  .beginObject()
                  .kv("compiled", R.JitCompiled)
                  .kv("entries", R.JitEntries)
                  .kv("code_bytes", R.JitCodeBytes)
                  .endObject();
            W.key("profile")
                .beginObject()
                .kv("leaked_pins", R.LeakedPins)
                .kv("leaked_bytes", R.LeakedBytes)
                .endObject()
                .kv("checksum", tierChecksum(R));
          });
        };
        AddAbl(std::string("pml-interp-") + M.Name, In);
        AddAbl(std::string("pml-jit-") + M.Name, Jt);
      }
    }
    A.print();
    std::printf("\nspeedup = interp/jit at identical checksums and em "
                "counters; 'jit fns' is the\nnumber of functions tiered up "
                "at threshold 1, 'code KiB' the executable bytes.\n");
  }

  if (!JsonPath.empty() && !J.write(JsonPath))
    return 1;
  return 0;
}
