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
#include "pml/Vm.h"
#include "pml/jit/Jit.h"
#include "support/Cli.h"

#include <cstdio>
#include <cstdlib>

using namespace mpl;
using namespace mpl::bench;
using namespace mpl::ops;

namespace {

/// The four carrier kernels' pml sources and problem sizes.
constexpr int64_t SumN = 3'000'000;
constexpr int64_t SieveN = 200'000;
constexpr int64_t PipeN = 2'000;
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

/// One carrier kernel: the same algorithm as pml source, in plain C++
/// (no Runtime) and in the C++ embedding of the managed runtime.
struct Kernel {
  const char *Name;
  const char *Src;
  std::function<int64_t()> Native;
  std::function<int64_t()> Embedding;
  /// Continuations each run captures and resumes (2N for the pipeline).
  int64_t Conts = 0;
};

/// One pml evaluation of \p Src. Returns the integer checksum — the
/// rendered value when the program has one, else the printed output (the
/// effects kernel prints its result) — and leaves both texts in
/// \p Output / \p Value for the interp/jit agreement check.
int64_t evalPml(const char *Src, std::string &Output, std::string &Value) {
  std::string TypeStr;
  std::vector<std::string> Errors;
  Output.clear(); // evalSource appends the program's prints.
  bool Ok = pml::evalSource(Src, Output, Value, TypeStr, Errors);
  MPL_CHECK(Ok, "pml benchmark program failed");
  const std::string &S = Value.empty() || Value == "()" ? Output : Value;
  return std::strtoll(S.c_str(), nullptr, 10);
}

/// One ablation cell: a kernel under one barrier mode and one tier, with
/// the median rep's counters and the run's printed output and value.
struct Cell {
  RunResult R;
  std::string Output;
  std::string Value;
};

Cell measureCell(const Kernel &K, em::Mode Mode, bool UseJit, int Reps) {
  rt::Config Cfg;
  Cfg.Mode = Mode;
  Cell C;
  jit::setEnabled(UseJit);
  C.R = measure([&] { return evalPml(K.Src, C.Output, C.Value); }, Cfg, Reps);
  jit::setEnabled(false);
  return C;
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

  // The pipeline's native/embedding columns run the same arithmetic as a
  // plain loop — the vm/embed ratio is therefore the *whole* cost of
  // first-class effects in the VM.
  auto PipeLoop = [] {
    volatile int64_t Acc = 0;
    for (int64_t I = 0; I < PipeN; ++I)
      Acc = Acc + I * 2 + 1;
    return static_cast<int64_t>(Acc);
  };
  const Kernel Kernels[] = {
      // fib(25), identical recursion everywhere.
      {"fib-25", FibSrc, [] { return nat::fib(25); },
       [] { return wl::fib(25, 25); }},
      // Tail-loop sum of 0..N-1 (loop overhead; the embedding uses an
      // array walk for a comparable memory access pattern).
      {"sum-3m", SumSrc,
       [] {
         volatile int64_t Acc = 0;
         for (int64_t I = 0; I < SumN; ++I)
           Acc = Acc + I;
         return static_cast<int64_t>(Acc);
       },
       [] {
         Local A(wl::tabulate(SumN, [](int64_t I) { return boxInt(I); },
                              SumN));
         return wl::sumInts(A.get(), SumN);
       }},
      // Sieve of Eratosthenes over 200k (array mutation heavy).
      {"primes-200k", SieveSrc,
       [] { return nat::primesCount(SieveN); },
       [] {
         Local P(wl::primesUpTo(SieveN, SieveN + 2));
         return static_cast<int64_t>(arrLen(P.get()));
       }},
      // Two-stage generator/async pipeline built from effect handlers: a
      // producer Yields 0..N-1, a middle handler transforms each element
      // and re-performs it outward, the sink accumulates. Every element
      // crosses two handlers, so the row's cost is dominated by
      // continuation capture/resume (2N captures + 2N resumes).
      {"eff-pipeline-2k", EffSrc, PipeLoop, PipeLoop, 2 * PipeN},
  };
  struct ModeCase {
    em::Mode Mode;
    const char *Name;
  };
  const ModeCase Modes[] = {{em::Mode::Off, "off"},
                            {em::Mode::Detect, "detect"},
                            {em::Mode::Manage, "manage"}};

  // Threshold 1 so the jit cells measure compiled code from the first
  // call — the ablation isolates template quality, not warmup policy.
  jit::setCompileThreshold(1);
  bool JitLive = [] {
    jit::setEnabled(true);
    bool On = jit::enabled();
    jit::setEnabled(false);
    return On;
  }();

  Table T({"benchmark", "native C++", "C++ embedding", "PML (VM)",
           "vm/embed", "embed/native"});
  Table A({"benchmark", "mode", "interp", "jit", "speedup", "jit fns",
           "code KiB"});
  for (const Kernel &K : Kernels) {
    RunResult Nat = measure(K.Native, std::nullopt, Reps);
    RunResult Emb = measure(K.Embedding, rt::Config{}, Reps);
    // Interp-vs-JIT ablation under each barrier mode. The interp and jit
    // runs of a mode must print/return identical results (the
    // differential contract, enforced here at bench scale too) and leak
    // zero pins; the JSON rows carry the pml.jit.* counters and per-rep
    // times so CI can arm the stddev-aware time gate for the jit rows
    // (tools/ci.sh, --time-gate-config pml-jit). The carrier table's PML
    // column is the interpreter's Manage cell.
    RunResult Pml;
    for (const ModeCase &M : Modes) {
      Cell In = measureCell(K, M.Mode, /*UseJit=*/false, Reps);
      Cell Jt = measureCell(K, M.Mode, /*UseJit=*/true, Reps);
      int64_t Captured = In.R.counter("em.cont.captured");
      int64_t Resumed = In.R.counter("em.cont.resumed");
      int64_t JitCompiled = Jt.R.counter("pml.jit.compiled");
      MPL_CHECK(In.Output == Jt.Output && In.Value == Jt.Value,
                "interp and jit runs disagree");
      MPL_CHECK(In.R.Checksum == Jt.R.Checksum,
                "interp and jit checksums disagree");
      MPL_CHECK(In.R.leakedPins() == 0 && Jt.R.leakedPins() == 0,
                "ablation run leaked pins");
      MPL_CHECK(Captured == Jt.R.counter("em.cont.captured") &&
                    Resumed == Jt.R.counter("em.cont.resumed"),
                "interp and jit continuation traffic disagree");
      MPL_CHECK(Captured == K.Conts && Resumed == K.Conts,
                "continuation capture/resume counts off");
      // Total JIT loss (env plumbing broken, tiering never fires) must
      // fail here deterministically: the counter gate is upward-only,
      // so a drop to zero compiled functions would pass it, and the
      // time gate's floor is too wide to catch it on the flatter
      // kernels.
      MPL_CHECK(JitCompiled > 0 && Jt.R.counter("pml.jit.entries") > 0,
                "jit ablation cell did not tier any function");
      char KiB[32];
      std::snprintf(
          KiB, sizeof(KiB), "%.1f",
          static_cast<double>(Jt.R.counter("pml.jit.code_bytes")) / 1024.0);
      A.addRow({K.Name, M.Name, Table::fmtSec(In.R.Seconds),
                Table::fmtSec(Jt.R.Seconds),
                Table::fmtRatio(In.R.Seconds / Jt.R.Seconds),
                std::to_string(JitCompiled), KiB});
      J.addRow(K.Name, std::string("pml-interp-") + M.Name,
               /*Entangled=*/false, In.R);
      J.addRow(K.Name, std::string("pml-jit-") + M.Name, /*Entangled=*/false,
               Jt.R);
      if (M.Mode == em::Mode::Manage)
        Pml = In.R;
    }
    MPL_CHECK(Nat.Checksum == Emb.Checksum && Emb.Checksum == Pml.Checksum,
              "carrier results disagree");
    T.addRow({K.Name, Table::fmtSec(Nat.Seconds), Table::fmtSec(Emb.Seconds),
              Table::fmtSec(Pml.Seconds),
              Table::fmtRatio(Pml.Seconds / Emb.Seconds),
              Table::fmtRatio(Emb.Seconds / Nat.Seconds)});
  }

  T.print();
  std::printf("\nvm/embed isolates bytecode-interpretation cost; the "
              "paper's MPL compiles to\nnative code, so its carrier "
              "overhead corresponds to our 'C++ embedding' column.\n"
              "PML (VM) is the ablation's interp/manage cell below.\n");

  std::printf("\n== JIT ablation: interp vs jit x barrier mode "
              "(1 worker, MPL_JIT_THRESHOLD=1) ==\n");
  if (!JitLive)
    std::printf("note: jit unavailable in this build (tsan or non-x86-64) "
                "— jit rows below run interpreted.\n");
  A.print();
  std::printf("\nspeedup = interp/jit at identical checksums and em "
              "counters; 'jit fns' is the\nnumber of functions tiered up "
              "at threshold 1, 'code KiB' the executable bytes.\n");

  if (!JsonPath.empty() && !J.write(JsonPath))
    return 1;
  return 0;
}
