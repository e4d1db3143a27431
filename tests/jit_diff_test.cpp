//===- tests/jit_diff_test.cpp - Interp-vs-JIT differential plane ---------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// The JIT's correctness contract (DESIGN.md §17) is *bit-identical
// observable behavior* with the interpreter: same values, same print
// output, same trap messages, same Detect-mode rejections — and, because
// the templates inline the entanglement barrier fast paths, the same em
// counter totals, event for event. This suite enforces the contract
// differentially: every corpus program runs twice per barrier mode, once
// pinned to the interpreter and once with the JIT forced hot (threshold 1,
// so every function compiles on its first call), and the two outcomes must
// match field by field.
//
// Counter checksums are compared on successful single-worker runs (a
// deterministic schedule makes the event sequence exactly reproducible; a
// trapping run unwinds mid-program, where "how far did it get" is the
// interpreter's business, not the contract's). Every successful run must
// also end with zero leaked pins, in both tiers.
//
// Every program whose outcome does not depend on the schedule runs a second
// time at four workers, where real parallelism reorders the barrier events:
// value, output, error and zero leaked pins must still agree.
//
//===----------------------------------------------------------------------===//

#include "core/Em.h"
#include "core/Runtime.h"
#include "pml/Compiler.h"
#include "pml/Parser.h"
#include "pml/Types.h"
#include "pml/Vm.h"
#include "pml/jit/Jit.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mpl;
using namespace mpl::pml;

namespace {

//===----------------------------------------------------------------------===//
// Tiered run harness
//===----------------------------------------------------------------------===//

struct TierOutcome {
  bool Ok = false;
  std::string Value;
  std::string Output;
  std::string Error;
  em::CounterSnapshot Counters;
  size_t Compiled = 0;     ///< Functions the JIT tier compiled this run.
  int64_t JitEntries = 0;  ///< Dispatcher entries into native code.
};

/// Restores the process-wide JIT gates on scope exit so a failing test
/// cannot leak "JIT forced on" into unrelated suites.
struct JitGateGuard {
  ~JitGateGuard() {
    jit::setEnabled(false);
    jit::setCompileThreshold(64);
  }
};

TierOutcome runTier(const std::string &Src, int Workers, em::Mode Mode,
                    bool UseJit) {
  JitGateGuard Guard;
  jit::setCompileThreshold(1);
  jit::setEnabled(UseJit);

  TierOutcome R;
  std::vector<std::string> Errs;
  ExprPtr Ast = parseProgram(Src, Errs);
  EXPECT_TRUE(Ast) << (Errs.empty() ? "parse failed" : Errs[0]);
  if (!Ast)
    return R;
  TypeChecker TC;
  Ty *T = TC.infer(*Ast, Errs);
  EXPECT_TRUE(T) << (Errs.empty() ? "type error" : Errs[0]);
  if (!T)
    return R;
  Program Prog;
  bool Compiled = compile(*Ast, Prog, Errs);
  EXPECT_TRUE(Compiled) << (Errs.empty() ? "compile failed" : Errs[0]);
  if (!Compiled)
    return R;

  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.GcMinBytes = 1 << 18;
  Cfg.Mode = Mode;
  rt::Runtime Rt(Cfg);

  em::Counts.reset();
  int64_t Entries0 = StatRegistry::get().valueOf("pml.jit.entries");
  try {
    Rt.run([&] {
      // Values must be rendered before the run's heaps are torn down.
      Vm M(Prog, &R.Output);
      Vm::Result Res = M.run();
      if (Res.Ok) {
        R.Ok = true;
        R.Value = renderValue(Res.Value, T);
      } else {
        R.Error = Res.Error;
      }
    });
  } catch (const std::exception &E) {
    // Detect-mode EntanglementError (and governor OOM) unwind out of
    // Rt.run by design; both tiers must surface the identical message.
    R.Ok = false;
    R.Error = E.what();
  }
  R.Counters = em::Counts.snapshot();
  R.Compiled = Prog.Jit ? Prog.Jit->compiledCount() : 0;
  R.JitEntries = StatRegistry::get().valueOf("pml.jit.entries") - Entries0;
  return R;
}

void expectCountersEqual(const em::CounterSnapshot &I,
                         const em::CounterSnapshot &J, const char *Name) {
#define MPL_CMP(F) EXPECT_EQ(I.F, J.F) << Name << ": em counter " #F
  MPL_CMP(EntangledReads);
  MPL_CMP(EntangledReadsUnpinned);
  MPL_CMP(DownPointerPins);
  MPL_CMP(CrossPointerPins);
  MPL_CMP(PinnedHolderPins);
  MPL_CMP(ContPins);
  MPL_CMP(PinnedObjects);
  MPL_CMP(PinnedBytes);
  MPL_CMP(UnpinnedObjects);
  MPL_CMP(UnpinnedBytes);
  MPL_CMP(ContCaptured);
  MPL_CMP(ContResumed);
#undef MPL_CMP
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

enum : unsigned {
  MOff = 1,
  MDetect = 2,
  MManage = 4,
  MAll = MOff | MDetect | MManage,
};

struct DiffProgram {
  const char *Name;
  const char *Src;
  int Workers;
  unsigned Modes; ///< Off is only sound for disentangled programs.
  /// Modes whose outcome depends on which strand runs first; the P = 4
  /// plane skips them.
  unsigned ScheduleDependent = 0;
};

const DiffProgram Corpus[] = {
    // Inline templates: tagged arithmetic, comparisons, bool ops.
    {"arith_mix",
     "printInt (1 + 2 * 3 - 4);\n"
     "printInt (17 / 5); printInt (17 % 5); printInt (-(5) + 2);\n"
     "printInt (if 1 < 2 andalso 3 <> 4 then 1 else 0);\n"
     "printInt (if not (1 = 1) orelse 2 >= 2 then 7 else 8)",
     1, MAll},
    // Inline trap stubs, same messages as the interpreter.
    {"trap_div_zero", "fun f x = x / (x - x)\nf 3", 1, MAll},
    {"trap_mod_zero", "5 % 0", 1, MAll},
    {"trap_oob", "get (alloc 2 0) 5", 1, MAll},
    {"trap_match_fail", "case [1] of [] => 0", 1, MAll},
    {"trap_non_tail_recursion",
     "fun loop x = loop x + 1\nloop 0", 1, MAll},
    // Traps raised by the interpreter's own step from native code.
    {"trap_alloc_negative", "alloc (0 - 1) 0", 1, MAll},
    // Closures, captures (LoadCapture read barrier), FixSelf.
    {"closures_nested_capture",
     "fun add x y = x + y\n"
     "val inc = add 1\n"
     "let val a = 1\n"
     "in printInt ((fn x => fn y => a + x + y) 2 3); printInt (inc 41) end",
     1, MAll},
    {"recursion_fib",
     "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n"
     "printInt (fib 18)",
     1, MAll},
    // The self-tail-call fast path: frame rebuild fully in native code.
    {"tail_self_loop",
     "fun loop i acc = if i = 0 then acc else loop (i - 1) (acc + i)\n"
     "printInt (loop 300000 0)",
     1, MAll},
    // Generic tail calls through a ref'd closure (the shared step).
    {"tail_cross_functions",
     "val next = ref (fn x => x)\n"
     "fun stepA n = if n = 0 then 0 else !next (n - 1)\n"
     "fun stepB n = if n = 0 then 1 else stepA (n - 1)\n"
     "next := stepB;\n"
     "printInt (stepA 100000)",
     1, MAll},
    // Eq/Ne: inline identity/immediate cases plus the structural step.
    {"equality_structural",
     "printInt (if \"ab\" = \"ab\" then 1 else 0);\n"
     "printInt (if \"ab\" = \"ac\" then 1 else 0);\n"
     "printInt (if (1, true) = (1, true) then 1 else 0);\n"
     "printInt (if (1, 2) <> (1, 3) then 1 else 0);\n"
     "let val r = ref 0 in printInt (if r = r then 1 else 0) end",
     1, MAll},
    // Refs: MkRef/Deref/Assign templates with write-barrier fast path.
    {"refs_loop",
     "let val r = ref 0\n"
     " fun go i = if i = 1000 then () else (r := !r + i; go (i+1))\n"
     "in go 0; printInt (!r) end",
     1, MAll},
    // Arrays: Alloc step, AGet/ASet/ALen templates with bounds checks.
    {"arrays_fill_sum",
     "let val a = alloc 64 0\n"
     " fun fill i = if i = 64 then () else (set a i (i * i); fill (i+1))\n"
     " fun sum i acc = if i = 64 then acc else sum (i+1) (acc + get a i)\n"
     "in fill 0; printInt (sum 0 0); printInt (length a) end",
     1, MAll},
    {"lists_case",
     "fun sum xs = case xs of [] => 0 | h :: t => h + sum t\n"
     "printInt (sum [1, 2, 3, 4, 5])",
     1, MAll},
    {"strings_print",
     "print \"hello \"; print \"world\\n\"; printInt 42",
     1, MAll},
    // ParCall step: fork-join with disentangled branches.
    {"par_fill_tree",
     "let val a = alloc 100 0\n"
     "    fun fill lo hi = if hi - lo < 1 then ()\n"
     "      else if hi - lo = 1 then set a lo lo\n"
     "      else let val mid = (lo + hi) / 2\n"
     "           val p = par (fill lo mid, fill mid hi) in () end\n"
     "    fun sum i = if i = 100 then 0 else get a i + sum (i + 1)\n"
     "in fill 0 100; printInt (sum 0) end",
     1, MAll},
    {"par_fill_tree_p3",
     "let val a = alloc 100 0\n"
     "    fun fill lo hi = if hi - lo < 1 then ()\n"
     "      else if hi - lo = 1 then set a lo lo\n"
     "      else let val mid = (lo + hi) / 2\n"
     "           val p = par (fill lo mid, fill mid hi) in () end\n"
     "    fun sum i = if i = 100 then 0 else get a i + sum (i + 1)\n"
     "in fill 0 100; printInt (sum 0) end",
     3, MAll},
    {"par_trap_in_branch", "par (1 / 0, 2)", 1, MAll},
    // Print and PrintInt steps from branches that run at once: the output
    // is the sequential program's.
    {"par_print_both_branches",
     "fun loop s n = if n = 0 then 0 else (print s; loop s (n - 1))\n"
     "val p = par (loop \"aaaaaaaaaaaaaaaa\" 20000,\n"
     "             (printInt 7; loop \"bbbbbbbbbbbbbbbb\" 20000))\n"
     "printInt (fst p + snd p)",
     1, MAll},
    // Entangled: branch B reads an object branch A just published. Manage
    // pins it; Detect rejects it; Off is unsound by construction — both
    // tiers must do exactly the same thing, so Off is excluded. Detect
    // rejects only when A's write lands before B's read.
    {"par_entangled_read",
     "let val r = ref (ref 0)\n"
     "    val p = par ((r := ref 7; 0), !(!r))\n"
     "in printInt 1 end",
     1, MDetect | MManage, MDetect},
    // Effects: Suspend/Resume/Handle steps, continuation pins.
    {"eff_basic_resume",
     "effect Ask\n"
     "fun client x = perform Ask x + perform Ask 10\n"
     "printInt (handle client 1 with | Ask n k => resume k (n * 100) end)",
     1, MAll},
    {"eff_abort",
     "effect Abort\n"
     "printInt (handle 1 + perform Abort 0 with | Abort x k => 42 end)",
     1, MAll},
    {"eff_state_encoding",
     "effect Get\n"
     "effect Put\n"
     "fun runState init body =\n"
     "  (handle (fn r => fn s => r) (body 0) with\n"
     "   | Get u k => fn s => (resume k s) s\n"
     "   | Put v k => fn s => (resume k ()) v\n"
     "   end) init\n"
     "printInt (runState 10 (fn u =>\n"
     "  let val a = perform Get ()\n"
     "  in perform Put (a * 3); perform Get () + 1 end))",
     1, MAll},
    {"eff_deep_perform",
     "effect E\n"
     "fun down n = if n = 0 then perform E 0 else down (n - 1) + 1\n"
     "printInt (handle down 100 with | E x k => resume k 5 end)",
     1, MAll},
    {"eff_unhandled", "effect E\nperform E 1", 1, MAll},
    {"eff_resume_twice",
     "effect E\n"
     "printInt (handle perform E 0 + 1 with\n"
     "          | E x k => resume k 1 + resume k 2 end)",
     1, MAll},
    {"eff_resume_in_par",
     "effect Yield\n"
     "val r =\n"
     "  handle 100 + perform Yield 0 with\n"
     "  | Yield x k =>\n"
     "      let val p = par (resume k 7, 1 + 1)\n"
     "      in fst p * snd p end\n"
     "  end\n"
     "printInt r",
     3, MManage},
};

struct ModeCase {
  em::Mode Mode;
  const char *Name;
};
const ModeCase ModeCases[] = {
    {em::Mode::Off, "Off"},
    {em::Mode::Detect, "Detect"},
    {em::Mode::Manage, "Manage"},
};
unsigned modeBit(em::Mode M) {
  return M == em::Mode::Off ? MOff : M == em::Mode::Detect ? MDetect : MManage;
}

//===----------------------------------------------------------------------===//
// The differential plane
//===----------------------------------------------------------------------===//

/// Runs \p P at \p Workers in both tiers under \p MC and checks the contract.
void expectTiersAgree(const DiffProgram &P, const ModeCase &MC, int Workers) {
  TierOutcome I = runTier(P.Src, Workers, MC.Mode, /*UseJit=*/false);
  TierOutcome J = runTier(P.Src, Workers, MC.Mode, /*UseJit=*/true);

  // The observable contract: same success/failure, same value, same print
  // output, same trap/error message.
  EXPECT_EQ(I.Ok, J.Ok) << P.Name << " interp='" << I.Error << "' jit='"
                        << J.Error << "'";
  EXPECT_EQ(I.Value, J.Value) << P.Name;
  EXPECT_EQ(I.Output, J.Output) << P.Name;
  EXPECT_EQ(I.Error, J.Error) << P.Name;

  // The interpreter tier must never create JIT state.
  EXPECT_EQ(I.Compiled, 0u) << P.Name;
  EXPECT_EQ(I.JitEntries, 0) << P.Name;

  // The JIT tier must actually run native code — a silently-bailing JIT
  // would make this whole suite vacuous. (Under tsan or on non-x86-64 the
  // gate force-disables itself; the differential claim still holds, it is
  // just interp-vs-interp there.)
  if (jit::enabled() || (!jit::tsanForcedOff() && MPL_JIT_SUPPORTED)) {
    EXPECT_GE(J.Compiled, 1u) << P.Name << ": nothing tiered up at threshold 1";
    EXPECT_GE(J.JitEntries, 1) << P.Name << ": dispatcher never entered "
                                            "native code";
  }

  // Entanglement counter checksum: bit-identical barrier behavior. Only on
  // successful deterministic (1-worker) runs — a trapping run unwinds at an
  // unspecified point, and a multi-worker schedule reorders events.
  if (I.Ok && J.Ok && Workers == 1)
    expectCountersEqual(I.Counters, J.Counters, P.Name);

  // No leaked pins in either tier: every pin the run took was released by
  // resume or by the join rule.
  if (I.Ok) {
    EXPECT_EQ(I.Counters.livePinnedObjects(), 0) << P.Name << " (interp)";
    EXPECT_EQ(I.Counters.livePinnedBytes(), 0) << P.Name << " (interp)";
  }
  if (J.Ok) {
    EXPECT_EQ(J.Counters.livePinnedObjects(), 0) << P.Name << " (jit)";
    EXPECT_EQ(J.Counters.livePinnedBytes(), 0) << P.Name << " (jit)";
  }
}

class JitDiffTest : public ::testing::TestWithParam<std::tuple<int, int>> {
protected:
  const DiffProgram &program() const {
    return Corpus[static_cast<size_t>(std::get<0>(GetParam()))];
  }
  const ModeCase &modeCase() const {
    return ModeCases[static_cast<size_t>(std::get<1>(GetParam()))];
  }
};

TEST_P(JitDiffTest, InterpAndJitAgree) {
  const DiffProgram &P = program();
  const ModeCase &MC = modeCase();
  if (!(P.Modes & modeBit(MC.Mode)))
    GTEST_SKIP() << P.Name << " is not sound under mode " << MC.Name;
  expectTiersAgree(P, MC, P.Workers);
}

TEST_P(JitDiffTest, InterpAndJitAgreeAtP4) {
  const DiffProgram &P = program();
  const ModeCase &MC = modeCase();
  if (!(P.Modes & modeBit(MC.Mode)))
    GTEST_SKIP() << P.Name << " is not sound under mode " << MC.Name;
  if (P.ScheduleDependent & modeBit(MC.Mode))
    GTEST_SKIP() << P.Name << " depends on the schedule under mode "
                 << MC.Name;
  expectTiersAgree(P, MC, 4);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, JitDiffTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(std::size(Corpus))),
        ::testing::Range(0, static_cast<int>(std::size(ModeCases)))),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
      return std::string(
                 Corpus[static_cast<size_t>(std::get<0>(Info.param))].Name) +
             "_" +
             ModeCases[static_cast<size_t>(std::get<1>(Info.param))].Name;
    });

//===----------------------------------------------------------------------===//
// Tiering behavior
//===----------------------------------------------------------------------===//

// Below the threshold nothing compiles; crossing it compiles exactly the
// functions that got hot. Same seed (deterministic single-worker run) =>
// same tier decisions, run after run.
TEST(JitTiering, ThresholdGatesCompilation) {
  const char *Src =
      "fun hot i = if i = 0 then 0 else hot (i - 1)\n"
      "fun cold x = x\n"
      "printInt (hot 100 + cold 1)";

  TierOutcome Cold = runTier(Src, 1, em::Mode::Manage, /*UseJit=*/true);
  if (!jit::tsanForcedOff() && MPL_JIT_SUPPORTED) {
    // Threshold 1: every called function compiles, including main.
    EXPECT_GE(Cold.Compiled, 2u);
  }

  // A huge threshold keeps everything interpreted even with the JIT on.
  JitGateGuard Guard;
  jit::setCompileThreshold(1u << 30);
  jit::setEnabled(true);
  std::vector<std::string> Errs;
  ExprPtr Ast = parseProgram(Src, Errs);
  ASSERT_TRUE(Ast);
  Program Prog;
  ASSERT_TRUE(compile(*Ast, Prog, Errs));
  rt::Config Cfg;
  Cfg.NumWorkers = 1;
  rt::Runtime Rt(Cfg);
  std::string Out;
  Rt.run([&] {
    Vm M(Prog, &Out);
    Vm::Result Res = M.run();
    EXPECT_TRUE(Res.Ok) << Res.Error;
  });
  if (Prog.Jit) {
    EXPECT_EQ(Prog.Jit->compiledCount(), 0u);
  }
}

TEST(JitTiering, SameProgramTiersIdenticallyAcrossRuns) {
  const char *Src =
      "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n"
      "printInt (fib 15)";
  TierOutcome A = runTier(Src, 1, em::Mode::Manage, /*UseJit=*/true);
  TierOutcome B = runTier(Src, 1, em::Mode::Manage, /*UseJit=*/true);
  EXPECT_EQ(A.Compiled, B.Compiled);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Value, B.Value);
}

} // namespace
