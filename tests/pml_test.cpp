//===- tests/pml_test.cpp - PML compiler and VM tests ---------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "pml/Compiler.h"
#include "pml/Lexer.h"
#include "pml/Parser.h"
#include "pml/Types.h"
#include "pml/Vm.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace mpl;
using namespace mpl::pml;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(PmlLexer, TokenizesProgram) {
  std::vector<std::string> Errs;
  auto Toks = lex("let val x = 41 in x + 1 end", Errs);
  EXPECT_TRUE(Errs.empty());
  ASSERT_GE(Toks.size(), 10u);
  EXPECT_EQ(Toks[0].Kind, Tok::KwLet);
  EXPECT_EQ(Toks[1].Kind, Tok::KwVal);
  EXPECT_EQ(Toks[2].Kind, Tok::Ident);
  EXPECT_EQ(Toks[2].Text, "x");
  EXPECT_EQ(Toks[4].Kind, Tok::Int);
  EXPECT_EQ(Toks[4].IntVal, 41);
  EXPECT_EQ(Toks.back().Kind, Tok::Eof);
}

TEST(PmlLexer, OperatorsAndPositions) {
  std::vector<std::string> Errs;
  auto Toks = lex("a := !b <> c <= d => e", Errs);
  EXPECT_TRUE(Errs.empty());
  EXPECT_EQ(Toks[1].Kind, Tok::Assign);
  EXPECT_EQ(Toks[2].Kind, Tok::Bang);
  EXPECT_EQ(Toks[4].Kind, Tok::Ne);
  EXPECT_EQ(Toks[6].Kind, Tok::Le);
  EXPECT_EQ(Toks[8].Kind, Tok::Arrow);
  EXPECT_EQ(Toks[0].Line, 1);
}

TEST(PmlLexer, CommentsNestAndLineComments) {
  std::vector<std::string> Errs;
  auto Toks = lex("1 (* outer (* inner *) still *) -- trailing\n2", Errs);
  EXPECT_TRUE(Errs.empty());
  ASSERT_EQ(Toks.size(), 3u); // 1, 2, eof
  EXPECT_EQ(Toks[0].IntVal, 1);
  EXPECT_EQ(Toks[1].IntVal, 2);
  EXPECT_EQ(Toks[1].Line, 2);
}

TEST(PmlLexer, StringEscapes) {
  std::vector<std::string> Errs;
  auto Toks = lex("\"a\\nb\\\"c\"", Errs);
  EXPECT_TRUE(Errs.empty());
  EXPECT_EQ(Toks[0].Kind, Tok::String);
  EXPECT_EQ(Toks[0].Text, "a\nb\"c");
}

TEST(PmlLexer, ReportsErrors) {
  std::vector<std::string> Errs;
  lex("1 @ 2", Errs);
  ASSERT_FALSE(Errs.empty());
  EXPECT_NE(Errs[0].find("unexpected character"), std::string::npos);

  Errs.clear();
  lex("(* never closed", Errs);
  ASSERT_FALSE(Errs.empty());
  EXPECT_NE(Errs[0].find("unterminated comment"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

static ExprPtr parseOk(const std::string &Src) {
  std::vector<std::string> Errs;
  ExprPtr E = parseProgram(Src, Errs);
  EXPECT_TRUE(Errs.empty()) << (Errs.empty() ? "" : Errs[0]);
  return E;
}

TEST(PmlParser, Precedence) {
  ExprPtr E = parseOk("1 + 2 * 3");
  ASSERT_TRUE(E);
  ASSERT_EQ(E->Kind, ExprKind::Binop);
  EXPECT_EQ(E->Op, Tok::Plus);
  EXPECT_EQ(E->B->Kind, ExprKind::Binop);
  EXPECT_EQ(E->B->Op, Tok::Star);
}

TEST(PmlParser, ApplicationBindsTighterThanOps) {
  ExprPtr E = parseOk("f 1 + g 2");
  ASSERT_TRUE(E);
  EXPECT_EQ(E->Kind, ExprKind::Binop);
  EXPECT_EQ(E->A->Kind, ExprKind::App);
  EXPECT_EQ(E->B->Kind, ExprKind::App);
}

TEST(PmlParser, LetDesugarsMultipleDecls) {
  ExprPtr E = parseOk("let val x = 1 val y = 2 in x + y end");
  ASSERT_TRUE(E);
  ASSERT_EQ(E->Kind, ExprKind::LetVal);
  EXPECT_EQ(E->Str, "x");
  ASSERT_EQ(E->B->Kind, ExprKind::LetVal);
  EXPECT_EQ(E->B->Str, "y");
}

TEST(PmlParser, TopLevelDecls) {
  ExprPtr E = parseOk("fun id x = x\nval y = id 3\ny");
  ASSERT_TRUE(E);
  EXPECT_EQ(E->Kind, ExprKind::LetFun);
  EXPECT_EQ(E->Str, "id");
}

TEST(PmlParser, ParForm) {
  ExprPtr E = parseOk("par (1 + 1, 2 + 2)");
  ASSERT_TRUE(E);
  EXPECT_EQ(E->Kind, ExprKind::Par);
}

TEST(PmlParser, ErrorsAreReported) {
  std::vector<std::string> Errs;
  EXPECT_EQ(parseProgram("let val = 3 in x end", Errs), nullptr);
  EXPECT_FALSE(Errs.empty());

  Errs.clear();
  EXPECT_EQ(parseProgram("if 1 then 2", Errs), nullptr);
  EXPECT_FALSE(Errs.empty());

  Errs.clear();
  EXPECT_EQ(parseProgram("1 + ", Errs), nullptr);
  EXPECT_FALSE(Errs.empty());
}

//===----------------------------------------------------------------------===//
// Type checker
//===----------------------------------------------------------------------===//

static std::string typeOf(const std::string &Src,
                          std::vector<std::string> *ErrOut = nullptr) {
  std::vector<std::string> Errs;
  ExprPtr E = parseProgram(Src, Errs);
  if (!E) {
    if (ErrOut)
      *ErrOut = Errs;
    return "<parse error>";
  }
  TypeChecker TC;
  Ty *T = TC.infer(*E, Errs);
  if (ErrOut)
    *ErrOut = Errs;
  return T ? TypeChecker::show(T) : "<type error>";
}

TEST(PmlTypes, Basics) {
  EXPECT_EQ(typeOf("1 + 2"), "int");
  EXPECT_EQ(typeOf("1 < 2"), "bool");
  EXPECT_EQ(typeOf("()"), "unit");
  EXPECT_EQ(typeOf("\"hi\""), "string");
  EXPECT_EQ(typeOf("(1, true)"), "(int * bool)");
  EXPECT_EQ(typeOf("ref 3"), "int ref");
  EXPECT_EQ(typeOf("!(ref 3)"), "int");
  EXPECT_EQ(typeOf("(ref 3) := 4"), "unit");
  EXPECT_EQ(typeOf("alloc 3 true"), "bool array");
  EXPECT_EQ(typeOf("fn x => x + 1"), "(int -> int)");
  EXPECT_EQ(typeOf("par (1, true)"), "(int * bool)");
}

TEST(PmlTypes, LetPolymorphism) {
  EXPECT_EQ(typeOf("let val id = fn x => x in (id 1, id true) end"),
            "(int * bool)");
  EXPECT_EQ(typeOf("fun id x = x\n(id 1, id true)"), "(int * bool)");
}

TEST(PmlTypes, ValueRestrictionBlocksPolymorphicRefs) {
  // `ref (fn x => x)` is not a syntactic value binding, so r must be
  // monomorphic; using it at two types must fail.
  std::vector<std::string> Errs;
  std::string T = typeOf(
      "let val r = ref (fn x => x) in (!r 1, !r true) end", &Errs);
  EXPECT_EQ(T, "<type error>");
  EXPECT_FALSE(Errs.empty());
}

TEST(PmlTypes, RecursionInfersArrow) {
  EXPECT_EQ(
      typeOf("fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n"
             "fib 10"),
      "int");
}

TEST(PmlTypes, Mismatches) {
  EXPECT_EQ(typeOf("1 + true"), "<type error>");
  EXPECT_EQ(typeOf("if 1 then 2 else 3"), "<type error>");
  EXPECT_EQ(typeOf("if true then 1 else false"), "<type error>");
  EXPECT_EQ(typeOf("(ref 1) := true"), "<type error>");
  EXPECT_EQ(typeOf("1 2"), "<type error>");
  EXPECT_EQ(typeOf("unknownVar"), "<type error>");
  EXPECT_EQ(typeOf("fn x => x x"), "<type error>"); // occurs check
  EXPECT_EQ(typeOf("1; 2"), "<type error>");        // seq needs unit
  EXPECT_EQ(typeOf("printInt 1; 2"), "int");
}

//===----------------------------------------------------------------------===//
// End-to-end evaluation
//===----------------------------------------------------------------------===//

namespace {
struct EvalResult {
  bool Ok;
  std::string Value;
  std::string Type;
  std::string Output;
  std::string Error;
};

EvalResult evalP(const std::string &Src, int Workers = 1) {
  EvalResult R{false, "", "", "", ""};
  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.GcMinBytes = 1 << 18;
  rt::Runtime Rt(Cfg);
  Rt.run([&] {
    std::vector<std::string> Errs;
    R.Ok = evalSource(Src, R.Output, R.Value, R.Type, Errs);
    if (!Errs.empty())
      R.Error = Errs[0];
  });
  return R;
}
} // namespace

TEST(PmlEval, Arithmetic) {
  EXPECT_EQ(evalP("1 + 2 * 3 - 4").Value, "3");
  EXPECT_EQ(evalP("-(5) + 2").Value, "-3");
  EXPECT_EQ(evalP("17 % 5").Value, "2");
  EXPECT_EQ(evalP("17 / 5").Value, "3");
}

TEST(PmlEval, BoolsAndComparisons) {
  EXPECT_EQ(evalP("1 < 2 andalso 3 <> 4").Value, "true");
  EXPECT_EQ(evalP("1 > 2 orelse false").Value, "false");
  EXPECT_EQ(evalP("not (1 = 1)").Value, "false");
  EXPECT_EQ(evalP("\"ab\" = \"ab\"").Value, "true");
  EXPECT_EQ(evalP("\"ab\" = \"ac\"").Value, "false");
  EXPECT_EQ(evalP("(1, true) = (1, true)").Value, "true");
}

TEST(PmlEval, ShortCircuitDoesNotEvaluateRhs) {
  EvalResult R = evalP("false andalso (1 / 0 = 0)");
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Value, "false");
  R = evalP("true orelse (1 / 0 = 0)");
  EXPECT_EQ(R.Value, "true");
}

TEST(PmlEval, LetFunctionsClosures) {
  EXPECT_EQ(evalP("let val x = 10 val f = fn y => x + y in f 5 end").Value,
            "15");
  EXPECT_EQ(evalP("fun add x y = x + y\nval inc = add 1\ninc 41").Value,
            "42");
  // Nested capture through two lambda levels.
  EXPECT_EQ(
      evalP("let val a = 1 in (fn x => fn y => a + x + y) 2 3 end").Value,
      "6");
}

TEST(PmlEval, RecursionAndConditionals) {
  EXPECT_EQ(
      evalP("fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n"
            "fib 15")
          .Value,
      "610");
  EXPECT_EQ(evalP("fun fact n = if n = 0 then 1 else n * fact (n-1)\n"
                  "fact 10")
                .Value,
            "3628800");
}

TEST(PmlEval, RefsAndSequencing) {
  EXPECT_EQ(evalP("let val r = ref 1 in r := !r + 41; !r end").Value, "42");
  EXPECT_EQ(evalP("let val r = ref 0 "
                  "fun loop i = if i = 10 then () else (r := !r + i; "
                  "loop (i+1)) in loop 0; !r end")
                .Value,
            "45");
}

TEST(PmlEval, Arrays) {
  EXPECT_EQ(evalP("length (alloc 7 0)").Value, "7");
  EXPECT_EQ(evalP("let val a = alloc 3 0 in set a 1 42; get a 1 end").Value,
            "42");
  EXPECT_EQ(evalP("let val a = alloc 2 (fn x => x + 1) in get a 0 7 end")
                .Value,
            "8"); // Builtin result applied further.
}

TEST(PmlEval, PrintOutput) {
  EvalResult R = evalP("print \"hello \"; print \"world\\n\"; printInt 42");
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Output, "hello world\n42\n");
}

TEST(PmlEval, PairsAndProjections) {
  EXPECT_EQ(evalP("fst (1, 2) + snd (3, 4)").Value, "5");
  EXPECT_EQ(evalP("(1, (true, \"x\"))").Value, "(1, (true, \"x\"))");
}

TEST(PmlEval, RuntimeErrors) {
  EvalResult R = evalP("1 / 0");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);

  R = evalP("get (alloc 2 0) 5");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos);

  R = evalP("fun loop x = loop x + 1\nloop 0");
  EXPECT_FALSE(R.Ok);
  // Either resource guard may fire first (value stack vs call depth).
  EXPECT_TRUE(R.Error.find("depth") != std::string::npos ||
              R.Error.find("overflow") != std::string::npos)
      << R.Error;
}

TEST(PmlEval, PartialBuiltinApplicationRejected) {
  EvalResult R = evalP("let val s = set (alloc 1 0) in s 0 1 end");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("partial application"), std::string::npos);
}

TEST(PmlEval, GcDuringEvaluation) {
  // Allocate heavily with a tiny GC budget; values must survive.
  EvalResult R = evalP(
      "fun build n = if n = 0 then (0, 0) else (n, fst (build (n - 1)))\n"
      "fun sum n = if n = 0 then 0 else n + sum (n - 1)\n"
      "sum 1000 + fst (build 500)");
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, "501000");
}

//===----------------------------------------------------------------------===//
// Parallelism and effects (the paper's feature set, at the PML level)
//===----------------------------------------------------------------------===//

class PmlParTest : public ::testing::TestWithParam<int> {};

TEST_P(PmlParTest, ParallelFib) {
  EvalResult R = evalP(
      "fun fib n = if n < 2 then n else\n"
      "  if n < 10 then fib (n-1) + fib (n-2)\n"
      "  else let val p = par (fib (n-1), fib (n-2)) in fst p + snd p end\n"
      "fib 18",
      GetParam());
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, "2584");
}

TEST_P(PmlParTest, ParWithEffectsIsEntangled) {
  StatRegistry::get().resetAll();
  // Branch A publishes a ref into shared state; branch B reads through it:
  // a PML program that pre-paper MPL would reject.
  EvalResult R = evalP(
      "let val shared = ref (ref 0)\n"
      "    val p = par (\n"
      "      (shared := ref 42; 1),\n"
      "      (let fun poll u = let val inner = !shared in\n"
      "         if !inner = 42 then 42 else poll u end\n"
      "       in poll () end))\n"
      "in fst p + snd p end",
      GetParam());
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, "43");
}

TEST_P(PmlParTest, ParallelArrayFill) {
  EvalResult R = evalP(
      "let val a = alloc 100 0\n"
      "    fun fill lo hi = if hi - lo < 1 then ()\n"
      "      else if hi - lo = 1 then set a lo lo\n"
      "      else let val mid = (lo + hi) / 2\n"
      "           val p = par (fill lo mid, fill mid hi) in () end\n"
      "    fun sum i = if i = 100 then 0 else get a i + sum (i + 1)\n"
      "in fill 0 100; sum 0 end",
      GetParam());
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, "4950");
}

TEST_P(PmlParTest, TrapInBranchPropagates) {
  EvalResult R = evalP("par (1 / 0, 2)", GetParam());
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Workers, PmlParTest, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return "P" + std::to_string(Info.param);
                         });

TEST(PmlCompiler, DisassemblerCoversPrograms) {
  std::vector<std::string> Errs;
  ExprPtr E = parseProgram("fun f x = x + 1\nf 2", Errs);
  ASSERT_TRUE(E);
  Program Prog;
  ASSERT_TRUE(compile(*E, Prog, Errs));
  std::string Dis = disassemble(Prog);
  EXPECT_NE(Dis.find("main"), std::string::npos);
  EXPECT_NE(Dis.find("Call"), std::string::npos);
  EXPECT_NE(Dis.find("Add"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Proper tail calls
//===----------------------------------------------------------------------===//

TEST(PmlTailCalls, SelfTailLoopRunsInConstantStack) {
  // 1M iterations: impossible without TCO (stack cap is 2^14 slots).
  EvalResult R = evalP(
      "fun loop i acc = if i = 0 then acc else loop (i - 1) (acc + i)\n"
      "loop 1000000 0");
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, "500000500000");
}

TEST(PmlTailCalls, TailCallsAcrossDifferentFunctions) {
  // Generic TCO: the tail call dispatches through a closure stored in a
  // ref, alternating between two distinct functions for 400k steps.
  EvalResult R = evalP(
      "val next = ref (fn x => x)\n"
      "fun stepA n = if n = 0 then 0 else !next (n - 1)\n"
      "fun stepB n = if n = 0 then 1 else stepA (n - 1)\n"
      "next := stepB;\n"
      "printInt (stepA 400000)");
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "0\n"); // 400000 is even: ends in stepA.
}

TEST(PmlTailCalls, TailPositionThroughLetIfSeq) {
  // Tail position must propagate through let bodies, both if branches,
  // and sequence tails.
  EvalResult R = evalP(
      "fun go i = if i = 0 then 42 else\n"
      "  let val j = i - 1 in (if j % 2 = 0 then go j else go j) end\n"
      "go 500000");
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, "42");
}

TEST(PmlTailCalls, NonTailRecursionStillBounded) {
  // Non-tail recursion must still hit the guard rather than crash.
  EvalResult R = evalP("fun sum n = if n = 0 then 0 else n + sum (n - 1)\n"
                       "sum 1000000");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Error.find("depth") != std::string::npos ||
              R.Error.find("overflow") != std::string::npos);
}

TEST(PmlTailCalls, TailLoopWithEffects) {
  EvalResult R = evalP(
      "val a = alloc 100000 0\n"
      "fun fill i = if i = length a then () else (set a i (i * 2); "
      "fill (i + 1))\n"
      "fun sum i acc = if i = length a then acc "
      "else sum (i + 1) (acc + get a i)\n"
      "fill 0;\n"
      "printInt (sum 0 0)");
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "9999900000\n");
}

//===----------------------------------------------------------------------===//
// Lists and pattern matching
//===----------------------------------------------------------------------===//

TEST(PmlLists, Types) {
  // Type-variable names reflect global allocation order; check shape only.
  EXPECT_NE(typeOf("[]").find(" list"), std::string::npos);
  EXPECT_EQ(typeOf("[1, 2, 3]"), "int list");
  EXPECT_EQ(typeOf("1 :: [2]"), "int list");
  EXPECT_EQ(typeOf("[[true]]"), "bool list list");
  EXPECT_EQ(typeOf("[1, true]"), "<type error>");
  EXPECT_EQ(typeOf("1 :: 2"), "<type error>");
  EXPECT_EQ(typeOf("case [1] of [] => 0 | h :: _ => h"), "int");
  EXPECT_EQ(typeOf("case [1] of [] => 0 | h :: _ => h > 0"),
            "<type error>"); // Arms must agree.
  EXPECT_EQ(typeOf("case 1 of [] => 0 | _ => 1"), "<type error>");
}

TEST(PmlLists, NilIsPolymorphicValue) {
  // [] generalizes (it is a syntactic value).
  EXPECT_EQ(typeOf("let val e = [] in (1 :: e, true :: e) end"),
            "(int list * bool list)");
}

TEST(PmlLists, ConsAndLiteralsEvaluate) {
  EXPECT_EQ(evalP("[1, 2, 3]").Value, "[1, 2, 3]");
  EXPECT_EQ(evalP("1 :: 2 :: []").Value, "[1, 2]");
  EXPECT_EQ(evalP("[]").Value, "[]");
  EXPECT_EQ(evalP("[(1, true)]").Value, "[(1, true)]");
  EXPECT_EQ(evalP("[1] = [1]").Value, "true");
  EXPECT_EQ(evalP("[1] = [1, 2]").Value, "false");
  EXPECT_EQ(evalP("[] = [1]").Value, "false");
}

TEST(PmlLists, CaseMatchingBasics) {
  EXPECT_EQ(evalP("case [] of [] => 1 | _ :: _ => 2").Value, "1");
  EXPECT_EQ(evalP("case [9] of [] => 1 | h :: _ => h").Value, "9");
  EXPECT_EQ(evalP("case (1, 2) of (a, b) => a + b").Value, "3");
  EXPECT_EQ(evalP("case 5 of 1 => 10 | 5 => 50 | _ => 0").Value, "50");
  EXPECT_EQ(evalP("case true of false => 1 | true => 2").Value, "2");
  // Nested patterns.
  EXPECT_EQ(
      evalP("case [(1, 2), (3, 4)] of (a, _) :: (_, d) :: _ => a + d "
            "| _ => 0")
          .Value,
      "5");
}

TEST(PmlLists, CaseArmsTriedInOrder) {
  EXPECT_EQ(evalP("case 1 of _ => 7 | 1 => 8").Value, "7");
}

TEST(PmlLists, MatchFailureTraps) {
  EvalResult R = evalP("case [1] of [] => 0");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("match failure"), std::string::npos);
}

TEST(PmlLists, RecursiveListFunctions) {
  EXPECT_EQ(evalP("fun len xs = case xs of [] => 0 | _ :: t => 1 + len t\n"
                  "len [1, 2, 3, 4]")
                .Value,
            "4");
  EXPECT_EQ(
      evalP("fun rev xs acc = case xs of [] => acc | h :: t => rev t "
            "(h :: acc)\n"
            "rev [1, 2, 3] []")
          .Value,
      "[3, 2, 1]");
  EXPECT_EQ(
      evalP("fun map f xs = case xs of [] => [] | h :: t => f h :: map f t\n"
            "map (fn x => x * x) [1, 2, 3]")
          .Value,
      "[1, 4, 9]");
  // Tail-recursive fold over a long list (needs TCO).
  EXPECT_EQ(
      evalP("fun upto n acc = if n = 0 then acc else upto (n-1) (n :: acc)\n"
            "fun sum xs acc = case xs of [] => acc | h :: t => "
            "sum t (acc + h)\n"
            "sum (upto 100000 []) 0")
          .Value,
      "5000050000");
}

TEST(PmlLists, ParallelListProcessing) {
  // Split a list, process both halves in parallel, join — lists cross the
  // par boundary as results (merged into the parent heap at the join).
  EvalResult R = evalP(
      "fun upto n acc = if n = 0 then acc else upto (n-1) (n :: acc)\n"
      "fun sum xs acc = case xs of [] => acc | h :: t => sum t (acc + h)\n"
      "val p = par (sum (upto 2000 []) 0, sum (upto 1000 []) 0)\n"
      "fst p - snd p",
      2);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, std::to_string(2001000 - 500500));
}

TEST(PmlLists, GcDuringListChurn) {
  EvalResult R = evalP(
      "fun upto n acc = if n = 0 then acc else upto (n-1) (n :: acc)\n"
      "fun len xs = case xs of [] => 0 | _ :: t => 1 + len t\n"
      "fun churn i acc =\n"
      "  if i = 0 then acc\n"
      "  else churn (i - 1) (acc + len (upto 200 []))\n"
      "churn 300 0");
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, "60000");
}
