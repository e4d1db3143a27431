//===- tests/effects_test.cpp - First-class effect handler tests ----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Conformance and differential suite for pml's effect handlers
// (effect/perform/handle/resume; DESIGN.md §13). Three layers:
//
//  1. Conformance: handler scoping and shadowing, deep-handler semantics,
//     one-shot resume enforcement, abort (dropping the continuation),
//     unhandled performs, performs through deep call chains, and resume on
//     another strand/worker — the case where the captured frames outlive
//     the heap that captured them.
//  2. Pin protocol: a capture inside a par branch pins the captured
//     objects at the capture depth; after the run every pin is released
//     (em::verifyInvariants leak check + live counter == 0), and the
//     em.cont.captured/resumed counters balance.
//  3. Differential: every effectful program runs under Manage, Detect and
//     Off and must print the identical output — effects re-establish heap
//     ancestry on resume, so a well-scoped handler program is
//     disentangled under all three modes.
//
//===----------------------------------------------------------------------===//

#include "core/Em.h"
#include "core/Runtime.h"
#include "pml/Parser.h"
#include "pml/Types.h"
#include "pml/Vm.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mpl;
using namespace mpl::pml;

namespace {

struct EvalResult {
  bool Ok = false;
  std::string Value;
  std::string Type;
  std::string Output;
  std::string Error;
};

EvalResult evalP(const std::string &Src, int Workers = 1,
                 em::Mode Mode = em::Mode::Manage) {
  EvalResult R;
  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.GcMinBytes = 1 << 18;
  Cfg.Mode = Mode;
  rt::Runtime Rt(Cfg);
  Rt.run([&] {
    std::vector<std::string> Errs;
    R.Ok = evalSource(Src, R.Output, R.Value, R.Type, Errs);
    if (!Errs.empty())
      R.Error = Errs[0];
  });
  return R;
}

std::string typeOf(const std::string &Src) {
  std::vector<std::string> Errs;
  ExprPtr E = parseProgram(Src, Errs);
  if (!E)
    return "<parse error>";
  TypeChecker TC;
  Ty *T = TC.infer(*E, Errs);
  return T ? TypeChecker::show(T) : "<type error>";
}

//===----------------------------------------------------------------------===//
// The effectful corpus, shared with the differential layer below. Every
// program is self-checking: its expected printed output is stored next to
// it, and the differential tests additionally require the output to be
// identical across Manage/Detect/Off.
//===----------------------------------------------------------------------===//

struct EffProgram {
  const char *Name;
  const char *Src;
  const char *Expect; ///< Expected print output (the checksum).
  int Workers;        ///< Worker count exercising the interesting schedule.
};

const EffProgram Corpus[] = {
    {"basic_resume",
     "effect Ask\n"
     "fun client x = perform Ask x + perform Ask 10\n"
     "printInt (handle client 1 with | Ask n k => resume k (n * 100) end)",
     "1100\n", 1},
    {"abort_drops_continuation",
     "effect Abort\n"
     "printInt (handle 1 + perform Abort 0 with | Abort x k => 42 end)",
     "42\n", 1},
    {"nested_pass_through",
     "effect Abort\n"
     "effect Ask\n"
     "printInt (handle\n"
     "            handle perform Ask 1 with | Abort x k => 0 - 1 end\n"
     "          with | Ask n k => resume k (n + 7) end)",
     "8\n", 1},
    {"innermost_handler_wins",
     "effect E\n"
     "printInt (handle\n"
     "            handle perform E 3 with | E x k => resume k (x * 2) end\n"
     "          with | E x k => resume k 1000 end)",
     "6\n", 1},
    {"deep_perform_through_calls",
     "effect E\n"
     "fun down n = if n = 0 then perform E 0 else down (n - 1) + 1\n"
     "printInt (handle down 100 with | E x k => resume k 5 end)",
     "105\n", 1},
    {"state_encoding",
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
     "31\n", 1},
    {"resume_in_par_branch",
     "effect Yield\n"
     "val r =\n"
     "  handle 100 + perform Yield 0 with\n"
     "  | Yield x k =>\n"
     "      let val p = par (resume k 7, 1 + 1)\n"
     "      in fst p * snd p end\n"
     "  end\n"
     "printInt r",
     "214\n", 3},
    {"capture_in_par_resume_deeper",
     // The tentpole schedule: each par branch installs a handler, captures
     // a continuation at depth 1, and resumes it inside a nested par
     // branch at depth 2 — possibly on another worker, after the capture
     // heap gained children. 214 per branch (see resume_in_par_branch).
     "effect Yield\n"
     "fun task u =\n"
     "  handle 100 + perform Yield 0 with\n"
     "  | Yield x k =>\n"
     "      let val p = par (resume k 7, 1 + 1)\n"
     "      in fst p * snd p end\n"
     "  end\n"
     "val pr = par (task (), task ())\n"
     "printInt (fst pr + snd pr)",
     "428\n", 3},
    {"capture_resume_loop_under_gc",
     // Many capture/resume cycles so collections interleave with parked
     // continuations (the heap moves everything *around* the pinned
     // snapshot).
     "effect E\n"
     "fun step i = handle perform E i with | E x k => resume k (x + 1) end\n"
     "fun loop i acc = if i = 0 then acc else loop (i - 1) (acc + step i)\n"
     "printInt (loop 200 0)",
     "20300\n", 1},
    {"effect_shadowing_distinct_ids",
     // Two `effect E` declarations are distinct effects: the inner perform
     // resolves to the inner declaration, so only the inner handler (keyed
     // by the same declaration) answers it.
     "effect E\n"
     "val outer = handle perform E 0 with | E x k => resume k 1 end\n"
     "val inner =\n"
     "  let effect E\n"
     "  in handle perform E 0 with | E x k => resume k 2 end end\n"
     "printInt outer;\n"
     "printInt inner",
     "1\n2\n", 1},
};

class EffConformance : public ::testing::TestWithParam<EffProgram> {};
class EffDifferential : public ::testing::TestWithParam<EffProgram> {};

} // namespace

//===----------------------------------------------------------------------===//
// Conformance
//===----------------------------------------------------------------------===//

TEST_P(EffConformance, ProducesExpectedOutput) {
  const EffProgram &P = GetParam();
  EvalResult R = evalP(P.Src, P.Workers);
  ASSERT_TRUE(R.Ok) << P.Name << ": " << R.Error;
  EXPECT_EQ(R.Output, P.Expect) << P.Name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, EffConformance, ::testing::ValuesIn(Corpus),
                         [](const ::testing::TestParamInfo<EffProgram> &I) {
                           return I.param.Name;
                         });

TEST(EffHandlers, TypesOfEffectConstructs) {
  EXPECT_EQ(typeOf("effect E\n"
                   "handle perform E 0 with | E x k => resume k 1 end"),
            "int");
  // The payload and resume types are fixed per declaration: a perform and
  // an arm that disagree must be rejected.
  EXPECT_EQ(typeOf("effect E\n"
                   "handle perform E true with | E x k => resume k (x + 1) "
                   "end"),
            "<type error>");
  // Every arm body must produce the handle's answer type (here the body
  // fixes it to int, so a bool arm is rejected).
  EXPECT_EQ(typeOf("effect E\n"
                   "handle perform E 0 + 1 with | E x k => true end"),
            "<type error>");
  // When the body *is* the perform, the effect's resume type and the
  // answer type are one and the same variable: an arm that answers with a
  // bool fixes both, and the program is well-typed.
  EXPECT_EQ(typeOf("effect E\n"
                   "handle perform E 0 with | E x k => true end"),
            "bool");
  // resume of a non-continuation is a type error (the VM's dynamic check
  // is a defensive backstop behind this).
  EXPECT_EQ(typeOf("effect E\n"
                   "handle perform E 0 with | E x k => resume 5 1 end"),
            "<type error>");
}

TEST(EffHandlers, DoubleResumeIsOneShotError) {
  EvalResult R = evalP(
      "effect E\n"
      "handle perform E 0 with | E x k => resume k 1 + resume k 2 end");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("continuation already resumed (one-shot)"),
            std::string::npos)
      << R.Error;
}

TEST(EffHandlers, UnhandledPerformIsStructuredError) {
  EvalResult R = evalP("effect E\nprintInt (perform E 3)");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unhandled effect 'E'"), std::string::npos)
      << R.Error;
}

TEST(EffHandlers, ShadowedEffectIsNotAnsweredByOuterHandler) {
  // The inner `effect E` is a different effect than the outer one the
  // handler was keyed on, so the perform escapes unanswered.
  EvalResult R = evalP("effect E\n"
                       "handle (let effect E in perform E 0 end) with\n"
                       "| E x k => resume k 1 end");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unhandled effect 'E'"), std::string::npos)
      << R.Error;
}

TEST(EffHandlers, EffectsAreDelimitedByPar) {
  // rt::par delimits effects: a perform inside a branch cannot be answered
  // by a handler installed outside the par (each branch is a fresh
  // delimited strand).
  EvalResult R = evalP("effect E\n"
                       "handle fst (par (perform E 0, 1)) with\n"
                       "| E x k => resume k 3 end");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unhandled effect 'E'"), std::string::npos)
      << R.Error;
}

TEST(EffHandlers, HandlerInsideParBranchWorks) {
  // ...but a handler *inside* the branch answers normally, concurrently
  // with the sibling.
  EvalResult R = evalP(
      "effect E\n"
      "val p = par ((fn u => handle perform E 1 with | E x k => resume k 9 "
      "end) 0, 2)\n"
      "printInt (fst p);\n"
      "printInt (snd p)",
      2);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "9\n2\n");
}

TEST(EffHandlers, PerformThroughForkJoinBoundary) {
  // The handled body forks and joins before performing: the capture then
  // walks frames whose heap gained and lost children in between.
  EvalResult R = evalP("effect E\n"
                       "fun body u =\n"
                       "  let val p = par (1 + 1, 2 + 2)\n"
                       "  in fst p + snd p + perform E 0 end\n"
                       "printInt (handle body () with | E x k => resume k 10 "
                       "end)",
                       2);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "16\n");
}

TEST(EffHandlers, DeepHandlerAnswersRepeatedPerformsAfterResume) {
  // Deep-handler semantics: the resume reinstalls the handler, so later
  // performs in the reinstated computation are answered by the same arms.
  EvalResult R =
      evalP("effect E\n"
            "printInt (handle perform E 1 + perform E 2 + perform E 3 with\n"
            "          | E x k => resume k (x * 10) end)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "60\n");
}

//===----------------------------------------------------------------------===//
// Pin protocol: capture pins, resume/join releases, nothing leaks
//===----------------------------------------------------------------------===//

namespace {
/// Runs \p Src under Manage with \p Workers workers, then checks full
/// quiescence: invariant pass clean, zero live pins, and the capture /
/// resume counters at the expected values.
void runAndCheckPins(const char *Src, int Workers, const char *ExpectOut,
                     int64_t ExpectCaptures, int64_t ExpectResumes) {
  em::Counts.reset();
  EvalResult R;
  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.GcMinBytes = 1 << 16; // Aggressive: collections race parked conts.
  rt::Runtime Rt(Cfg);
  Rt.run([&] {
    std::vector<std::string> Errs;
    R.Ok = evalSource(Src, R.Output, R.Value, R.Type, Errs);
    if (!Errs.empty())
      R.Error = Errs[0];
    em::InvariantReport Rep = em::verifyInvariants(/*ExpectFullyJoined=*/true);
    EXPECT_TRUE(Rep.ok()) << Rep.str();
  });
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, ExpectOut);
  em::CounterSnapshot S = em::Counts.snapshot();
  EXPECT_EQ(S.ContCaptured, ExpectCaptures);
  EXPECT_EQ(S.ContResumed, ExpectResumes);
  EXPECT_EQ(S.livePinnedObjects(), 0) << "leaked pins after full join";
  EXPECT_EQ(S.livePinnedBytes(), 0);
}
} // namespace

class EffPinProtocol : public ::testing::TestWithParam<int> {};

TEST_P(EffPinProtocol, CrossWorkerResumeReleasesEveryPin) {
  // The tentpole schedule (see capture_in_par_resume_deeper in the corpus):
  // two branches each capture at depth 1 and resume at depth 2.
  runAndCheckPins(Corpus[7].Src, GetParam(), Corpus[7].Expect,
                  /*ExpectCaptures=*/2, /*ExpectResumes=*/2);
}

TEST_P(EffPinProtocol, RootCaptureParResume) {
  // Capture at depth 0 (no pins needed: GC roots keep the cont alive),
  // resume inside a par branch.
  runAndCheckPins(Corpus[6].Src, GetParam(), Corpus[6].Expect,
                  /*ExpectCaptures=*/1, /*ExpectResumes=*/1);
}

TEST_P(EffPinProtocol, AbortedContinuationStillUnpinsAtJoin) {
  // The continuation is captured inside a par branch and *dropped* (the
  // arm answers without resuming): the capture pins must then be released
  // by the ordinary join rule, not leak.
  runAndCheckPins(
      "effect Abort\n"
      "fun task u = handle 1 + perform Abort 0 with | Abort x k => 42 end\n"
      "val p = par (task (), task ())\n"
      "printInt (fst p + snd p)",
      GetParam(), "84\n",
      /*ExpectCaptures=*/2, /*ExpectResumes=*/0);
}

INSTANTIATE_TEST_SUITE_P(Workers, EffPinProtocol, ::testing::Values(1, 3),
                         [](const ::testing::TestParamInfo<int> &I) {
                           return "Workers" + std::to_string(I.param);
                         });

TEST(EffPinProtocol, CaptureAttributionMatchesPinnedBytes) {
  // The only pins this program can take are capture pins (no refs or
  // arrays are shared across strands), so em.pins.cont must account for
  // *all* pinned objects, and the joins and resumes must release every
  // pinned byte.
  em::Counts.reset();
  EvalResult R;
  {
    rt::Config Cfg;
    Cfg.NumWorkers = 2;
    Cfg.GcMinBytes = 1 << 16;
    rt::Runtime Rt(Cfg);
    Rt.run([&] {
      std::vector<std::string> Errs;
      R.Ok = evalSource(Corpus[7].Src, R.Output, R.Value, R.Type, Errs);
      if (!Errs.empty())
        R.Error = Errs[0];
    });
  }
  ASSERT_TRUE(R.Ok) << R.Error;
  em::CounterSnapshot S = em::Counts.snapshot();
  EXPECT_GT(S.ContPins, 0);
  EXPECT_EQ(S.ContPins, S.PinnedObjects)
      << "every pin of this program is a capture pin";
  EXPECT_EQ(S.livePinnedObjects(), 0) << "all capture pins released";
  EXPECT_EQ(S.livePinnedBytes(), 0);
}

TEST(EffPinProtocol, ResumeUnpinsAreCountedByName) {
  // A resume releases its capture pins in place, not at a join. Those
  // releases are unpins like any other: by registry name, everything
  // pinned is unpinned once the task tree has joined.
  const EffProgram &P = Corpus[7];
  ASSERT_STREQ(P.Name, "capture_in_par_resume_deeper");
  StatRegistry::get().resetAll();
  EvalResult R = evalP(P.Src, /*Workers=*/2);
  ASSERT_TRUE(R.Ok) << R.Error;
  StatRegistry &Reg = StatRegistry::get();
  EXPECT_GT(Reg.valueOf("em.pins.objects"), 0);
  EXPECT_EQ(Reg.valueOf("em.unpins"), Reg.valueOf("em.pins.objects"));
  EXPECT_EQ(Reg.valueOf("em.unpins.bytes"), Reg.valueOf("em.pinned.bytes"));
}

//===----------------------------------------------------------------------===//
// Differential: Manage / Detect / Off agree on every effectful program
//===----------------------------------------------------------------------===//

TEST_P(EffDifferential, ModesAgreeOnOutput) {
  const EffProgram &P = GetParam();
  EvalResult Manage = evalP(P.Src, P.Workers, em::Mode::Manage);
  EvalResult Detect = evalP(P.Src, P.Workers, em::Mode::Detect);
  EvalResult Off = evalP(P.Src, P.Workers, em::Mode::Off);
  ASSERT_TRUE(Manage.Ok) << P.Name << ": " << Manage.Error;
  ASSERT_TRUE(Detect.Ok) << P.Name
                         << ": handler programs re-establish heap ancestry "
                            "on resume, so Detect must accept them: "
                         << Detect.Error;
  ASSERT_TRUE(Off.Ok) << P.Name << ": " << Off.Error;
  EXPECT_EQ(Manage.Output, P.Expect) << P.Name;
  EXPECT_EQ(Detect.Output, Manage.Output) << P.Name;
  EXPECT_EQ(Off.Output, Manage.Output) << P.Name;
  EXPECT_EQ(Detect.Value, Manage.Value) << P.Name;
  EXPECT_EQ(Off.Value, Manage.Value) << P.Name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, EffDifferential, ::testing::ValuesIn(Corpus),
                         [](const ::testing::TestParamInfo<EffProgram> &I) {
                           return I.param.Name;
                         });
