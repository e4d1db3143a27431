//===- tests/fuzz_sched_test.cpp - Seeded schedule fuzzing ----------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Drives the entangled workloads under chaos::ChaosSchedule: seeded victim
// forcing, injected preemptions at the barrier/join/GC decision points,
// delayed joins, steal storms, and forced collections — then cross-checks
// em::verifyInvariants and value integrity after every phase.
//
// Reproducing a failure: every corpus case prints its seed; rerun with
//   MPL_CHAOS_SEED=<seed> ./fuzz_sched_test
// to execute exactly that case (same perturbation mix, same worker count).
// MPL_FUZZ_SEEDS=<n> widens the corpus (CI runs 50 under TSan; the default
// is sized for a quick local ctest).
//
// The fault-injection cases arm a deliberate runtime bug (a skipped pin, a
// skipped join-time unpin) behind chaos::Fault and assert that the harness
// (a) catches it and (b) produces the identical failure signature when the
// seed is replayed — the property that makes a CI fuzz failure debuggable.
//
//===----------------------------------------------------------------------===//

#include "chaos/ChaosSchedule.h"
#include "core/Em.h"
#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "obs/Trace.h"
#include "pml/Vm.h"
#include "pml/jit/Jit.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "workloads/Entangled.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

using namespace mpl;
using namespace mpl::ops;

namespace {

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

/// Everything one chaos run produced, separated from GTest assertions so
/// two runs of the same seed can be compared for deterministic replay.
struct FuzzOutcome {
  bool ValuesOk = true;
  std::vector<std::string> ValueErrors;
  std::vector<std::string> Violations;
  em::CounterSnapshot Final;
  chaos::Totals Totals;
  int64_t JitCompiled = 0; ///< pml functions tiered up during the run.
  int64_t JitEntries = 0;  ///< dispatcher entries into native code.

  bool ok() const { return ValuesOk && Violations.empty(); }

  /// Stable digest of what failed (and of the entanglement activity that
  /// led there). Two runs of the same seed at one worker must match.
  std::string signature() const {
    std::ostringstream S;
    S << "valuesOk=" << ValuesOk;
    for (const std::string &E : ValueErrors)
      S << "; value: " << E;
    for (const std::string &V : Violations)
      S << "; invariant: " << V;
    S << "; reads=" << Final.EntangledReads
      << " readsUnpinned=" << Final.EntangledReadsUnpinned
      << " pins=" << Final.PinnedObjects << " unpins=" << Final.UnpinnedObjects
      << " conts=" << Final.ContCaptured << "/" << Final.ContResumed
      << " faults=" << Totals.FaultsInjected
      << " jit=" << JitCompiled << "/" << JitEntries;
    return S.str();
  }
};

/// The deepest branch of a Depth-level nest publishes one box per level
/// into a root-depth board (pins with unpin depth 0, released only by the
/// final top-level join).
void publishPyramid(Object *Board, int Level, int Depth) {
  if (Level == Depth)
    return;
  Local LB(Board);
  rt::par(
      [&] {
        Local Box(newRef(boxInt(100 + Level)));
        arrSet(LB.get(), static_cast<uint32_t>(Level), Box.slot());
        publishPyramid(LB.get(), Level + 1, Depth);
        return unit();
      },
      [&] { return unit(); });
}

/// Runs the mixed entangled workload under \p C with \p Workers workers,
/// verifying invariants and checksums after every phase.
/// With \p UseJit the pml tier compiles at threshold 1, so the effects
/// phase runs native code with the chaos JitPublish/JitEnter preemption
/// points armed — steals and forced GCs race compilation and entry.
FuzzOutcome runUnderChaos(const chaos::Config &C, int Workers,
                          bool UseJit = false) {
  FuzzOutcome Out;
  em::Counts.reset();
  StatRegistry::get().resetAll();
  jit::setCompileThreshold(1);
  jit::setEnabled(UseJit);
  // Arm the tracer so a failing seed can flush the last window of
  // scheduler/barrier/GC events next to its printed seed. The previous
  // case's events are dropped so the flush shows only this run.
  obs::Tracer::get().clear();
  obs::Tracer::get().enable();
  chaos::enable(C);

  auto valueCheck = [&](bool Cond, const char *What) {
    if (!Cond) {
      Out.ValuesOk = false;
      Out.ValueErrors.emplace_back(What);
    }
  };

  {
    rt::Config RC;
    RC.NumWorkers = Workers;
    RC.GcMinBytes = 1 << 16; // Aggressive: maximize GC interleavings.
    rt::Runtime R(RC);

    auto phaseCheck = [&](const char *Phase) {
      // Between top-level phases the tree has fully joined: every unpin
      // depth has been reached, so no live pin may remain.
      em::InvariantReport Rep =
          em::verifyInvariants(/*ExpectFullyJoined=*/true);
      for (const std::string &V : Rep.Violations)
        Out.Violations.push_back(std::string(Phase) + ": " + V);
    };

    R.run([&] {
      // Phase 1: cross-pointer stress (publish + consume + write-back).
      valueCheck(wl::exchange(120) == 120, "exchange round-trip");
      phaseCheck("exchange");

      // Phase 2: down-pointer pins at every nesting level.
      {
        const int Depth = 5;
        Local Board(newArray(Depth, boxInt(0)));
        publishPyramid(Board.get(), 0, Depth);
        for (int L = 0; L < Depth; ++L) {
          Object *Box = Object::asPointer(
              arrGet(Board.get(), static_cast<uint32_t>(L)));
          valueCheck(Box && unboxInt(refGet(Box)) == 100 + L,
                     "pyramid level value");
          valueCheck(Box && !Box->isPinned(), "pyramid pin released");
        }
      }
      phaseCheck("pyramid");

      // Phase 3: producer/consumer through a Treiber stack.
      valueCheck(wl::channelPipeline(250) == 250 * 249 / 2,
                 "pipeline drained sum");
      phaseCheck("pipeline");

      // Phase 4: shared phase-concurrent hash table under churn.
      {
        Local Keys(wl::randomInts(2000, 500, 99));
        int64_t Got = wl::dedup(Keys.get(), 64);
        std::vector<bool> Seen(500, false);
        int64_t Expect = 0;
        for (int64_t I = 0; I < 2000; ++I) {
          auto V = static_cast<size_t>(
              hash64(99 ^ hash64(static_cast<uint64_t>(I))) % 500);
          if (!Seen[V]) {
            Seen[V] = true;
            ++Expect;
          }
        }
        valueCheck(Got == Expect, "dedup distinct count");
      }
      phaseCheck("dedup");

      // Phase 5: first-class effect handlers (DESIGN.md §13). Each par
      // branch captures a continuation at depth 1 and resumes it inside a
      // nested branch at depth 2 — the capture/resume pin protocol runs
      // with the ContCapture/ContResume preemption points armed, racing
      // steals, joins and forced collections. The aborting task drops its
      // continuation, so its capture pins must be released by the join
      // rule instead of the resume.
      {
        static const char *EffSrc =
            "effect Yield\n"
            "effect Abort\n"
            "fun task u =\n"
            "  handle 100 + perform Yield 0 with\n"
            "  | Yield x k =>\n"
            "      let val p = par (resume k 7, 1 + 1)\n"
            "      in fst p * snd p end\n"
            "  end\n"
            "fun drop u = handle 1 + perform Abort 0 with\n"
            "             | Abort x k => 42 end\n"
            "val pr = par (task (), task ())\n"
            "val dr = par (drop (), drop ())\n"
            "printInt (fst pr + snd pr + fst dr + snd dr)";
        std::string Out, Val, TyS;
        std::vector<std::string> Errs;
        bool Ok = pml::evalSource(EffSrc, Out, Val, TyS, Errs);
        valueCheck(Ok, "effects program evaluates");
        valueCheck(Out == "512\n", "effects checksum");
      }
      phaseCheck("effects");
    });

    // Final quiescence, after the root task finished.
    em::InvariantReport Rep =
        em::verifyInvariants(R.heaps(), /*ExpectFullyJoined=*/true);
    for (const std::string &V : Rep.Violations)
      Out.Violations.push_back(std::string("final: ") + V);
  }

  Out.Final = em::Counts.snapshot();
  Out.Totals = chaos::totals();
  Out.JitCompiled = StatRegistry::get().valueOf("pml.jit.compiled");
  Out.JitEntries = StatRegistry::get().valueOf("pml.jit.entries");
  chaos::disable();
  obs::Tracer::get().disable();
  jit::setEnabled(false);
  jit::setCompileThreshold(64);
  return Out;
}

//===----------------------------------------------------------------------===//
// Seed corpus
//===----------------------------------------------------------------------===//

std::vector<uint64_t> corpusSeeds() {
  // MPL_CHAOS_SEED=<seed> replays exactly one case (printed on failure).
  if (const char *S = std::getenv("MPL_CHAOS_SEED"))
    return {std::strtoull(S, nullptr, 0)};
  int N = 10; // Quick local default; CI raises this (see tools/ci.sh).
  if (const char *S = std::getenv("MPL_FUZZ_SEEDS"))
    if (int Parsed = std::atoi(S); Parsed > 0)
      N = Parsed;
  std::vector<uint64_t> Seeds;
  for (int I = 1; I <= N; ++I)
    Seeds.push_back(static_cast<uint64_t>(I));
  return Seeds;
}

/// CI's memory-pressure stage sets MPL_CHAOS_FAULT_EVERY_N=<n> (n >= 2) to
/// arm chaos::Fault::FailChunkAlloc across the whole corpus: every n-th
/// chunk acquisition fails and must be rescued by the governor's recovery
/// ladder with no invariant or value damage. n == 1 would make every retry
/// fail too (the ladder can never settle), so it is rejected.
uint32_t envFaultEveryN() {
  if (const char *S = std::getenv("MPL_CHAOS_FAULT_EVERY_N"))
    if (int N = std::atoi(S); N >= 2)
      return static_cast<uint32_t>(N);
  return 0;
}

class ScheduleFuzz : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(ScheduleFuzz, CleanTreeHoldsAllInvariants) {
  const uint64_t Seed = GetParam();
  chaos::Config C = chaos::Config::fromSeed(Seed);
  if (uint32_t EveryN = envFaultEveryN()) {
    C.InjectFault = chaos::Fault::FailChunkAlloc;
    C.FaultEveryN = EveryN;
  }
  // Half the corpus runs the effects phase under the JIT tier (threshold
  // 1), so the chaos mix also races code publication and native entry.
  FuzzOutcome Out = runUnderChaos(C, C.suggestedWorkers(), Seed % 2 == 0);
  // On failure, flush the event window of this run so the seed replay has
  // a timeline to start from (loadable in Perfetto / chrome://tracing).
  std::string TraceNote;
  if (!Out.ok()) {
    std::string TracePath =
        "chaos_trace_seed_" + std::to_string(Seed) + ".json";
    if (obs::Tracer::get().writeChromeTrace(TracePath))
      TraceNote = "\n  trace of the failing run: " + TracePath;
  }
  EXPECT_TRUE(Out.ok()) << "schedule-fuzz failure; reproduce with:\n"
                        << "  MPL_CHAOS_SEED=" << Seed
                        << " ./fuzz_sched_test\n"
                        << Out.signature() << TraceNote;
  // The run must have exercised entanglement at all, or the corpus is
  // fuzzing nothing.
  EXPECT_GT(Out.Final.PinnedObjects, 0);
  EXPECT_GT(Out.Final.EntangledReads, 0);
  // ...and the continuation capture/resume protocol (phase 5), with its
  // chaos decision points armed. Four captures per run: two resumed on a
  // deeper strand, two dropped (released by the join rule).
  EXPECT_EQ(Out.Final.ContCaptured, 4);
  EXPECT_EQ(Out.Final.ContResumed, 2);
}

INSTANTIATE_TEST_SUITE_P(Corpus, ScheduleFuzz,
                         ::testing::ValuesIn(corpusSeeds()),
                         [](const ::testing::TestParamInfo<uint64_t> &I) {
                           return "Seed" + std::to_string(I.param);
                         });

//===----------------------------------------------------------------------===//
// Perturbations actually fire
//===----------------------------------------------------------------------===//

TEST(ChaosSchedule, PerturbationsAreExercised) {
  chaos::Config C;
  C.Seed = 2024;
  C.PreemptPermille = 1000; // Preempt at every decision point.
  C.ForceVictim = true;
  C.GcAtAllocPermille = 50;
  FuzzOutcome Out = runUnderChaos(C, 4);
  EXPECT_TRUE(Out.ok()) << Out.signature();
  EXPECT_GT(Out.Totals.Preemptions, 0);
  EXPECT_GT(Out.Totals.ForcedVictims, 0);
  EXPECT_GT(Out.Totals.ForcedGcs, 0);
}

TEST(ChaosSchedule, GcAtEveryAllocationStaysSound) {
  chaos::Config C;
  C.Seed = 7;
  C.GcAtAllocPermille = 1000; // Collect at every allocation poll.
  // One worker keeps the run small enough for per-alloc collection.
  FuzzOutcome Out = runUnderChaos(C, 1);
  EXPECT_TRUE(Out.ok()) << Out.signature();
  EXPECT_GT(Out.Totals.ForcedGcs, 0);
}

TEST(ChaosSchedule, SingleWorkerReplayIsDeterministic) {
  chaos::Config C = chaos::Config::fromSeed(5);
  FuzzOutcome A = runUnderChaos(C, 1);
  FuzzOutcome B = runUnderChaos(C, 1);
  EXPECT_TRUE(A.ok()) << A.signature();
  EXPECT_EQ(A.signature(), B.signature())
      << "one-worker chaos runs of the same seed must replay exactly";
  EXPECT_EQ(A.Final.EntangledReads, B.Final.EntangledReads);
  EXPECT_EQ(A.Final.PinnedBytes, B.Final.PinnedBytes);
}

//===----------------------------------------------------------------------===//
// JIT under chaos: tier-up races steals, preemptions and forced GCs
//===----------------------------------------------------------------------===//

TEST(JitChaos, ArmedJitSurvivesPreemptionStorm) {
  // Preempt at every decision point — including JitPublish (just before a
  // compiled function is published to other strands) and JitEnter (just
  // before the dispatcher jumps into native code). All invariants and
  // value checksums must hold exactly as in the interpreted runs.
  chaos::Config C;
  C.Seed = 90210;
  C.PreemptPermille = 1000;
  C.ForceVictim = true;
  C.GcAtAllocPermille = 50;
  FuzzOutcome Out = runUnderChaos(C, 4, /*UseJit=*/true);
  EXPECT_TRUE(Out.ok()) << Out.signature();
  EXPECT_GT(Out.Totals.Preemptions, 0);
  if (!jit::tsanForcedOff() && MPL_JIT_SUPPORTED) {
    EXPECT_GT(Out.JitCompiled, 0) << "effects phase never tiered up";
    EXPECT_GT(Out.JitEntries, 0);
  }
}

TEST(JitChaos, SameSeedTiersIdentically) {
  // Tier checks happen only at frame boundaries and compilation is claimed
  // by CAS, so a one-worker chaos schedule replays its tier decisions
  // exactly: same functions compiled, same number of native entries.
  chaos::Config C = chaos::Config::fromSeed(31);
  FuzzOutcome A = runUnderChaos(C, 1, /*UseJit=*/true);
  FuzzOutcome B = runUnderChaos(C, 1, /*UseJit=*/true);
  EXPECT_TRUE(A.ok()) << A.signature();
  EXPECT_EQ(A.signature(), B.signature())
      << "JIT-armed one-worker chaos runs of the same seed must replay";
  EXPECT_EQ(A.JitCompiled, B.JitCompiled);
  EXPECT_EQ(A.JitEntries, B.JitEntries);
  // The interpreted run of the same seed must agree on everything the
  // signature tracks except the jit counters themselves.
  FuzzOutcome I = runUnderChaos(C, 1, /*UseJit=*/false);
  EXPECT_TRUE(I.ok()) << I.signature();
  EXPECT_EQ(I.JitCompiled, 0);
  EXPECT_EQ(I.Final.ContCaptured, A.Final.ContCaptured);
  EXPECT_EQ(I.Final.ContResumed, A.Final.ContResumed);
}

//===----------------------------------------------------------------------===//
// Fault injection: the harness must catch a deliberately broken runtime,
// and the failure must replay exactly from its seed.
//===----------------------------------------------------------------------===//

TEST(ChaosFaultInjection, SkippedPinIsCaughtAndReplays) {
  chaos::Config C;
  C.Seed = 12345;
  C.InjectFault = chaos::Fault::SkipPin;
  C.FaultEveryN = 2; // Every other pin opportunity loses its pin.
  FuzzOutcome First = runUnderChaos(C, 1);
  EXPECT_FALSE(First.ok())
      << "a write barrier that loses pins must be caught";
  EXPECT_GT(First.Final.EntangledReadsUnpinned, 0)
      << "the entangled reader should observe the lost pin";
  EXPECT_GT(First.Totals.FaultsInjected, 0);

  FuzzOutcome Second = runUnderChaos(C, 1);
  EXPECT_EQ(First.signature(), Second.signature())
      << "the injected failure must reproduce exactly from its seed";
}

TEST(ChaosFaultInjection, SkippedUnpinIsCaughtAndReplays) {
  chaos::Config C;
  C.Seed = 777;
  C.InjectFault = chaos::Fault::SkipUnpin;
  C.FaultEveryN = 1; // Every join-time release is leaked.
  FuzzOutcome First = runUnderChaos(C, 1);
  EXPECT_FALSE(First.ok()) << "a join that leaks pins must be caught";
  bool SawLeak = false;
  for (const std::string &V : First.Violations)
    SawLeak |= V.find("still pinned") != std::string::npos;
  EXPECT_TRUE(SawLeak) << First.signature();

  FuzzOutcome Second = runUnderChaos(C, 1);
  EXPECT_EQ(First.signature(), Second.signature())
      << "the injected failure must reproduce exactly from its seed";
}

TEST(ChaosFaultInjection, FailedChunkAllocRecoversWithoutDamage) {
  // Unlike SkipPin/SkipUnpin this fault is *survivable by design*: the
  // governor's recovery ladder (trim -> emergency GC -> backoff retry)
  // must absorb every-other-attempt allocation failures with zero value
  // or invariant damage — and without raising OutOfMemoryError.
  chaos::Config C;
  C.Seed = 4242;
  C.InjectFault = chaos::Fault::FailChunkAlloc;
  C.FaultEveryN = 2;
  FuzzOutcome First = runUnderChaos(C, 1);
  EXPECT_TRUE(First.ok()) << First.signature();
  EXPECT_GT(First.Totals.FaultsInjected, 0)
      << "chunk-allocation faults must actually have fired";
  EXPECT_GT(StatRegistry::get().valueOf("mm.alloc.retries"), 0)
      << "each fired fault must go through the recovery ladder";
  EXPECT_EQ(StatRegistry::get().valueOf("mm.oom.raised"), 0);

  FuzzOutcome Second = runUnderChaos(C, 1);
  EXPECT_EQ(First.signature(), Second.signature())
      << "fault-injected recovery must replay exactly from its seed";
}

TEST(ChaosFaultInjection, SameSeedCleanTreeIsQuiet) {
  // The identical seeds with no fault armed: zero findings. This pins the
  // detectors to the faults (no background noise to drown a regression).
  for (uint64_t Seed : {uint64_t(12345), uint64_t(777)}) {
    chaos::Config C;
    C.Seed = Seed;
    FuzzOutcome Out = runUnderChaos(C, 1);
    EXPECT_TRUE(Out.ok()) << "seed " << Seed << ": " << Out.signature();
    EXPECT_EQ(Out.Final.EntangledReadsUnpinned, 0);
    EXPECT_EQ(Out.Totals.FaultsInjected, 0);
  }
}
