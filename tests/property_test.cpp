//===- tests/property_test.cpp - Model-checked GC property tests ----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Randomized property testing of the heap/GC/entanglement core against a
// shadow model. A random sequence of operations — allocations with random
// (discipline-respecting, pin-accompanied) edges, root creation/removal,
// heap forks, joins, and chain collections — runs simultaneously on the
// real runtime substrate and on a plain-C++ model graph. After every
// mutation batch, the reachable object graph must be isomorphic to the
// model: same tags, same shape, same sharing. Pinned objects must never
// move across a collection.
//
// A second harness generates random *effect-handler programs* (random
// handler nesting, perform depth, par placement) whose value is known by
// construction, runs them on the full pml stack, and checks the capture
// pin protocol: zero leaked pins at quiescence, capture/resume counters
// balancing the generated perform count, and the em.cont.capture profile
// site accounting for every pinned byte.
//
//===----------------------------------------------------------------------===//

#include "core/Em.h"
#include "core/Runtime.h"
#include "gc/Collector.h"
#include "gc/ShadowStack.h"
#include "hh/Heap.h"
#include "pml/Vm.h"
#include "pml/jit/Jit.h"
#include "support/Random.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace mpl;

namespace {

struct ModelNode {
  int64_t Tag;
  std::vector<ModelNode *> Children;
};

class PropertyHarness {
public:
  explicit PropertyHarness(uint64_t Seed) : R(Seed) {
    HeapOf.push_back(HM.createRoot());
    ParentOf.push_back(-1);
    Alive.push_back(true);
    LiveKids.push_back(0);
    RootBase = nullptr;
    Stack.pushRange(&RootBase, &NumRoots);
  }

  ~PropertyHarness() { Stack.popRange(&RootBase); }

  void step() {
    uint64_t Dice = R.nextBounded(100);
    if (Dice < 45)
      allocateObject();
    else if (Dice < 60)
      addRoot();
    else if (Dice < 70)
      dropRoot();
    else if (Dice < 80)
      forkHeap();
    else if (Dice < 90)
      joinHeap();
    else
      collect();
  }

  /// Full isomorphism check of every root against the model.
  void validate() {
    std::map<const Object *, const ModelNode *> Seen;
    for (size_t I = 0; I < NumRoots; ++I)
      checkIso(Object::asPointer(RootSlots[I]), ModelRoots[I], Seen);
  }

  int64_t collections() const { return NumCollections; }
  int64_t allocations() const { return NextTag; }

private:
  //===-- Heap-tree management -------------------------------------------===

  int randomAliveHeap() {
    std::vector<int> Candidates;
    for (size_t I = 0; I < Alive.size(); ++I)
      if (Alive[I])
        Candidates.push_back(static_cast<int>(I));
    return Candidates[R.nextBounded(Candidates.size())];
  }

  int randomLeafHeap() {
    std::vector<int> Candidates;
    for (size_t I = 0; I < Alive.size(); ++I)
      if (Alive[I] && LiveKids[I] == 0)
        Candidates.push_back(static_cast<int>(I));
    return Candidates[R.nextBounded(Candidates.size())];
  }

  void forkHeap() {
    if (Alive.size() > 24)
      return;
    int P = randomAliveHeap();
    Heap *H = HM.forkChild(HeapOf[static_cast<size_t>(P)]);
    HeapOf.push_back(H);
    ParentOf.push_back(P);
    Alive.push_back(true);
    LiveKids.push_back(0);
    LiveKids[static_cast<size_t>(P)]++;
    HeapOf[static_cast<size_t>(P)]->setActiveForks(
        LiveKids[static_cast<size_t>(P)]);
  }

  void joinHeap() {
    int C = randomLeafHeap();
    if (C == 0)
      return; // Root never joins.
    int P = ParentOf[static_cast<size_t>(C)];
    HM.join(HeapOf[static_cast<size_t>(P)], HeapOf[static_cast<size_t>(C)]);
    Alive[static_cast<size_t>(C)] = false;
    LiveKids[static_cast<size_t>(P)]--;
    HeapOf[static_cast<size_t>(P)]->setActiveForks(
        LiveKids[static_cast<size_t>(P)]);
  }

  void collect() {
    int L = randomLeafHeap();
    GC.collectChain(HeapOf[static_cast<size_t>(L)], Stack);
    ++NumCollections;
  }

  //===-- Object management ----------------------------------------------===

  /// Picks a random live object by walking a short random path from a
  /// random root. Null when no roots exist.
  std::pair<Object *, ModelNode *> randomLiveObject() {
    if (NumRoots == 0)
      return {nullptr, nullptr};
    size_t I = R.nextBounded(NumRoots);
    Object *O = Object::asPointer(RootSlots[I]);
    ModelNode *M = ModelRoots[I];
    for (int Hop = 0; Hop < 3 && O; ++Hop) {
      if (M->Children.empty() || R.nextBounded(2) == 0)
        break;
      size_t K = R.nextBounded(M->Children.size());
      O = Object::asPointer(O->getSlot(static_cast<uint32_t>(K) + 1));
      M = M->Children[K];
    }
    return {O, M};
  }

  /// Allocates a node with a tag and up to 3 edges to existing objects,
  /// pinning targets exactly as the write barrier would.
  void allocateObject() {
    uint32_t NumEdges = static_cast<uint32_t>(R.nextBounded(4));
    // Collect targets BEFORE allocating (allocation cannot move anything
    // here — no collection runs inside allocate — but keep the discipline
    // obvious).
    std::vector<std::pair<Object *, ModelNode *>> Targets;
    for (uint32_t I = 0; I < NumEdges; ++I) {
      auto T = randomLiveObject();
      if (T.first)
        Targets.push_back(T);
    }
    int HIdx = randomAliveHeap();
    Heap *H = HeapOf[static_cast<size_t>(HIdx)];
    Object *O = H->allocateObject(
        ObjKind::Array, /*Mutable=*/true,
        static_cast<uint32_t>(Targets.size()) + 1, 0);
    auto Node = std::make_unique<ModelNode>();
    Node->Tag = NextTag++;
    O->setSlot(0, (static_cast<uint64_t>(Node->Tag) << 1) | 1);

    for (size_t I = 0; I < Targets.size(); ++I) {
      Object *P = Targets[I].first;
      Heap *HP = Heap::of(P);
      // The write-barrier discipline: pointers into non-ancestor heaps pin
      // the target at the LCA depth (down-pointers: the holder's depth).
      if (HP != H && !Heap::isAncestorOf(HP, H))
        HP->addPinned(P, Heap::lcaDepth(H, HP));
      O->setSlot(static_cast<uint32_t>(I) + 1, Object::fromPointer(P));
      Node->Children.push_back(Targets[I].second);
    }

    // New objects become roots half the time (else they are reachable
    // only if someone points at them — i.e. garbage here).
    if (R.nextBounded(2) == 0 || NumRoots == 0)
      addRootFor(O, Node.get());
    ModelArena.push_back(std::move(Node));
  }

  void addRootFor(Object *O, ModelNode *M) {
    RootSlots.push_back(Object::fromPointer(O));
    ModelRoots.push_back(M);
    RootBase = RootSlots.data();
    NumRoots = RootSlots.size();
  }

  void addRoot() {
    auto T = randomLiveObject();
    if (T.first)
      addRootFor(T.first, T.second);
  }

  void dropRoot() {
    if (NumRoots <= 1)
      return;
    size_t I = R.nextBounded(NumRoots);
    RootSlots.erase(RootSlots.begin() + static_cast<long>(I));
    ModelRoots.erase(ModelRoots.begin() + static_cast<long>(I));
    RootBase = RootSlots.data();
    NumRoots = RootSlots.size();
  }

  //===-- Validation ------------------------------------------------------===

  void checkIso(const Object *O, const ModelNode *M,
                std::map<const Object *, const ModelNode *> &Seen) {
    ASSERT_NE(O, nullptr);
    auto It = Seen.find(O);
    if (It != Seen.end()) {
      // Sharing must agree with the model.
      ASSERT_EQ(It->second, M) << "sharing mismatch at tag " << M->Tag;
      return;
    }
    Seen.emplace(O, M);
    ASSERT_FALSE(O->isForwarded()) << "dangling forwarded object";
    ASSERT_EQ(O->kind(), ObjKind::Array);
    ASSERT_EQ(O->length(), M->Children.size() + 1);
    ASSERT_EQ(static_cast<int64_t>(O->getSlot(0)) >> 1, M->Tag);
    for (size_t I = 0; I < M->Children.size(); ++I)
      checkIso(Object::asPointer(O->getSlot(static_cast<uint32_t>(I) + 1)),
               M->Children[I], Seen);
  }

  Rng R;
  HeapManager HM;
  Collector GC;
  ShadowStack Stack;

  std::vector<Heap *> HeapOf;
  std::vector<int> ParentOf;
  std::vector<bool> Alive;
  std::vector<int> LiveKids;

  std::vector<Slot> RootSlots;
  std::vector<ModelNode *> ModelRoots;
  Slot *RootBase = nullptr;
  size_t NumRoots = 0;

  std::vector<std::unique_ptr<ModelNode>> ModelArena;
  int64_t NextTag = 0;
  int64_t NumCollections = 0;
};

class GcPropertyTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(GcPropertyTest, ReachableGraphAlwaysIsomorphicToModel) {
  PropertyHarness H(GetParam());
  for (int Batch = 0; Batch < 40; ++Batch) {
    for (int S = 0; S < 25; ++S)
      H.step();
    H.validate();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // The run must actually have exercised collection.
  EXPECT_GT(H.collections(), 0);
  EXPECT_GT(H.allocations(), 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89, 144, 233),
                         [](const ::testing::TestParamInfo<uint64_t> &I) {
                           return "seed" + std::to_string(I.param);
                         });

//===----------------------------------------------------------------------===//
// Random effect-handler programs: the capture pin protocol never leaks
//===----------------------------------------------------------------------===//

namespace {

/// A generated pml program together with the value it must print and the
/// number of performs it executes (== captures == resumes: every
/// generated arm resumes exactly once).
struct EffectProgram {
  std::string Src;
  int64_t Expected = 0;
  int64_t Performs = 0;
};

/// Builds a random handler-nesting / perform-depth program. Shape:
///
///   effect E0 .. E{D-1}
///   fun dive<i> n x = if n = 0 then perform E<i> x
///                     else (dive<i> (n - 1) x) + 0   -- non-tail: real depth
///   <handlers nested D deep around a sum of perform terms>
///
/// Every arm for E<i> resumes with (x + C<i>) — some through a nested par
/// (resume on another strand, deeper than the capture). The whole handled
/// expression itself randomly runs inside a par branch, so captures happen
/// at heap depth > 0 and the capture pins actually fire. The printed value
/// is sum over terms of (payload + C<effect>) by construction.
EffectProgram generate(uint64_t Seed) {
  Rng R(Seed);
  int D = 1 + static_cast<int>(R.nextBounded(3));  // handler nesting
  int T = 1 + static_cast<int>(R.nextBounded(4));  // perform terms
  bool ParWrap = R.nextBounded(2) == 0;            // handle inside a par?
  std::vector<int64_t> C;                          // arm increments
  std::vector<bool> ParResume;                     // resume via nested par?
  for (int I = 0; I < D; ++I) {
    C.push_back(static_cast<int64_t>(R.nextBounded(50)));
    ParResume.push_back(R.nextBounded(3) == 0);
  }

  EffectProgram P;
  std::string S;
  for (int I = 0; I < D; ++I)
    S += "effect E" + std::to_string(I) + "\n";
  for (int I = 0; I < D; ++I) {
    std::string N = std::to_string(I);
    S += "fun dive" + N + " n x = if n = 0 then perform E" + N +
         " x else (dive" + N + " (n - 1) x) + 0\n";
  }

  std::string Body;
  for (int J = 0; J < T; ++J) {
    int E = static_cast<int>(R.nextBounded(static_cast<uint64_t>(D)));
    int64_t A = static_cast<int64_t>(R.nextBounded(100));
    int Depth = static_cast<int>(R.nextBounded(6));
    if (J)
      Body += " + ";
    Body += "(dive" + std::to_string(E) + " " + std::to_string(Depth) + " " +
            std::to_string(A) + ")";
    P.Expected += A + C[static_cast<size_t>(E)];
    ++P.Performs;
  }

  // Innermost handler is E{D-1}; every perform of E<i> is answered by its
  // own handler (each effect has exactly one).
  std::string H = Body;
  for (int I = D - 1; I >= 0; --I) {
    std::string N = std::to_string(I);
    std::string Resume = "resume k (x + " + std::to_string(C[static_cast<size_t>(I)]) + ")";
    std::string Arm = ParResume[static_cast<size_t>(I)]
                          ? "fst (par (" + Resume + ", 1))"
                          : Resume;
    H = "(handle " + H + " with | E" + N + " x k => " + Arm + " end)";
  }
  S += ParWrap ? "printInt (fst (par (" + H + ", 1)))"
               : "printInt (" + H + ")";
  P.Src = std::move(S);
  return P;
}

class EffectHandlerProperty : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(EffectHandlerProperty, CapturePinsNeverLeakAndAttributionBalances) {
  EffectProgram P = generate(GetParam());
  SCOPED_TRACE(P.Src);

  // Half the seeds run their generated program under the JIT tier at
  // threshold 1: the capture pin protocol and its pin counts must balance
  // identically when performs/resumes cross native frames.
  bool UseJit = GetParam() % 2 == 0;
  jit::setCompileThreshold(1);
  jit::setEnabled(UseJit);

  em::Counts.reset();

  bool Ok = false;
  std::string Out, Val, TyS, Err;
  {
    rt::Config Cfg;
    Cfg.NumWorkers = 1 + static_cast<int>(GetParam() % 3);
    Cfg.GcMinBytes = 1 << 16; // Collections race parked continuations.
    rt::Runtime Rt(Cfg);
    Rt.run([&] {
      std::vector<std::string> Errs;
      Ok = pml::evalSource(P.Src, Out, Val, TyS, Errs);
      if (!Errs.empty())
        Err = Errs[0];
      em::InvariantReport Rep =
          em::verifyInvariants(/*ExpectFullyJoined=*/true);
      EXPECT_TRUE(Rep.ok()) << Rep.str();
    });
  }
  jit::setEnabled(false);
  jit::setCompileThreshold(64);
  ASSERT_TRUE(Ok) << Err;
  EXPECT_EQ(Out, std::to_string(P.Expected) + "\n");

  em::CounterSnapshot Snap = em::Counts.snapshot();
  EXPECT_EQ(Snap.ContCaptured, P.Performs);
  EXPECT_EQ(Snap.ContResumed, P.Performs) << "every generated arm resumes";
  EXPECT_EQ(Snap.livePinnedObjects(), 0) << "leaked pins after the run";
  EXPECT_EQ(Snap.livePinnedBytes(), 0);

  // These programs share no refs or arrays across strands, so *every* pin
  // is a capture pin: em.pins.cont must account for all of the pinned
  // objects (both zero when the captures happened at depth 0).
  EXPECT_EQ(Snap.ContPins, Snap.PinnedObjects)
      << "every pin of these programs is a capture pin";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EffectHandlerProperty,
                         ::testing::Range<uint64_t>(1, 17),
                         [](const ::testing::TestParamInfo<uint64_t> &I) {
                           return "seed" + std::to_string(I.param);
                         });

// Tier determinism as a property: the same generated program, run twice
// under the JIT at one worker, compiles the same number of functions and
// prints the same value — tier checks happen only at frame boundaries, so
// a deterministic schedule replays its tier decisions exactly.
TEST(EffectHandlerJit, GeneratedProgramsTierDeterministically) {
  for (uint64_t Seed : {uint64_t(3), uint64_t(9), uint64_t(14)}) {
    EffectProgram P = generate(Seed);
    SCOPED_TRACE(P.Src);
    auto runOnce = [&](std::string &Out, int64_t &Compiled) {
      jit::setCompileThreshold(1);
      jit::setEnabled(true);
      StatRegistry::get().resetAll();
      rt::Config Cfg;
      Cfg.NumWorkers = 1;
      Cfg.GcMinBytes = 1 << 16;
      rt::Runtime Rt(Cfg);
      bool Ok = false;
      Rt.run([&] {
        std::string Val, TyS;
        std::vector<std::string> Errs;
        Ok = pml::evalSource(P.Src, Out, Val, TyS, Errs);
      });
      Compiled = StatRegistry::get().valueOf("pml.jit.compiled");
      jit::setEnabled(false);
      jit::setCompileThreshold(64);
      ASSERT_TRUE(Ok);
    };
    std::string OutA, OutB;
    int64_t CompA = 0, CompB = 0;
    runOnce(OutA, CompA);
    runOnce(OutB, CompB);
    EXPECT_EQ(OutA, std::to_string(P.Expected) + "\n");
    EXPECT_EQ(OutA, OutB);
    EXPECT_EQ(CompA, CompB);
    if (!jit::tsanForcedOff() && MPL_JIT_SUPPORTED) {
      EXPECT_GT(CompA, 0) << "generated program never tiered up";
    }
  }
}
