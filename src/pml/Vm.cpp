//===- pml/Vm.cpp - PML bytecode interpreter ---------------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Continuation representation (DESIGN.md §13): a captured continuation is
/// one mutable heap array with uniformly tagged slots —
///
///   [0]  state: 0 fresh, 1 consumed (one-shot; claimed by CAS)
///   [1]  handler table index        [2] arm count
///   [3]  captured frame count       [4] captured inner-handler count
///   [5]  captured value-slot count  [6] capture-heap depth
///   [7]  W = pin-bitmap word count
///   [8 .. 8+W)                      bitmap: which captured values this
///                                   capture newly pinned (32 bits/word,
///                                   arms first, then the segment)
///   [8+W ..]                        the arm closures,
///   then per frame  5 ints: fn idx, ip, base offset, handler idx
///                   (relative to the captured handler, -1 = none),
///                   operands-to-pop,
///   then per inner handler 4 ints: table idx, arms offset, arm count,
///                   frame index relative to the first captured frame,
///   then the captured value-stack segment.
///
/// Everything is either a tagged int or an ordinary value, so the GC traces
/// a parked continuation like any other array — captured frames stay alive
/// (and updated, if a local collection moves their objects) no matter how
/// long the handler sits on it or which strand finally resumes it.
///
//===----------------------------------------------------------------------===//

#include "pml/Vm.h"

#include "chaos/ChaosSchedule.h"
#include "core/Em.h"
#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "obs/Span.h"
#include "pml/Parser.h"
#include "pml/jit/Jit.h"

#include <cstddef>
#include <cstdio>

using namespace mpl;
using namespace mpl::ops;
using namespace mpl::pml;

namespace {

/// The traps JIT templates raise inline, indexed by jit::Trap* code
/// (VmJit::opTrap). The interpreter raises the same ones from the same
/// opcodes, so each message is spelled here once for both tiers.
constexpr const char *TrapMsg[] = {
    "division by zero",                   // jit::TrapDivZero
    "array index out of bounds",          // jit::TrapOob
    "match failure: no case arm matched", // jit::TrapMatchFail
    "value stack overflow",               // jit::TrapStackOverflow
};
static_assert(std::size(TrapMsg) == jit::TrapStackOverflow + 1);

} // namespace

Vm::Vm(const Program &P, std::string *CaptureOut)
    : Vm(P, CaptureOut, std::make_shared<TrapState>()) {
  // Attach the JIT tier before any parallelism exists: only the root Vm
  // runs this ctor (ParCall sub-VMs use the private one), so the shared
  // ProgramJit is published to every future strand via the Program.
  if (!P.Jit && jit::enabled())
    P.Jit = jit::createProgramJit(P);
}

Vm::Vm(const Program &P, std::string *CaptureOut,
       std::shared_ptr<TrapState> Trap)
    : P(P), CaptureOut(CaptureOut), Trap(std::move(Trap)) {
  Stack = std::make_unique<Slot[]>(StackCap);
  StackBase = Stack.get();
  rt::Runtime::ctx()->Roots.pushRange(&StackBase, &Sp);
}

Vm::~Vm() { rt::Runtime::ctx()->Roots.popRange(&StackBase); }

void Vm::push(Slot V) {
  if (Sp >= StackCap) {
    Trap->trap(TrapMsg[jit::TrapStackOverflow]);
    return;
  }
  Stack[Sp++] = V;
}

Slot Vm::pop() {
  MPL_DASSERT(Sp > 0, "value stack underflow");
  return Stack[--Sp];
}

namespace {

/// Closure representation helpers: mutable array [fnIdx, captures...].
int closureFn(Object *C) { return static_cast<int>(unboxInt(C->getSlot(0))); }

bool isClosure(Slot V) {
  Object *O = Object::asPointer(V);
  return O && O->kind() == ObjKind::Array && O->length() >= 1 &&
         isInt(O->getSlot(0));
}

/// Fixed continuation-array header slots (see file comment).
enum ContSlot : uint32_t {
  ContState = 0,
  ContTable = 1,
  ContNumArms = 2,
  ContNumFrames = 3,
  ContNumInner = 4,
  ContSegLen = 5,
  ContDepth = 6,
  ContBitmapWords = 7,
  ContHeader = 8,
};

/// Structural equality: immediates by value, strings by bytes, immutable
/// pairs recursively, everything mutable by identity (the ML semantics).
bool slotsEqual(Slot A, Slot B) {
  if (A == B)
    return true;
  Object *OA = Object::asPointer(A);
  Object *OB = Object::asPointer(B);
  if (!OA || !OB)
    return false;
  if (OA->kind() != OB->kind())
    return false;
  if (OA->kind() == ObjKind::RawArray) {
    size_t LA = strLen(OA), LB = strLen(OB);
    return LA == LB && std::memcmp(strBytes(OA), strBytes(OB), LA) == 0;
  }
  if (OA->kind() == ObjKind::Record && !OA->isMutable() &&
      !OB->isMutable() && OA->length() == OB->length()) {
    for (uint32_t I = 0, E = OA->length(); I < E; ++I)
      if (!slotsEqual(OA->getSlot(I), OB->getSlot(I)))
        return false;
    return true;
  }
  return false;
}

/// Branch thunk for ParCall (shares the parent's program and trap).
struct BranchEnv {
  const Program *P;
  std::string *CaptureOut;
  std::shared_ptr<TrapState> Trap;
  Slot Closure;
};

} // namespace

struct mpl::pml::VmBranch {
  static Slot run(BranchEnv &Env) {
    Vm Sub(*Env.P, Env.CaptureOut, Env.Trap);
    Object *C = Object::asPointer(Env.Closure);
    if (!C) {
      Env.Trap->trap("par branch is not a closure");
      return unit();
    }
    return Sub.callFunction(closureFn(C), Env.Closure, unit());
  }
};

bool Vm::pushFrame(int FnIdx, int HandlerIdx, uint32_t OperandsToPop) {
  if (Frames.size() > static_cast<size_t>(MaxCallDepth)) {
    Trap->trap("call depth limit exceeded");
    return false;
  }
  if (P.Jit)
    P.Jit->countCall(FnIdx); // Tier accounting (relaxed; see pml/jit/Jit.h).
  Frame F;
  F.Fn = &P.Fns[static_cast<size_t>(FnIdx)];
  F.FnIdx = FnIdx;
  F.Ip = 0;
  F.Base = Sp - 2; // Reuses the caller's [fn, arg] as [closure, param].
  F.HandlerIdx = HandlerIdx;
  F.OperandsToPop = OperandsToPop;
  Frames.push_back(F);
  for (int I = 1; I < F.Fn->NumLocals; ++I)
    push(unit());
  return !Trap->Trapped.load(std::memory_order_relaxed);
}

Slot Vm::callFunction(int FnIdx, Slot Closure, Slot Arg) {
  size_t Floor = Frames.size();
  size_t HandlerFloor = Handlers.size();
  size_t EntrySp = Sp;
  push(Closure);
  push(Arg);
  if (pushFrame(FnIdx, -1, 0))
    runLoop(Floor);
  if (Trap->Trapped.load(std::memory_order_relaxed)) {
    Frames.resize(Floor);
    Handlers.resize(HandlerFloor);
    Sp = EntrySp;
    return unit();
  }
  return pop(); // The floor frame's Ret left the result on top.
}

void Vm::doSuspend(int32_t EffectId) {
  // Dynamic handler search: innermost installed handler whose table
  // contains this effect. Effects are delimited by rt::par (each branch is
  // a fresh sub-VM), so an unhandled perform is a structured trap, never an
  // escape into another strand's handlers.
  int EntIdx = -1, ArmPos = -1;
  for (int I = static_cast<int>(Handlers.size()) - 1; I >= 0 && EntIdx < 0;
       --I) {
    const std::vector<int> &Ids =
        P.Handlers[static_cast<size_t>(Handlers[static_cast<size_t>(I)]
                                           .TableIdx)]
            .EffectIds;
    for (size_t J = 0; J < Ids.size(); ++J)
      if (Ids[J] == EffectId) {
        EntIdx = I;
        ArmPos = static_cast<int>(J);
        break;
      }
  }
  if (EntIdx < 0) {
    Trap->trap("unhandled effect '" +
               P.EffectNames[static_cast<size_t>(EffectId)] + "'");
    return;
  }
  // Schedule fuzzing: stretch the window between deciding to capture and
  // publishing the continuation to the handler arm.
  chaos::preemptPoint(chaos::Point::ContCapture);

  const HandlerEnt Ent = Handlers[static_cast<size_t>(EntIdx)];
  size_t B = Ent.FrameIdx; // First captured frame: the handle body thunk.
  size_t SegBase = Frames[B].Base;
  size_t PayloadIdx = Sp - 1; // Payload rides to the arm, not the cont.
  size_t SegLen = PayloadIdx - SegBase;
  size_t NumFrames = Frames.size() - B;
  size_t NumInner = Handlers.size() - static_cast<size_t>(EntIdx) - 1;
  size_t NumArms = static_cast<size_t>(Ent.NumArms);
  size_t W = (NumArms + SegLen + 31) / 32;
  size_t Len = ContHeader + W + NumArms + 5 * NumFrames + 4 * NumInner +
               SegLen;
  if (Len > Object::MaxLength) {
    Trap->trap("continuation too large");
    return;
  }

  // Everything captured is still on the (rooted) value stack, so the
  // allocation below may collect — and move objects — safely; stack slots
  // and frame Base indices survive, raw pointers would not.
  Object *C = newArray(static_cast<uint32_t>(Len), boxInt(0));
  push(Object::fromPointer(C)); // Root the cont for the pair allocation.
  if (Trap->Trapped.load(std::memory_order_relaxed))
    return;

  auto SetInt = [&](size_t I, int64_t V) {
    C->setSlot(static_cast<uint32_t>(I), boxInt(V));
  };
  SetInt(ContState, 0);
  SetInt(ContTable, Ent.TableIdx);
  SetInt(ContNumArms, static_cast<int64_t>(NumArms));
  SetInt(ContNumFrames, static_cast<int64_t>(NumFrames));
  SetInt(ContNumInner, static_cast<int64_t>(NumInner));
  SetInt(ContSegLen, static_cast<int64_t>(SegLen));
  Heap *CapHeap = rt::Runtime::ctx()->CurrentHeap;
  uint32_t CapDepth = CapHeap->depth();
  SetInt(ContDepth, CapDepth);
  SetInt(ContBitmapWords, static_cast<int64_t>(W));

  // Arm closures and the value segment. arrSet's write barrier sees only
  // intra-heap or up-pointer stores here (the cont is a fresh leaf-heap
  // object), so building the snapshot itself pins nothing.
  size_t ArmsSlot = ContHeader + W;
  for (size_t I = 0; I < NumArms; ++I)
    arrSet(C, static_cast<uint32_t>(ArmsSlot + I), Stack[Ent.ArmsBase + I]);
  size_t FrameSlot = ArmsSlot + NumArms;
  for (size_t I = 0; I < NumFrames; ++I) {
    const Frame &F = Frames[B + I];
    SetInt(FrameSlot + 5 * I + 0, F.FnIdx);
    SetInt(FrameSlot + 5 * I + 1, static_cast<int64_t>(F.Ip));
    SetInt(FrameSlot + 5 * I + 2, static_cast<int64_t>(F.Base - SegBase));
    SetInt(FrameSlot + 5 * I + 3,
           F.HandlerIdx < 0 ? -1 : F.HandlerIdx - EntIdx);
    SetInt(FrameSlot + 5 * I + 4, F.OperandsToPop);
  }
  size_t InnerSlot = FrameSlot + 5 * NumFrames;
  for (size_t I = 0; I < NumInner; ++I) {
    const HandlerEnt &IE = Handlers[static_cast<size_t>(EntIdx) + 1 + I];
    SetInt(InnerSlot + 4 * I + 0, IE.TableIdx);
    SetInt(InnerSlot + 4 * I + 1, static_cast<int64_t>(IE.ArmsBase - SegBase));
    SetInt(InnerSlot + 4 * I + 2, IE.NumArms);
    SetInt(InnerSlot + 4 * I + 3, static_cast<int64_t>(IE.FrameIdx - B));
  }
  size_t SegSlot = InnerSlot + 4 * NumInner;
  for (size_t I = 0; I < SegLen; ++I)
    arrSet(C, static_cast<uint32_t>(SegSlot + I), Stack[SegBase + I]);

  // Capture-pin pass (Manage mode; see em::pinContCapture): the captured
  // objects must survive *in place* until the resume — the handler may park
  // the continuation past this strand's join, where a local collection of
  // the merged heap would otherwise move them out from under the snapshot.
  // The bitmap records exactly the pins this capture took, so the resume
  // can release them early when the continuation stayed private.
  for (size_t I = 0; I < NumArms + SegLen; ++I) {
    Slot V = I < NumArms ? Stack[Ent.ArmsBase + I]
                         : Stack[SegBase + (I - NumArms)];
    Object *O = Object::asPointer(V);
    if (O && em::pinContCapture(O, CapHeap)) {
      uint32_t WordIdx = static_cast<uint32_t>(ContHeader + I / 32);
      int64_t Word = unboxInt(C->getSlot(WordIdx));
      SetInt(WordIdx, Word | (int64_t(1) << (I % 32)));
    }
  }
  int64_t ContBytes = static_cast<int64_t>(C->sizeBytes());

  // (payload, cont) for the arm. Both operands are rooted on the stack;
  // after this allocation C may be stale — read everything via the stack.
  Object *Pair = newRecord(0b11, {Stack[PayloadIdx], Stack[PayloadIdx + 1]});
  Slot ArmV = Stack[Ent.ArmsBase + static_cast<size_t>(ArmPos)];
  MPL_DASSERT(isClosure(ArmV), "handler arm is not a closure");

  // Uninstall the handler and everything above it, then run the arm where
  // the handle expression's result belongs: the enclosing frame's Ip is
  // already past the Handle, so the arm's Ret lands as its result.
  Frames.resize(B);
  Handlers.resize(static_cast<size_t>(EntIdx));
  Sp = Ent.ArmsBase;
  push(ArmV);
  push(Object::fromPointer(Pair));
  pushFrame(closureFn(Object::asPointer(ArmV)), -1, 0);
  em::noteContCaptured(ContBytes, CapDepth);
}

void Vm::doResume() {
  // Stack: [..., k, v].
  Object *C = Object::asPointer(Stack[Sp - 2]);
  if (!C || C->kind() != ObjKind::Array || C->length() < ContHeader) {
    Trap->trap("resume of a non-continuation value");
    return;
  }
  for (uint32_t I = 0; I < ContHeader; ++I)
    if (!isInt(C->getSlot(I))) {
      Trap->trap("resume of a non-continuation value");
      return;
    }
  size_t W = static_cast<size_t>(unboxInt(C->getSlot(ContBitmapWords)));
  int TableIdx = static_cast<int>(unboxInt(C->getSlot(ContTable)));
  size_t NumArms = static_cast<size_t>(unboxInt(C->getSlot(ContNumArms)));
  size_t NumFrames = static_cast<size_t>(unboxInt(C->getSlot(ContNumFrames)));
  size_t NumInner = static_cast<size_t>(unboxInt(C->getSlot(ContNumInner)));
  size_t SegLen = static_cast<size_t>(unboxInt(C->getSlot(ContSegLen)));
  uint32_t CapDepth = static_cast<uint32_t>(unboxInt(C->getSlot(ContDepth)));
  if (C->length() != ContHeader + W + NumArms + 5 * NumFrames +
                         4 * NumInner + SegLen ||
      TableIdx < 0 || static_cast<size_t>(TableIdx) >= P.Handlers.size()) {
    Trap->trap("resume of a non-continuation value");
    return;
  }
  if (Sp + NumArms + SegLen + 1 > StackCap) {
    Trap->trap(TrapMsg[jit::TrapStackOverflow]);
    return;
  }
  if (Frames.size() + NumFrames > static_cast<size_t>(MaxCallDepth)) {
    Trap->trap("call depth limit exceeded");
    return;
  }

  // One-shot claim: exactly one resume wins, even when racing another
  // strand holding the same continuation.
  Slot Fresh = boxInt(0);
  if (!std::atomic_ref<Slot>(C->slots()[ContState])
           .compare_exchange_strong(Fresh, boxInt(1),
                                    std::memory_order_acq_rel)) {
    Trap->trap("continuation already resumed (one-shot)");
    return;
  }
  // Schedule fuzzing: the claim is published; stretch the window before the
  // frames are spliced back in (another strand may be failing its CAS, a
  // join may be releasing the capture pins).
  chaos::preemptPoint(chaos::Point::ContResume);

  // Nothing below allocates (arrGet barriers pin but never allocate), so
  // raw locals are safe across the whole splice.
  Slot ResumeV = Stack[Sp - 1];
  size_t ArmsBase = Sp - 2; // k's slot: where the final answer lands.
  Sp = ArmsBase;

  // Re-push the arms and the captured segment. Reading them out of the
  // continuation goes through the read barrier: when the resumer's heap is
  // not a descendant of the capture heap this is where entanglement is
  // re-established (Manage deepens pins to the LCA, Detect rejects).
  size_t ArmsSlot = ContHeader + W;
  for (size_t I = 0; I < NumArms; ++I)
    push(arrGet(C, static_cast<uint32_t>(ArmsSlot + I)));
  size_t SegStart = Sp;
  size_t SegSlot = ArmsSlot + NumArms + 5 * NumFrames + 4 * NumInner;
  for (size_t I = 0; I < SegLen; ++I)
    push(arrGet(C, static_cast<uint32_t>(SegSlot + I)));

  // Reinstall the handler (deep handler semantics: further performs in the
  // reinstated computation are answered by the same arms) and the captured
  // inner handlers, then the frames.
  int TargetEnt = static_cast<int>(Handlers.size());
  size_t FrameStart = Frames.size();
  Handlers.push_back(
      {TableIdx, ArmsBase, static_cast<int>(NumArms), FrameStart});
  size_t InnerSlot = ArmsSlot + NumArms + 5 * NumFrames;
  for (size_t I = 0; I < NumInner; ++I) {
    auto Rd = [&](size_t K) {
      return unboxInt(C->getSlot(static_cast<uint32_t>(InnerSlot + 4 * I + K)));
    };
    Handlers.push_back({static_cast<int>(Rd(0)),
                        SegStart + static_cast<size_t>(Rd(1)),
                        static_cast<int>(Rd(2)),
                        FrameStart + static_cast<size_t>(Rd(3))});
  }
  size_t FrameSlot = ArmsSlot + NumArms;
  for (size_t I = 0; I < NumFrames; ++I) {
    auto Rd = [&](size_t K) {
      return unboxInt(C->getSlot(static_cast<uint32_t>(FrameSlot + 5 * I + K)));
    };
    int FnIdx = static_cast<int>(Rd(0));
    if (FnIdx < 0 || static_cast<size_t>(FnIdx) >= P.Fns.size()) {
      Trap->trap("resume of a non-continuation value");
      return;
    }
    int HRel = static_cast<int>(Rd(3));
    Frame F;
    F.Fn = &P.Fns[static_cast<size_t>(FnIdx)];
    F.FnIdx = FnIdx;
    F.Ip = static_cast<size_t>(Rd(1));
    F.Base = SegStart + static_cast<size_t>(Rd(2));
    F.HandlerIdx = HRel < 0 ? -1 : TargetEnt + HRel;
    F.OperandsToPop = static_cast<uint32_t>(Rd(4));
    Frames.push_back(F);
  }

  // Early pin release: only for pins this capture took (the bitmap), only
  // while they still sit at the capture depth, and only when the cont was
  // never published cross-heap — its pin bit is sticky, so !isPinned()
  // proves every path to the captured objects goes through this strand.
  // Otherwise the pins stay and the join rule releases them (always sound).
  if (em::mode() == em::Mode::Manage && CapDepth > 0 && !C->isPinned()) {
    for (size_t I = 0; I < NumArms + SegLen; ++I) {
      int64_t Word = unboxInt(
          C->getSlot(static_cast<uint32_t>(ContHeader + I / 32)));
      if (!(Word & (int64_t(1) << (I % 32))))
        continue;
      Slot V = I < NumArms ? Stack[ArmsBase + I]
                           : Stack[SegStart + (I - NumArms)];
      if (Object *O = Object::asPointer(V))
        em::unpinContResume(O, CapDepth);
    }
  }
  em::noteContResumed(static_cast<int64_t>(C->sizeBytes()), CapDepth);

  // The innermost restored frame's Ip is already past its Suspend; v is
  // the perform expression's result.
  push(ResumeV);
}

bool Vm::step(const Instr &In) {
  Frame &F = Frames.back();
  auto Local = [&](int32_t I) -> Slot & {
    return Stack[F.Base + 1 + static_cast<size_t>(I)];
  };
  switch (In.O) {
  case Op::PushInt:
    push(boxInt(In.A));
    break;
  case Op::PushBigInt:
    push(boxInt(P.IntPool[static_cast<size_t>(In.A)]));
    break;
  case Op::PushBool:
    push(boxBool(In.A != 0));
    break;
  case Op::PushUnit:
    push(unit());
    break;
  case Op::PushStr: {
    const std::string &S = P.StrPool[static_cast<size_t>(In.A)];
    push(Object::fromPointer(newString(S.data(), S.size())));
    break;
  }
  case Op::LoadLocal:
    push(Local(In.A));
    break;
  case Op::StoreLocal:
    Local(In.A) = pop();
    break;
  case Op::LoadCapture: {
    Object *C = Object::asPointer(Stack[F.Base]);
    MPL_DASSERT(C, "missing closure for capture load");
    push(arrGet(C, static_cast<uint32_t>(In.A) + 1));
    break;
  }
  case Op::Pop:
    pop();
    break;

  case Op::MkClosure: {
    uint32_t N = static_cast<uint32_t>(In.B);
    // Captures are the top N stack slots (rooted); allocate then fill.
    Object *C = newArray(N + 1, boxInt(In.A));
    for (uint32_t I = 0; I < N; ++I)
      arrSet(C, I + 1, Stack[Sp - N + I]);
    Sp -= N;
    push(Object::fromPointer(C));
    break;
  }
  case Op::FixSelf: {
    Object *C = Object::asPointer(Stack[Sp - 1]);
    MPL_DASSERT(C, "FixSelf on non-closure");
    arrSet(C, static_cast<uint32_t>(In.A) + 1, Stack[Sp - 1]);
    break;
  }

  case Op::Call: {
    Slot FnV = Stack[Sp - 2];
    if (!isClosure(FnV)) {
      Trap->trap("calling a non-function value");
      break;
    }
    // The callee's frame adopts the [fn, arg] slots in place; its Ret
    // pops back to them and pushes the result.
    pushFrame(closureFn(Object::asPointer(FnV)), -1, 0);
    return true;
  }

  case Op::TailCall: {
    Slot ArgV = Stack[Sp - 1];
    Slot FnV = Stack[Sp - 2];
    if (!isClosure(FnV)) {
      Trap->trap("calling a non-function value");
      break;
    }
    // Rebuild the frame in place: proper tail calls give PML loops
    // constant stack space. HandlerIdx/OperandsToPop carry over — the
    // final Ret still settles this frame's protocol slots.
    int NewFn = closureFn(Object::asPointer(FnV));
    if (P.Jit)
      P.Jit->countCall(NewFn);
    F.Fn = &P.Fns[static_cast<size_t>(NewFn)];
    F.FnIdx = NewFn;
    F.Ip = 0;
    Sp = F.Base;
    push(FnV);
    push(ArgV);
    for (int I = 1; I < F.Fn->NumLocals; ++I)
      push(unit());
    return true;
  }

  case Op::Ret: {
    Slot R = Stack[Sp - 1];
    Frame Popped = Frames.back();
    Frames.pop_back();
    Sp = Popped.Base;
    if (Popped.HandlerIdx >= 0)
      Handlers.resize(static_cast<size_t>(Popped.HandlerIdx));
    Sp -= Popped.OperandsToPop;
    push(R);
    return true;
  }

  case Op::Jmp:
    F.Ip = static_cast<size_t>(In.A);
    break;
  case Op::Jz:
    if (!unboxBool(pop()))
      F.Ip = static_cast<size_t>(In.A);
    break;
  case Op::Jnz:
    if (unboxBool(pop()))
      F.Ip = static_cast<size_t>(In.A);
    break;
  case Op::MatchFail:
    Trap->trap(TrapMsg[jit::TrapMatchFail]);
    break;

#define MPL_ARITH(OPNAME, EXPR)                                              \
case Op::OPNAME: {                                                         \
  int64_t B2 = unboxInt(pop());                                            \
  int64_t A2 = unboxInt(pop());                                            \
  (void)A2;                                                                \
  (void)B2;                                                                \
  push(EXPR);                                                              \
  break;                                                                   \
}
    MPL_ARITH(Add, boxInt(A2 + B2))
    MPL_ARITH(Sub, boxInt(A2 - B2))
    MPL_ARITH(Mul, boxInt(A2 * B2))
    MPL_ARITH(Lt, boxBool(A2 < B2))
    MPL_ARITH(Le, boxBool(A2 <= B2))
    MPL_ARITH(Gt, boxBool(A2 > B2))
    MPL_ARITH(Ge, boxBool(A2 >= B2))
#undef MPL_ARITH

  case Op::Div:
  case Op::Mod: {
    int64_t B2 = unboxInt(pop());
    int64_t A2 = unboxInt(pop());
    if (B2 == 0) {
      Trap->trap(TrapMsg[jit::TrapDivZero]);
      break;
    }
    push(boxInt(In.O == Op::Div ? A2 / B2 : A2 % B2));
    break;
  }

  case Op::Neg:
    push(boxInt(-unboxInt(pop())));
    break;
  case Op::Not:
    push(boxBool(!unboxBool(pop())));
    break;

  case Op::Eq: {
    Slot B2 = pop(), A2 = pop();
    push(boxBool(slotsEqual(A2, B2)));
    break;
  }
  case Op::Ne: {
    Slot B2 = pop(), A2 = pop();
    push(boxBool(!slotsEqual(A2, B2)));
    break;
  }

  case Op::MkPair: {
    // Operands stay rooted on the stack across the allocation.
    Object *Pr = newRecord(0b11, {Stack[Sp - 2], Stack[Sp - 1]});
    Sp -= 2;
    push(Object::fromPointer(Pr));
    break;
  }
  case Op::Fst: {
    Object *Pr = Object::asPointer(pop());
    MPL_DASSERT(Pr, "fst of non-pair");
    push(recGet(Pr, 0));
    break;
  }
  case Op::Snd: {
    Object *Pr = Object::asPointer(pop());
    MPL_DASSERT(Pr, "snd of non-pair");
    push(recGet(Pr, 1));
    break;
  }

  case Op::MkRef: {
    Object *R = newRef(Stack[Sp - 1]);
    Stack[Sp - 1] = Object::fromPointer(R);
    break;
  }
  case Op::Deref: {
    Object *R = Object::asPointer(pop());
    MPL_DASSERT(R && R->kind() == ObjKind::Ref, "! of non-ref");
    push(refGet(R));
    break;
  }
  case Op::Assign: {
    Slot V = pop();
    Object *R = Object::asPointer(pop());
    MPL_DASSERT(R && R->kind() == ObjKind::Ref, ":= on non-ref");
    refSet(R, V);
    push(unit());
    break;
  }

  case Op::Alloc: {
    // Stack: [n, init]; newArray roots its init argument internally.
    Slot Init = pop();
    int64_t N = unboxInt(pop());
    if (N < 0 || N > int64_t(Object::MaxLength)) {
      Trap->trap("alloc size out of range");
      break;
    }
    push(Object::fromPointer(newArray(static_cast<uint32_t>(N), Init)));
    break;
  }
  case Op::AGet: {
    int64_t I = unboxInt(pop());
    Object *A = Object::asPointer(pop());
    MPL_DASSERT(A && A->kind() == ObjKind::Array, "get on non-array");
    if (I < 0 || I >= int64_t(arrLen(A))) {
      Trap->trap(TrapMsg[jit::TrapOob]);
      break;
    }
    push(arrGet(A, static_cast<uint32_t>(I)));
    break;
  }
  case Op::ASet: {
    Slot V = pop();
    int64_t I = unboxInt(pop());
    Object *A = Object::asPointer(pop());
    MPL_DASSERT(A && A->kind() == ObjKind::Array, "set on non-array");
    if (I < 0 || I >= int64_t(arrLen(A))) {
      Trap->trap(TrapMsg[jit::TrapOob]);
      break;
    }
    arrSet(A, static_cast<uint32_t>(I), V);
    push(unit());
    break;
  }
  case Op::ALen: {
    Object *A = Object::asPointer(pop());
    MPL_DASSERT(A && A->kind() == ObjKind::Array, "length on non-array");
    push(boxInt(arrLen(A)));
    break;
  }

  case Op::ParCall: {
    // Closures stay rooted on the parent's stack during the fork.
    BranchEnv EnvA{&P, CaptureOut, Trap, Stack[Sp - 2]};
    BranchEnv EnvB{&P, CaptureOut, Trap, Stack[Sp - 1]};
    auto [RA, RB] = rt::par([&] { return VmBranch::run(EnvA); },
                            [&] { return VmBranch::run(EnvB); });
    // Results are rooted by re-using the two operand slots.
    Stack[Sp - 2] = RA;
    Stack[Sp - 1] = RB;
    Object *Pr = newRecord(0b11, {Stack[Sp - 2], Stack[Sp - 1]});
    Sp -= 2;
    push(Object::fromPointer(Pr));
    break;
  }

  case Op::Print: {
    Object *S = Object::asPointer(pop());
    MPL_DASSERT(S, "print of non-string");
    if (CaptureOut)
      CaptureOut->append(strBytes(S), strLen(S));
    else
      std::fwrite(strBytes(S), 1, strLen(S), stdout);
    push(unit());
    break;
  }
  case Op::PrintInt: {
    char Buf[32];
    int Len = std::snprintf(Buf, sizeof(Buf), "%lld\n",
                            static_cast<long long>(unboxInt(pop())));
    if (CaptureOut)
      CaptureOut->append(Buf, static_cast<size_t>(Len));
    else
      std::fwrite(Buf, 1, static_cast<size_t>(Len), stdout);
    push(unit());
    break;
  }

  case Op::Handle: {
    // Stack: [..., arms..., thunk]. The arms stay below the body's frame
    // for its dynamic extent; the frame's OperandsToPop settles them.
    Slot Thunk = Stack[Sp - 1];
    MPL_DASSERT(isClosure(Thunk), "handle body is not a thunk");
    int EntIdx = static_cast<int>(Handlers.size());
    HandlerEnt E;
    E.TableIdx = In.A;
    E.ArmsBase = Sp - 1 - static_cast<size_t>(In.B);
    E.NumArms = In.B;
    E.FrameIdx = Frames.size();
    Handlers.push_back(E);
    push(unit()); // The thunk's () argument.
    pushFrame(closureFn(Object::asPointer(Thunk)), EntIdx,
              static_cast<uint32_t>(In.B));
    return true;
  }
  case Op::Suspend:
    doSuspend(In.A);
    return true;
  case Op::Resume:
    doResume();
    return true;
  }
  return false;
}

void Vm::runLoop(size_t Floor) {
  // Deadline poll cadence: cheap enough to be invisible (one decrement per
  // dispatch), frequent enough that a tight pml loop that never allocates
  // still notices an expired request within ~256 instructions. The throw
  // unwinds like OOM: out of the VM to the rt::par branch boundary.
  constexpr uint32_t DeadlinePollEvery = 256;
  uint32_t PollBudget = DeadlinePollEvery;
  // JIT tier gate, latched per runLoop activation. Span-armed runs pin to
  // the interpreter: native templates do not publish per-instruction source
  // locations, and exact pml Line:Col attribution is the ledger's contract.
  jit::ProgramJit *PJ =
      (P.Jit && jit::enabled() && !obs::spansEnabled()) ? P.Jit.get() : nullptr;
  // Re-check the tier only at frame boundaries (every step that switches
  // frames re-arms this): tiering decisions happen where the interpreter
  // counts calls, so interp-vs-JIT transitions are deterministic for a
  // given schedule.
  bool TryJit = PJ != nullptr;
  while (true) {
    if (Trap->Trapped.load(std::memory_order_relaxed))
      return; // callFunction unwinds the stacks to its entry state.
    if (--PollBudget == 0) {
      PollBudget = DeadlinePollEvery;
      rt::checkDeadline();
    }
    if (PJ && TryJit) {
      TryJit = false;
      Frame &JF = Frames.back();
      const jit::CompiledFn *CF = jit::hotOrCompile(*PJ, P, JF.FnIdx);
      if (CF && JF.Ip < CF->NativeOff.size()) {
        // Schedule fuzzing: the interp->native handoff is a visible
        // scheduling edge (another strand may be publishing code, trapping,
        // or expiring a deadline right here).
        chaos::preemptPoint(chaos::Point::JitEnter);
        jit::noteEntry();
        size_t EntryIp = JF.Ip;
        uint64_t EntryBase = JF.Base;
        // JF dies here: steps run under invoke() may grow Frames.
        CF->invoke(this, EntryIp, rt::Runtime::ctx()->CurrentHeap, EntryBase);
        if (PendingExc) {
          // Helpers never unwind through native frames; rethrow from this
          // C++ frame so Detect errors / deadline expiry / OOM propagate
          // exactly as they do from the interpreter's own step.
          std::exception_ptr Ex = std::move(PendingExc);
          PendingExc = nullptr;
          std::rethrow_exception(Ex);
        }
        TryJit = true;
        if (Frames.size() == Floor)
          return; // Native Ret settled the floor frame's result.
        continue;
      }
    }
    Frame &F = Frames.back();
    MPL_DASSERT(F.Ip < F.Fn->Code.size(), "instruction pointer out of range");
    const Instr &In = F.Fn->Code[F.Ip++];
    // Span ledger: publish this instruction's source location so barrier
    // slow paths and forks can attribute events to pml Line:Col. One TLS
    // store, behind the same armed check every obs hook uses.
    if (obs::spansEnabled()) [[unlikely]]
      obs::spanSetPmlLoc(F.Fn->Src[F.Ip - 1]);
    if (step(In)) {
      if (Frames.size() == Floor)
        return; // The floor frame's Ret left the result on top.
      TryJit = true;
    }
  }
}

Vm::Result Vm::run() {
  Result R;
  Slot V = callFunction(P.Main, /*Closure=*/0, unit());
  if (Trap->Trapped.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> G(Trap->Lock);
    R.Error = Trap->Message;
    return R;
  }
  R.Ok = true;
  R.Value = V;
  return R;
}

std::string mpl::pml::renderValue(Slot V, Ty *T) {
  // Resolve through the checker's union-find.
  while (T && T->Tag == TyTag::Var && T->Link)
    T = T->Link;
  if (!T)
    return "?";
  switch (T->Tag) {
  case TyTag::Int:
    return std::to_string(unboxInt(V));
  case TyTag::Bool:
    return unboxBool(V) ? "true" : "false";
  case TyTag::Unit:
    return "()";
  case TyTag::String: {
    Object *S = Object::asPointer(V);
    if (!S)
      return "\"\"";
    return "\"" + std::string(strBytes(S), strLen(S)) + "\"";
  }
  case TyTag::Pair: {
    Object *Pr = Object::asPointer(V);
    if (!Pr)
      return "(?, ?)";
    return "(" + renderValue(Pr->getSlot(0), T->A) + ", " +
           renderValue(Pr->getSlot(1), T->B) + ")";
  }
  case TyTag::List: {
    std::string Out = "[";
    bool First = true;
    for (Slot Cur = V; Cur != ops::boxInt(0);) {
      Object *Cell = Object::asPointer(Cur);
      if (!Cell)
        break;
      if (!First)
        Out += ", ";
      First = false;
      Out += renderValue(Cell->getSlot(0), T->A);
      Cur = Cell->getSlot(1);
    }
    return Out + "]";
  }
  case TyTag::Ref:
    return "ref";
  case TyTag::Array:
    return "<array>";
  case TyTag::Arrow:
    return "<fn>";
  case TyTag::Cont:
    return "<cont>";
  case TyTag::Var:
    return "<poly>";
  }
  return "?";
}

bool mpl::pml::evalSource(const std::string &Source, std::string &Output,
                          std::string &Rendered, std::string &TypeStr,
                          std::vector<std::string> &Errors) {
  ExprPtr Ast = parseProgram(Source, Errors);
  if (!Ast)
    return false;
  TypeChecker TC;
  Ty *T = TC.infer(*Ast, Errors);
  if (!T)
    return false;
  TypeStr = TypeChecker::show(T);

  Program Prog;
  if (!compile(*Ast, Prog, Errors))
    return false;

  Vm M(Prog, &Output);
  Vm::Result R = M.run();
  if (!R.Ok) {
    Errors.push_back("runtime error: " + R.Error);
    return false;
  }
  Rendered = renderValue(R.Value, T);
  return true;
}

//===----------------------------------------------------------------------===//
// JIT out-of-line helpers (pml/jit/Jit.h, DESIGN.md §17). Every op the
// templates do not finish inline runs VmJit::step: the interpreter's own
// Vm::step on the synced VM state — same ops:: allocation wrappers, same em::
// barriers, same trap messages — which is what makes interpreter and JIT
// bit-identical down to the entanglement counters. The barrier slow paths,
// the deadline poll and the inline trap stubs have no opcode of their own
// and keep their own helpers. Native frames must never be unwound through,
// so every helper catches into Vm::PendingExc; the dispatcher rethrows after
// the generated code has returned.
//===----------------------------------------------------------------------===//

using mpl::jit::StExit;
using mpl::jit::StOk;

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
size_t jit::VmJit::spOffset() { return offsetof(Vm, Sp); }
size_t jit::VmJit::stackBaseOffset() { return offsetof(Vm, StackBase); }
#pragma GCC diagnostic pop

size_t jit::VmJit::stackCap() { return Vm::StackCap; }

/// Shared epilogue of every helper: a trap raised by the body (or by another
/// strand, noticed here) sends the native code to its exit.
#define MPL_JIT_OK_UNLESS_TRAPPED(V)                                         \
  ((V)->Trap->Trapped.load(std::memory_order_relaxed) ? StExit : StOk)

uint64_t jit::VmJit::step(Vm *V, uint64_t IpAfter) noexcept {
  try {
    // The Ip the interpreter's dispatch would leave: past this op, so a
    // call, handle or capture records the right resume point.
    Vm::Frame &F = V->Frames.back();
    F.Ip = static_cast<size_t>(IpAfter);
    if (V->step(F.Fn->Code[F.Ip - 1]))
      return StExit; // The dispatcher re-enters the new top frame.
  } catch (...) {
    V->PendingExc = std::current_exception();
    return StExit;
  }
  return MPL_JIT_OK_UNLESS_TRAPPED(V);
}

uint64_t jit::VmJit::opReadBarrier(Vm *V, uint64_t Val,
                                   uint64_t Reader) noexcept {
  try {
    // Re-runs the full barrier (the inline fast path is a strict subset of
    // its skip conditions), so counters/pins/Detect errors are exactly the
    // interpreter's.
    em::readBarrier(reinterpret_cast<Heap *>(Reader), static_cast<Slot>(Val));
  } catch (...) {
    V->PendingExc = std::current_exception();
    return StExit;
  }
  return MPL_JIT_OK_UNLESS_TRAPPED(V);
}

uint64_t jit::VmJit::opWriteBarrier(Vm *V, uint64_t Holder,
                                    uint64_t Val) noexcept {
  try {
    em::writeBarrier(reinterpret_cast<Object *>(Holder),
                     static_cast<Slot>(Val));
  } catch (...) {
    V->PendingExc = std::current_exception();
    return StExit;
  }
  return MPL_JIT_OK_UNLESS_TRAPPED(V);
}

uint64_t jit::VmJit::poll(Vm *V) noexcept {
  try {
    rt::checkDeadline();
  } catch (...) {
    V->PendingExc = std::current_exception();
    return StExit;
  }
  return MPL_JIT_OK_UNLESS_TRAPPED(V);
}

uint64_t jit::VmJit::opTrap(Vm *V, uint64_t Code) noexcept {
  try {
    V->Trap->trap(TrapMsg[Code]);
  } catch (...) {
    V->PendingExc = std::current_exception();
  }
  return StExit;
}
