//===- pml/jit/Jit.cpp - Tiering driver and x64 template compiler ----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Template compiler layout (one compiled function):
///
///   prologue        loads the pinned registers and jumps to the entry ip
///   templates       one per bytecode instruction, in program order; every
///                   instruction boundary is a valid native entry/target
///   trap stubs      one per inline trap kind, funneling into opTrap
///   poll thunk      the shared deadline-poll body (per-op countdown)
///   epilogue        restores callee-saved registers and returns
///
/// Pinned registers (SysV callee-saved, so helper calls preserve them):
///
///   rbx  Vm*                          r14  frame Base (slot index)
///   r12  value-stack base (Slot*)     r15  CurrentHeap*
///   r13  Sp (slot index)              ebp  poll countdown
///
/// r12 is stable because the VM never reallocates its value stack; r15 is
/// stable because the one op that can switch heaps (ParCall via rt::par)
/// restores CurrentHeap before its step returns. r13 is the only mirrored
/// value: it is written back to vm->Sp before every helper call
/// (collections read the stack through vm->Sp) and reloaded whenever native
/// code continues after one.
///
//===----------------------------------------------------------------------===//

#include "pml/jit/Jit.h"

#include "chaos/ChaosSchedule.h"
#include "core/Em.h"
#include "hh/Heap.h"
#include "mm/Chunk.h"
#include "mm/Object.h"
#include "obs/Trace.h"
#include "pml/Compiler.h"
#include "pml/jit/X64Emitter.h"
#include "support/Stats.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace mpl;
using namespace mpl::jit;

#if defined(__SANITIZE_THREAD__)
#define MPL_JIT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MPL_JIT_TSAN 1
#endif
#endif
#ifndef MPL_JIT_TSAN
#define MPL_JIT_TSAN 0
#endif

namespace {

Stat JitCompiledStat("pml.jit.compiled");
Stat JitBailoutsStat("pml.jit.bailouts");
Stat JitEntriesStat("pml.jit.entries");
Stat JitCodeBytesStat("pml.jit.code_bytes");

/// -1 unresolved (read MPL_JIT on first query), else 0/1.
std::atomic<int> EnabledFlag{-1};
/// 0 unresolved (read MPL_JIT_THRESHOLD on first query), else the value.
std::atomic<uint64_t> ThresholdValue{0};
std::atomic<bool> TsanNoticePrinted{false};

bool envRequestsJit() {
  const char *Env = std::getenv("MPL_JIT");
  return Env && Env[0] == '1' && Env[1] == '\0';
}

} // namespace

bool jit::enabled() {
  int S = EnabledFlag.load(std::memory_order_acquire);
  if (S < 0) {
    setEnabled(envRequestsJit());
    S = EnabledFlag.load(std::memory_order_acquire);
  }
  return S == 1;
}

void jit::setEnabled(bool On) {
  if (On && (!MPL_JIT_SUPPORTED || MPL_JIT_TSAN)) {
    // Generated code is uninstrumented; running it under tsan would report
    // false races against instrumented accesses to the same memory. The
    // request is honored as "interpreter only" with a one-line notice.
    if (MPL_JIT_TSAN && !TsanNoticePrinted.exchange(true))
      std::fprintf(stderr, "mpl: pml jit disabled under ThreadSanitizer "
                           "(generated code is uninstrumented)\n");
    On = false;
  }
  EnabledFlag.store(On ? 1 : 0, std::memory_order_release);
}

bool jit::tsanForcedOff() { return MPL_JIT_TSAN != 0; }

uint64_t jit::compileThreshold() {
  uint64_t T = ThresholdValue.load(std::memory_order_acquire);
  if (T == 0) {
    uint64_t V = 64;
    if (const char *Env = std::getenv("MPL_JIT_THRESHOLD")) {
      char *End = nullptr;
      long long N = std::strtoll(Env, &End, 10);
      if (End && *End == '\0' && N > 0)
        V = static_cast<uint64_t>(N);
    }
    ThresholdValue.store(V, std::memory_order_release);
    T = V;
  }
  return T;
}

void jit::setCompileThreshold(uint64_t T) {
  ThresholdValue.store(T == 0 ? 1 : T, std::memory_order_release);
}

void jit::noteEntry() { JitEntriesStat.inc(); }

ProgramJit::ProgramJit(size_t NumFns)
    : Threshold(compileThreshold()), Fns(new FnState[NumFns]), N(NumFns) {}

ProgramJit::~ProgramJit() = default;

size_t ProgramJit::compiledCount() const {
  size_t C = 0;
  for (size_t I = 0; I < N; ++I)
    if (Fns[I].Phase.load(std::memory_order_acquire) == PhaseCompiled)
      ++C;
  return C;
}

std::shared_ptr<ProgramJit> jit::createProgramJit(const pml::Program &P) {
  if (!enabled())
    return nullptr;
  return std::make_shared<ProgramJit>(P.Fns.size());
}

//===----------------------------------------------------------------------===//
// Template compiler
//===----------------------------------------------------------------------===//

#if MPL_JIT_SUPPORTED

static_assert(sizeof(std::atomic<em::Mode>) == 1,
              "mode gate assumes a one-byte CurrentMode");
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
static_assert(offsetof(Chunk, Owner) == 0,
              "heap-of fast path assumes Owner is the chunk's first word");
#pragma GCC diagnostic pop

namespace {

using pml::Instr;
using pml::Op;

// Pinned registers (see file comment).
constexpr Reg RegVm = RBX;
constexpr Reg RegStk = R12;
constexpr Reg RegSp = R13;
constexpr Reg RegBase = R14;
constexpr Reg RegHeap = R15;

constexpr uint32_t PollEvery = 256; // Matches the interpreter's cadence.

/// Chunk::AddrMask as a sign-extended imm32 (0xFFFF...C000).
constexpr int32_t AddrMaskImm = -static_cast<int32_t>(Chunk::SizeBytes);

uint64_t boxImm(int64_t V) { return (static_cast<uint64_t>(V) << 1) | 1; }

template <typename Fn> uint64_t addrOf(Fn *F) {
  return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(F));
}

/// One function's compilation state. Emission never fails mid-way: anything
/// unsupported bails before any code is kept.
struct FnCompiler {
  const pml::Program &P;
  const pml::FnProto &F;
  const int FnIdx;
  X64Emitter E;
  std::vector<X64Emitter::Label> Ips; // One per bytecode ip (jump targets).
  std::vector<uint32_t> NativeOff;
  X64Emitter::Label LEpilogue, LPollThunk, LTrapCommon;
  X64Emitter::Label LTrap[4];
  const int32_t SpOff, SbOff, StackCap;
  const int32_t DepthOff, ParentOff;
  const uint64_t ModeAddr;

  FnCompiler(const pml::Program &P, int FnIdx)
      : P(P), F(P.Fns[static_cast<size_t>(FnIdx)]), FnIdx(FnIdx),
        Ips(F.Code.size()),
        SpOff(static_cast<int32_t>(VmJit::spOffset())),
        SbOff(static_cast<int32_t>(VmJit::stackBaseOffset())),
        StackCap(static_cast<int32_t>(VmJit::stackCap())),
        DepthOff(static_cast<int32_t>(Heap::depthOffset())),
        ParentOff(static_cast<int32_t>(Heap::parentOffset())),
        ModeAddr(reinterpret_cast<uint64_t>(&em::CurrentMode)) {}

  void syncSp() { E.storeMR(RegVm, SpOff, RegSp); }
  void reloadSp() { E.loadRM(RegSp, RegVm, SpOff); }

  void callAbs(uint64_t Target) {
    E.movRI(R11, Target);
    E.callR(R11);
  }

  /// After a helper: status in rax; nonzero exits, zero reloads Sp and
  /// continues inline.
  void checkOkReload() {
    E.testRR(RAX, RAX);
    E.jcc(CcNe, LEpilogue);
    reloadSp();
  }

  /// Every op the template does not finish inline: VmJit::step runs the
  /// interpreter's own body for the op ending at \p IpAfter. Ops that switch
  /// frames always exit; the rest continue unless they trapped or threw.
  void emitStep(uint64_t IpAfter) {
    syncSp();
    E.movRR(RDI, RegVm);
    E.movRI(RSI, IpAfter);
    callAbs(addrOf(&VmJit::step));
    checkOkReload();
  }

  /// Sp >= StackCap would make the next push trap in the interpreter; the
  /// stub raises the identical "value stack overflow".
  void ovfCheck() {
    E.cmpRI(RegSp, StackCap);
    E.jcc(CcAe, LTrap[TrapStackOverflow]);
  }

  /// Pushes a compile-time-known boxed immediate.
  void emitPushImm(uint64_t BV) {
    ovfCheck();
    int64_t S = static_cast<int64_t>(BV);
    if (S >= INT32_MIN && S <= INT32_MAX) {
      E.storeMI32Idx8(RegStk, RegSp, 0, static_cast<int32_t>(S));
    } else {
      E.movRI(RAX, BV);
      E.storeMRIdx8(RegStk, RegSp, 0, RAX);
    }
    E.incR(RegSp);
  }

  /// Entanglement read-barrier fast path, emitted after the loaded value is
  /// already in its final stack slot (so the slow helper needs no operand
  /// reload). Value in rax; reader heap pinned in r15. Mirrors
  /// em::readBarrier exactly: skip for immediates/null/mode-Off, then the
  /// depth-guided ancestry walk of Heap::isAncestorOf; anything else goes
  /// to em::readBarrier in full via the helper (which re-runs the fast path
  /// — harmless — and then the counted/throwing slow path).
  void emitReadBarrier() {
    X64Emitter::Label LDone, LWalk, LCheck, LSlow;
    E.testR8I(RAX, 7);
    E.jcc(CcNe, LDone); // Tagged immediate.
    E.testRR(RAX, RAX);
    E.jcc(CcE, LDone); // Null.
    E.movRI(R11, ModeAddr);
    E.cmpMI8(R11, 0, 0);
    E.jcc(CcE, LDone); // Mode::Off.
    // HP = Heap::of(P): chunk header at the 16KiB boundary, Owner first.
    E.movRR(RCX, RAX);
    E.andRI(RCX, AddrMaskImm);
    E.loadRM(RCX, RCX, 0);
    // Walk: B = reader; while (B && B->Depth > HP->Depth) B = B->Parent.
    E.movRR(RDX, RegHeap);
    E.loadRM32(RSI, RCX, DepthOff);
    E.bind(LWalk);
    E.testRR(RDX, RDX);
    E.jcc(CcE, LSlow);
    E.cmpMR32(RDX, DepthOff, RSI);
    E.jcc(CcBe, LCheck);
    E.loadRM(RDX, RDX, ParentOff);
    E.jmp(LWalk);
    E.bind(LCheck);
    E.cmpRR(RDX, RCX);
    E.jcc(CcE, LDone); // Ancestor: disentangled.
    E.bind(LSlow);
    syncSp();
    E.movRR(RSI, RAX);     // Value.
    E.movRR(RDX, RegHeap); // Reader.
    E.movRR(RDI, RegVm);
    callAbs(addrOf(&VmJit::opReadBarrier));
    checkOkReload();
    E.bind(LDone);
  }

  /// Entanglement write-barrier fast path: X (holder object) in \p XReg,
  /// value in rax. Mirrors em::writeBarrier: skip for mode-Off /
  /// immediate / null value; same-heap store into an unpinned holder needs
  /// nothing; everything else calls the helper. \p Reload re-establishes
  /// the template's operand registers after the slow call (the helper
  /// never moves objects, but the call clobbers the scratch registers).
  template <typename ReloadFn>
  void emitWriteBarrier(Reg XReg, ReloadFn Reload) {
    X64Emitter::Label LDone, LSlow;
    E.movRI(R11, ModeAddr);
    E.cmpMI8(R11, 0, 0);
    E.jcc(CcE, LDone); // Mode::Off.
    E.testR8I(RAX, 7);
    E.jcc(CcNe, LDone); // Tagged immediate.
    E.testRR(RAX, RAX);
    E.jcc(CcE, LDone); // Null.
    E.movRR(RSI, XReg);
    E.andRI(RSI, AddrMaskImm);
    E.loadRM(RSI, RSI, 0); // HX
    E.movRR(RDI, RAX);
    E.andRI(RDI, AddrMaskImm);
    E.loadRM(RDI, RDI, 0); // HP
    E.cmpRR(RSI, RDI);
    E.jcc(CcNe, LSlow);
    E.testMI8(XReg, 0, static_cast<uint8_t>(Object::PinnedBit));
    E.jcc(CcE, LDone); // Intra-heap into an unexposed holder.
    E.bind(LSlow);
    syncSp();
    E.movRR(RSI, XReg); // Must precede the rdx write (XReg may be rdx).
    E.movRR(RDX, RAX);
    E.movRR(RDI, RegVm);
    callAbs(addrOf(&VmJit::opWriteBarrier));
    E.testRR(RAX, RAX);
    E.jcc(CcNe, LEpilogue);
    reloadSp();
    Reload();
    E.bind(LDone);
  }

  /// Binary arithmetic / comparison directly on tagged operands.
  /// box(v) = 2v+1, so add/sub fold the retag into one lea, and signed
  /// compares work on the boxed values unchanged (2v+1 is monotone).
  void emitArith(Op O) {
    E.loadRMIdx8(RAX, RegStk, RegSp, -8);  // boxed B
    E.loadRMIdx8(RCX, RegStk, RegSp, -16); // boxed A
    switch (O) {
    case Op::Add:
      E.leaIdx1(RAX, RCX, RAX, -1); // boxA + boxB - 1
      break;
    case Op::Sub:
      E.subRR(RCX, RAX); // boxA - boxB
      E.lea(RAX, RCX, 1);
      break;
    case Op::Mul:
      E.sarRI(RCX, 1);
      E.sarRI(RAX, 1);
      E.imulRR(RAX, RCX);
      E.leaIdx1(RAX, RAX, RAX, 1);
      break;
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge: {
      Cond C = O == Op::Lt   ? CcL
               : O == Op::Le ? CcLe
               : O == Op::Gt ? CcG
                             : CcGe;
      E.cmpRR(RCX, RAX);
      E.setcc(C, RAX);
      E.movzxR8(RAX, RAX);
      E.leaIdx1(RAX, RAX, RAX, 1); // boxBool
      break;
    }
    default:
      __builtin_unreachable();
    }
    E.storeMRIdx8(RegStk, RegSp, -16, RAX);
    E.decR(RegSp);
  }

  void emitDivMod(bool IsDiv) {
    E.loadRMIdx8(RCX, RegStk, RegSp, -8);
    E.sarRI(RCX, 1); // Divisor; sar sets ZF.
    E.jcc(CcE, LTrap[TrapDivZero]);
    E.loadRMIdx8(RAX, RegStk, RegSp, -16);
    E.sarRI(RAX, 1);
    // Both operands are 63-bit after the sar, so idiv cannot fault on
    // INT64_MIN / -1 — overflow is impossible, matching the interpreter.
    E.cqo();
    E.idivR(RCX);
    if (IsDiv)
      E.leaIdx1(RAX, RAX, RAX, 1); // box quotient
    else
      E.leaIdx1(RAX, RDX, RDX, 1); // box remainder
    E.storeMRIdx8(RegStk, RegSp, -16, RAX);
    E.decR(RegSp);
  }

  /// Eq/Ne: identity and mixed immediate/pointer cases inline (exactly
  /// slotsEqual's prefix); two distinct pointers take the interpreter's
  /// structural comparison through emitStep.
  void emitEq(bool Negate, uint64_t IpAfter) {
    X64Emitter::Label LEq, LDiff, LStore, LNext;
    E.loadRMIdx8(RAX, RegStk, RegSp, -8);  // B
    E.loadRMIdx8(RCX, RegStk, RegSp, -16); // A
    E.cmpRR(RCX, RAX);
    E.jcc(CcE, LEq);
    E.movRR(RDX, RCX);
    E.orRR(RDX, RAX);
    E.testR8I(RDX, 7);
    E.jcc(CcNe, LDiff); // Either side tagged and A != B.
    E.testRR(RCX, RCX);
    E.jcc(CcE, LDiff);
    E.testRR(RAX, RAX);
    E.jcc(CcE, LDiff);
    emitStep(IpAfter);
    E.jmp(LNext);
    E.bind(LEq);
    E.movRI32(RAX, static_cast<uint32_t>(boxImm(Negate ? 0 : 1)));
    E.jmp(LStore);
    E.bind(LDiff);
    E.movRI32(RAX, static_cast<uint32_t>(boxImm(Negate ? 1 : 0)));
    E.bind(LStore);
    E.storeMRIdx8(RegStk, RegSp, -16, RAX);
    E.decR(RegSp);
    E.bind(LNext);
  }

  /// Loads the array-length field (header >> 16, low 32 bits) into \p D32
  /// from the object header in \p Obj.
  void emitLoadLen(Reg D, Reg Obj) {
    E.loadRM(D, Obj, 0);
    E.shrRI(D, 16);
    E.movRR32(D, D); // Mask to the 32-bit length field.
  }

  /// TailCall. Self-recursive tail calls — the hot shape of every compiled
  /// pml loop — rebuild the frame entirely in native code and jump back to
  /// ip 0; anything else (different callee, non-closure, oversized frame)
  /// takes the interpreter's generic rebuild through emitStep.
  void emitTailCall(uint64_t IpAfter) {
    const int NumLocals = F.NumLocals;
    const bool Fast = NumLocals >= 1 && NumLocals <= 16;
    X64Emitter::Label LGeneric;
    if (Fast) {
      const int32_t SpAdd = 2 + (NumLocals - 1);
      E.loadRMIdx8(RAX, RegStk, RegSp, -16); // FnV
      E.testR8I(RAX, 7);
      E.jcc(CcNe, LGeneric);
      E.testRR(RAX, RAX);
      E.jcc(CcE, LGeneric);
      E.loadRM(RDX, RAX, 0); // Header.
      E.movRR(RSI, RDX);
      E.andRI32(RSI, 6); // Kind bits; Array == 1 -> 0b010.
      E.cmpRI32(RSI, 2);
      E.jcc(CcNe, LGeneric);
      emitLoadLen(RSI, RAX);
      E.testRR(RSI, RSI);
      E.jcc(CcE, LGeneric); // Zero-length array is not a closure.
      E.cmpMI32q(RAX, 8, static_cast<int32_t>(boxImm(FnIdx)));
      E.jcc(CcNe, LGeneric); // Different callee (or non-int slot 0).
      E.lea(RCX, RegBase, SpAdd);
      E.cmpRI(RCX, StackCap);
      E.jcc(CcA, LTrap[TrapStackOverflow]);
      E.loadRMIdx8(RDX, RegStk, RegSp, -8); // ArgV
      E.storeMRIdx8(RegStk, RegBase, 0, RAX);
      E.storeMRIdx8(RegStk, RegBase, 8, RDX);
      for (int I = 1; I < NumLocals; ++I)
        E.storeMI32Idx8(RegStk, RegBase, 8 * (1 + I), 1); // unit()
      E.movRR(RegSp, RCX);
      E.jmp(Ips[0]);
      E.bind(LGeneric);
    }
    emitStep(IpAfter);
  }

  /// One bytecode instruction's template. \p IpAfter = ip + 1 (what the
  /// interpreter's post-increment would leave in F.Ip).
  void emitOp(const Instr &In, uint64_t IpAfter) {
    switch (In.O) {
    case Op::PushInt:
      emitPushImm(boxImm(In.A));
      break;
    case Op::PushBigInt:
      emitPushImm(boxImm(P.IntPool[static_cast<size_t>(In.A)]));
      break;
    case Op::PushBool:
      emitPushImm(boxImm(In.A != 0 ? 1 : 0));
      break;
    case Op::PushUnit:
      emitPushImm(boxImm(0));
      break;
    // Allocation, frame switches, effects, I/O: the interpreter's own body.
    case Op::PushStr:
    case Op::MkClosure:
    case Op::FixSelf:
    case Op::Call:
    case Op::Ret:
    case Op::MkPair:
    case Op::MkRef:
    case Op::Alloc:
    case Op::ParCall: // rt::par restores CurrentHeap, so r15 stays valid.
    case Op::Print:
    case Op::PrintInt:
    case Op::Handle:
    case Op::Suspend:
    case Op::Resume:
      emitStep(IpAfter);
      break;

    case Op::LoadLocal:
      ovfCheck();
      E.loadRMIdx8(RAX, RegStk, RegBase, 8 * (1 + In.A));
      E.storeMRIdx8(RegStk, RegSp, 0, RAX);
      E.incR(RegSp);
      break;
    case Op::StoreLocal:
      E.loadRMIdx8(RAX, RegStk, RegSp, -8);
      E.decR(RegSp);
      E.storeMRIdx8(RegStk, RegBase, 8 * (1 + In.A), RAX);
      break;
    case Op::LoadCapture:
      // arrGet(closure, A+1): acquire load (plain mov on x86-TSO) + push +
      // read barrier once the value is in place.
      ovfCheck();
      E.loadRMIdx8(RCX, RegStk, RegBase, 0);  // Closure object.
      E.loadRM(RAX, RCX, 8 + 8 * (In.A + 1)); // Slot A+1.
      E.storeMRIdx8(RegStk, RegSp, 0, RAX);
      E.incR(RegSp);
      emitReadBarrier();
      break;
    case Op::Pop:
      E.decR(RegSp);
      break;

    case Op::TailCall:
      emitTailCall(IpAfter);
      break;

    case Op::Jmp:
      E.jmp(Ips[static_cast<size_t>(In.A)]);
      break;
    case Op::Jz:
    case Op::Jnz:
      E.loadRMIdx8(RAX, RegStk, RegSp, -8);
      E.decR(RegSp);
      E.sarRI(RAX, 1); // unboxInt; sets ZF — unboxBool is "!= 0".
      E.jcc(In.O == Op::Jz ? CcE : CcNe, Ips[static_cast<size_t>(In.A)]);
      break;
    case Op::MatchFail:
      E.jmp(LTrap[TrapMatchFail]);
      break;

    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
      emitArith(In.O);
      break;
    case Op::Div:
      emitDivMod(/*IsDiv=*/true);
      break;
    case Op::Mod:
      emitDivMod(/*IsDiv=*/false);
      break;
    case Op::Neg:
      // box(-v) = 2 - box(v).
      E.loadRMIdx8(RAX, RegStk, RegSp, -8);
      E.movRI(RCX, 2);
      E.subRR(RCX, RAX);
      E.storeMRIdx8(RegStk, RegSp, -8, RCX);
      break;
    case Op::Not:
      // unboxBool is false exactly for box(0) == 1 (bool-typed operand).
      E.loadRMIdx8(RAX, RegStk, RegSp, -8);
      E.cmpRI(RAX, 1);
      E.setcc(CcE, RAX);
      E.movzxR8(RAX, RAX);
      E.leaIdx1(RAX, RAX, RAX, 1);
      E.storeMRIdx8(RegStk, RegSp, -8, RAX);
      break;
    case Op::Eq:
      emitEq(/*Negate=*/false, IpAfter);
      break;
    case Op::Ne:
      emitEq(/*Negate=*/true, IpAfter);
      break;

    case Op::Fst:
    case Op::Snd:
      // recGet on an immutable record: barrier-free by design.
      E.loadRMIdx8(RAX, RegStk, RegSp, -8);
      E.loadRM(RAX, RAX, In.O == Op::Fst ? 8 : 16);
      E.storeMRIdx8(RegStk, RegSp, -8, RAX);
      break;

    case Op::Deref:
      E.loadRMIdx8(RCX, RegStk, RegSp, -8);
      E.loadRM(RAX, RCX, 8); // refGet slot 0 (acquire == mov on x86).
      E.storeMRIdx8(RegStk, RegSp, -8, RAX);
      emitReadBarrier();
      break;
    case Op::Assign:
      E.loadRMIdx8(RAX, RegStk, RegSp, -8);  // V
      E.loadRMIdx8(RCX, RegStk, RegSp, -16); // R
      emitWriteBarrier(RCX, [&] {
        E.loadRMIdx8(RAX, RegStk, RegSp, -8);
        E.loadRMIdx8(RCX, RegStk, RegSp, -16);
      });
      E.storeMR(RCX, 8, RAX); // Release store == mov on x86.
      E.decR(RegSp);
      E.storeMI32Idx8(RegStk, RegSp, -8, 1); // unit()
      break;

    case Op::AGet:
      E.loadRMIdx8(RCX, RegStk, RegSp, -8);
      E.sarRI(RCX, 1); // Index.
      E.loadRMIdx8(RDX, RegStk, RegSp, -16); // Array.
      emitLoadLen(RSI, RDX);
      E.cmpRR(RCX, RSI);
      E.jcc(CcAe, LTrap[TrapOob]); // Unsigned: negative index too.
      E.loadRMIdx8(RAX, RDX, RCX, 8);
      E.decR(RegSp);
      E.storeMRIdx8(RegStk, RegSp, -8, RAX);
      emitReadBarrier();
      break;
    case Op::ASet:
      E.loadRMIdx8(RAX, RegStk, RegSp, -8); // V
      E.loadRMIdx8(RCX, RegStk, RegSp, -16);
      E.sarRI(RCX, 1); // Index.
      E.loadRMIdx8(RDX, RegStk, RegSp, -24); // Array.
      emitLoadLen(RSI, RDX);
      E.cmpRR(RCX, RSI);
      E.jcc(CcAe, LTrap[TrapOob]);
      emitWriteBarrier(RDX, [&] {
        E.loadRMIdx8(RAX, RegStk, RegSp, -8);
        E.loadRMIdx8(RCX, RegStk, RegSp, -16);
        E.sarRI(RCX, 1);
        E.loadRMIdx8(RDX, RegStk, RegSp, -24);
      });
      E.storeMRIdx8(RDX, RCX, 8, RAX);
      E.subRI(RegSp, 2);
      E.storeMI32Idx8(RegStk, RegSp, -8, 1); // unit()
      break;
    case Op::ALen:
      E.loadRMIdx8(RCX, RegStk, RegSp, -8);
      emitLoadLen(RAX, RCX);
      E.leaIdx1(RAX, RAX, RAX, 1); // boxInt
      E.storeMRIdx8(RegStk, RegSp, -8, RAX);
      break;
    }
  }

  std::unique_ptr<CompiledFn> compile(CodePool &Pool) {
    const size_t N = F.Code.size();
    // Sanity-validate operands so bad bytecode bails to the interpreter
    // instead of emitting wild addressing.
    for (const Instr &In : F.Code) {
      switch (In.O) {
      case Op::Jmp:
      case Op::Jz:
      case Op::Jnz:
        if (In.A < 0 || static_cast<size_t>(In.A) >= N)
          return nullptr;
        break;
      case Op::PushBigInt:
        if (In.A < 0 || static_cast<size_t>(In.A) >= P.IntPool.size())
          return nullptr;
        break;
      case Op::LoadLocal:
      case Op::StoreLocal:
      case Op::LoadCapture:
        if (In.A < 0)
          return nullptr;
        break;
      default:
        if (static_cast<int>(In.O) > static_cast<int>(Op::Handle))
          return nullptr;
        break;
      }
    }

    // Prologue. Six pushes + the 8-byte pad put rsp back on a 16-byte
    // boundary, so every in-template call site is ABI-aligned.
    E.pushR(RBP);
    E.pushR(RBX);
    E.pushR(R12);
    E.pushR(R13);
    E.pushR(R14);
    E.pushR(R15);
    E.subRI(RSP, 8);
    E.movRR(RegVm, RDI);
    E.movRR(RegHeap, RDX);
    E.movRR(RegBase, RCX);
    E.loadRM(RegStk, RegVm, SbOff);
    E.loadRM(RegSp, RegVm, SpOff);
    E.movRI32(RBP, PollEvery);
    E.jmpR(RSI); // Absolute native address of the entry ip's template.

    NativeOff.reserve(N);
    for (size_t Ip = 0; Ip < N; ++Ip) {
      NativeOff.push_back(static_cast<uint32_t>(E.size()));
      E.bind(Ips[Ip]);
      // Per-op deadline poll, same cadence as the interpreter's dispatch
      // counter.
      X64Emitter::Label LSkip;
      E.decR32(RBP);
      E.jcc(CcNe, LSkip);
      E.callL(LPollThunk);
      E.bind(LSkip);
      emitOp(F.Code[Ip], static_cast<uint64_t>(Ip) + 1);
    }

    // Trap stubs: code in esi, then the shared trap-and-exit tail.
    for (uint32_t T = 0; T < 4; ++T) {
      E.bind(LTrap[T]);
      E.movRI32(RSI, T);
      E.jmp(LTrapCommon);
    }
    E.bind(LTrapCommon);
    syncSp();
    E.movRR(RDI, RegVm);
    callAbs(addrOf(&VmJit::opTrap));
    E.jmp(LEpilogue);

    // Poll thunk: reached by a near call from any op's prelude. The extra
    // sub realigns rsp for the helper call; the exit path drops both the
    // pad and the return address before jumping to the epilogue.
    E.bind(LPollThunk);
    E.subRI(RSP, 8);
    syncSp();
    E.movRR(RDI, RegVm);
    callAbs(addrOf(&VmJit::poll));
    E.testRR(RAX, RAX);
    X64Emitter::Label LPollExit;
    E.jcc(CcNe, LPollExit);
    E.movRI32(RBP, PollEvery);
    E.addRI(RSP, 8);
    E.ret();
    E.bind(LPollExit);
    E.addRI(RSP, 16);
    E.jmp(LEpilogue);

    // Epilogue: the only way out. Sp was synced by whichever helper or
    // stub routed here, so r13 is never written back.
    E.bind(LEpilogue);
    E.movRI32(RAX, 0);
    E.addRI(RSP, 8);
    E.popR(R15);
    E.popR(R14);
    E.popR(R13);
    E.popR(R12);
    E.popR(RBX);
    E.popR(RBP);
    E.ret();
    E.int3(); // Guard: falling off the end is a bug, not silent decay.

    if (!E.finalize())
      return nullptr;
    const uint8_t *Code = Pool.publish(E.data(), E.size());
    if (!Code)
      return nullptr;
    auto CF = std::make_unique<CompiledFn>();
    CF->Code = Code;
    CF->CodeSize = E.size();
    CF->NativeOff = std::move(NativeOff);
    return CF;
  }
};

std::unique_ptr<CompiledFn> compileFunction(const pml::Program &P, int FnIdx,
                                            CodePool &Pool) {
  const pml::FnProto &F = P.Fns[static_cast<size_t>(FnIdx)];
  if (F.Code.empty() || F.Code.size() > (1u << 20))
    return nullptr;
  FnCompiler C(P, FnIdx);
  return C.compile(Pool);
}

} // namespace

#else // !MPL_JIT_SUPPORTED

namespace {
std::unique_ptr<CompiledFn> compileFunction(const pml::Program &, int,
                                            CodePool &) {
  return nullptr;
}
} // namespace

#endif

const CompiledFn *jit::hotOrCompile(ProgramJit &PJ, const pml::Program &P,
                                    int FnIdx) {
  FnState &S = PJ.fn(static_cast<size_t>(FnIdx));
  uint32_t Ph = S.Phase.load(std::memory_order_acquire);
  if (Ph == PhaseCompiled)
    return S.Fn.load(std::memory_order_acquire);
  if (Ph != PhaseCold)
    return nullptr; // Compiling elsewhere, or a recorded bailout.
  if (S.Calls.load(std::memory_order_relaxed) < PJ.Threshold)
    return nullptr;
  uint32_t Expected = PhaseCold;
  if (!S.Phase.compare_exchange_strong(Expected, PhaseCompiling,
                                       std::memory_order_acq_rel))
    return nullptr; // Another strand claimed the compile.

  std::unique_ptr<CompiledFn> CF = compileFunction(P, FnIdx, PJ.Pool);
  if (!CF) {
    JitBailoutsStat.inc();
    S.Phase.store(PhaseNoCompile, std::memory_order_release);
    return nullptr;
  }
  CompiledFn *Raw = CF.get();
  {
    std::lock_guard<std::mutex> G(PJ.CompiledMu);
    PJ.Owned.push_back(std::move(CF));
  }
  // Schedule fuzzing: stretch the window between finishing the code and
  // publishing it — other strands must keep interpreting identically.
  chaos::preemptPoint(chaos::Point::JitPublish);
  S.Fn.store(Raw, std::memory_order_release);
  S.Phase.store(PhaseCompiled, std::memory_order_release);
  JitCompiledStat.inc();
  JitCodeBytesStat.add(static_cast<int64_t>(Raw->CodeSize));
  obs::emit(obs::Ev::JitCompile, FnIdx, static_cast<int64_t>(Raw->CodeSize));
  return Raw;
}
