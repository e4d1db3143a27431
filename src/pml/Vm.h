//===- pml/Vm.h - PML bytecode interpreter ----------------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PML virtual machine. All PML values live in the hierarchical heap:
/// closures are mutable arrays (slot 0 = function index, then captures),
/// pairs are immutable records, refs/arrays map directly onto runtime
/// refs/arrays. Every mutable access goes through the entanglement
/// barriers, and ParCall maps onto rt::par — so compiled PML programs get
/// exactly the semantics the paper gives Parallel ML: fork-join
/// parallelism with unrestricted effects, managed entanglement included.
///
/// Guest calls run on an explicit frame stack (no native recursion), which
/// is what makes first-class effect handlers possible: Suspend slices the
/// frame chain between the perform and the innermost matching handler out
/// of the Frames/value stacks into a heap continuation object, and Resume
/// splices it back in — on whichever strand holds the continuation, which
/// need not be the strand (or worker, or heap) that captured it. The pin
/// protocol for those captured frames lives in core/Em (DESIGN.md §13).
/// Only ParCall recurses natively, via a sub-VM per branch; effects are
/// delimited by rt::par — a perform in a branch cannot be answered by a
/// handler outside it.
///
/// The VM's value stack is registered as a GC root range; a collection can
/// safely happen at any allocation point during execution.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_PML_VM_H
#define MPL_PML_VM_H

#include "mm/Object.h"
#include "pml/Compiler.h"
#include "pml/Types.h"

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mpl {

namespace jit {
struct VmJit;
} // namespace jit

namespace pml {

/// Shared trap state: a runtime error in any parallel branch aborts the
/// whole program evaluation.
struct TrapState {
  std::atomic<bool> Trapped{false};
  std::mutex Lock;
  std::string Message;

  void trap(const std::string &Msg) {
    std::lock_guard<std::mutex> G(Lock);
    if (!Trapped.exchange(true))
      Message = Msg;
  }
};

struct VmBranch;

/// Executes a compiled program. Must run inside rt::Runtime::run (the VM
/// allocates from the calling task's heap).
class Vm {
public:
  struct Result {
    bool Ok = false;
    Slot Value = 0;
    std::string Error;
  };

  /// \p CaptureOut, when non-null, receives print output instead of stdout.
  explicit Vm(const Program &P, std::string *CaptureOut = nullptr);
  ~Vm();

  Vm(const Vm &) = delete;
  Vm &operator=(const Vm &) = delete;

  /// Runs the main function to completion.
  Result run();

private:
  friend struct VmBranch;
  /// The JIT's out-of-line helpers (pml/jit/Jit.h) run step() on this VM's
  /// state from native code.
  friend struct jit::VmJit;
  Vm(const Program &P, std::string *CaptureOut,
     std::shared_ptr<TrapState> Trap);

  /// One guest frame. The value-stack layout at Base is
  /// [closure, param, locals..., operands...]; a call reuses the caller's
  /// [fn, arg] operand slots as the callee's [closure, param], so Ret
  /// restoring Sp = Base removes them for free. OperandsToPop covers extra
  /// protocol slots *below* Base that belong to this frame: zero for a
  /// plain call, the arm count for a Handle body thunk (whose arm closures
  /// sit just below the thunk for the body's dynamic extent).
  struct Frame {
    const FnProto *Fn = nullptr;
    int FnIdx = 0;
    size_t Ip = 0;
    size_t Base = 0;
    int HandlerIdx = -1; ///< Handlers entry this frame owns (pops on Ret).
    uint32_t OperandsToPop = 0;
  };

  /// One installed `handle ... with ... end`. ArmsBase is where the arm
  /// closures sit on the value stack — and where the handle expression's
  /// result lands, whether the body returns normally or an arm answers for
  /// it. FrameIdx is the body-thunk frame: Suspend captures Frames[FrameIdx
  /// ..] when this handler answers a perform.
  struct HandlerEnt {
    int TableIdx = 0;
    size_t ArmsBase = 0;
    int NumArms = 0;
    size_t FrameIdx = 0;
  };

  /// Pushes [Closure, Arg], runs to completion, returns the result.
  Slot callFunction(int FnIdx, Slot Closure, Slot Arg);
  /// Executes until the frame stack shrinks back to \p Floor.
  void runLoop(size_t Floor);
  /// Executes one instruction of the top frame, whose Ip is already past
  /// it: the one body of every opcode, for the interpreter's dispatch loop
  /// and for the JIT's out-of-line ops alike. Returns true when it switched
  /// frames (call, tail call, return, handle, suspend, resume).
  [[gnu::always_inline]] inline bool step(const Instr &In);
  /// Expects [closure, arg] on top of the value stack; false on trap.
  bool pushFrame(int FnIdx, int HandlerIdx, uint32_t OperandsToPop);
  void doSuspend(int32_t EffectId);
  void doResume();
  void push(Slot V);
  Slot pop();

  const Program &P;
  std::string *CaptureOut;
  std::shared_ptr<TrapState> Trap;

  static constexpr size_t StackCap = 1 << 16;
  // Guest calls are frame-stack entries, not native recursion, so this
  // bound is about guest resource sanity; but ParCall still nests a native
  // sub-VM per branch, and under ASan redzones inflate those native frames
  // enough that deeply nested par must trip proportionally earlier.
#if defined(__SANITIZE_ADDRESS__)
  static constexpr int MaxCallDepth = 3000;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  static constexpr int MaxCallDepth = 3000;
#else
  static constexpr int MaxCallDepth = 8000;
#endif
#else
  static constexpr int MaxCallDepth = 8000;
#endif

  std::unique_ptr<Slot[]> Stack;
  Slot *StackBase = nullptr;
  size_t Sp = 0;
  std::vector<Frame> Frames;
  std::vector<HandlerEnt> Handlers;

  /// Exception captured by a JIT helper (Detect-mode EntanglementError,
  /// deadline expiry, OOM). Native frames must never be unwound through, so
  /// helpers catch here and the dispatcher rethrows from its own C++ frame
  /// once the generated code has returned.
  std::exception_ptr PendingExc;
};

/// Renders a PML value of (resolved) type \p T for display, e.g.
/// "(3, true)". Refs/arrays/functions/continuations render opaquely.
std::string renderValue(Slot V, Ty *T);

/// One-stop evaluation: parse, type-check, compile, and run \p Source.
/// Must be called inside rt::Runtime::run. On success fills \p Rendered
/// (the value) and \p TypeStr; print output is appended to \p Output.
/// Returns false and fills \p Errors otherwise.
bool evalSource(const std::string &Source, std::string &Output,
                std::string &Rendered, std::string &TypeStr,
                std::vector<std::string> &Errors);

} // namespace pml
} // namespace mpl

#endif // MPL_PML_VM_H
