//===- pml/jit/Jit.h - Tiered template JIT for the pml VM ------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiered x86-64 template JIT for hot pml functions (DESIGN.md §17).
/// Execution starts in the interpreter; every frame push counts the callee,
/// and once a function's call count crosses the tier threshold the
/// dispatcher compiles it — one native template per bytecode op, stitched
/// together with the interpreter's exact semantics:
///
///  - tagged-integer arithmetic, comparisons, jumps, locals and array
///    indexing run inline;
///  - the entanglement *fast paths* run inline too: the read barrier's
///    depth-guided heap-ancestry walk and the write barrier's same-heap/
///    unpinned test are emitted into the template, and only their slow
///    paths tail into the existing em:: machinery — so all three barrier
///    modes (Off/Detect/Manage) behave bit-identically to the interpreter,
///    counters included;
///  - anything that allocates, switches frames or performs effects calls
///    one out-of-line helper, jit::VmJit::step, which runs the
///    interpreter's own Vm::step for that op on the synced VM state; a
///    failed inline divisor, bounds or stack check exits through
///    VmJit::opTrap with the interpreter's message.
///
/// The design is deopt-free at function granularity: a compiled function
/// has a native entry for *every* bytecode ip (templates are self-contained
/// at op boundaries), so the dispatcher can enter at any resume point and
/// any exit simply falls back to the dispatcher with the VM state
/// consistent. Functions that fail to compile are marked and stay
/// interpreted forever; there is no on-stack replacement and no state
/// reconstruction.
///
/// Safety invariants the templates maintain:
///  - vm->Sp is synced before every helper call and reloaded after, so a
///    collection triggered by an allocating helper sees the rooted value
///    stack exactly as the interpreter would;
///  - no Slot value is cached in a register across an allocating helper;
///  - exceptions (Detect-mode EntanglementError, deadline expiry, OOM)
///    never unwind through a native frame: helpers catch into
///    Vm::PendingExc and the dispatcher rethrows from its own C++ frame;
///  - a per-function poll countdown (one dec per op, same 256 cadence as
///    the interpreter) keeps deadline checks and trap exits timely in
///    allocation-free loops.
///
/// Gating: MPL_JIT=1 arms the tier (default off), MPL_JIT_THRESHOLD sets
/// the call count that triggers compilation (default 64, min 1). Tests and
/// benches use setEnabled()/setCompileThreshold(). Under ThreadSanitizer
/// the JIT is force-disabled with a one-line notice: generated code is
/// uninstrumented, so tsan would report false races against instrumented
/// accesses. Span-armed runs (obs::spansEnabled) pin execution to the
/// interpreter so pml source-line attribution stays exact.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_PML_JIT_JIT_H
#define MPL_PML_JIT_JIT_H

#include "pml/jit/JitRuntime.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace mpl {

class Heap;

namespace pml {
class Vm;
struct Program;
} // namespace pml

namespace jit {

/// Helper status protocol: a native template calls a VmJit helper with
/// vm->Sp synced; StOk means "reload Sp and continue in native code",
/// anything else means "exit to the dispatcher" (frame switch, trap, or a
/// pending exception).
constexpr uint64_t StOk = 0;
constexpr uint64_t StExit = 1;

/// One compiled function: immutable RX code plus the per-bytecode-ip entry
/// table that makes every resume point enterable.
struct CompiledFn {
  const uint8_t *Code = nullptr; ///< Prologue entry (owned by the CodePool).
  size_t CodeSize = 0;
  std::vector<uint32_t> NativeOff; ///< NativeOff[ip] = template offset.

  /// Runs the function: the prologue loads the VM registers and jumps to
  /// the template for \p Ip. Returns when the code exits to the dispatcher.
  uint64_t invoke(pml::Vm *V, size_t Ip, Heap *CurHeap, uint64_t Base) const {
    using Entry = uint64_t (*)(pml::Vm *, const void *, Heap *, uint64_t);
    Entry E = reinterpret_cast<Entry>(reinterpret_cast<uintptr_t>(Code));
    return E(V, Code + NativeOff[Ip], CurHeap, Base);
  }
};

/// Tier state of one function. Phase moves Cold -> Compiling -> Compiled
/// (or Cold -> Compiling -> NoCompile when emission/publish fails); the
/// compile claim is a CAS so exactly one strand compiles while the rest
/// keep interpreting.
enum : uint32_t {
  PhaseCold = 0,
  PhaseCompiling = 1,
  PhaseCompiled = 2,
  PhaseNoCompile = 3,
};

struct FnState {
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint32_t> Phase{PhaseCold};
  std::atomic<CompiledFn *> Fn{nullptr};
};

/// Per-Program JIT state, shared by the root Vm and every ParCall sub-VM
/// (they all hold the same Program). Created by the root Vm before any
/// parallelism exists; the FnState array is fixed-size so concurrent
/// strands index it without locks.
class ProgramJit {
public:
  explicit ProgramJit(size_t NumFns);
  ~ProgramJit();

  ProgramJit(const ProgramJit &) = delete;
  ProgramJit &operator=(const ProgramJit &) = delete;

  FnState &fn(size_t Idx) { return Fns[Idx]; }

  /// Interpreter-side tier accounting: one relaxed add per frame push /
  /// tail call.
  void countCall(int FnIdx) {
    Fns[static_cast<size_t>(FnIdx)].Calls.fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Number of functions currently in PhaseCompiled (tier-determinism
  /// checks in the fuzz/property suites).
  size_t compiledCount() const;

  /// The executable pages backing this program's compiled functions.
  CodePool Pool;

  /// Call count that triggers compilation; latched from the process-wide
  /// threshold when the ProgramJit is created.
  uint64_t Threshold;

private:
  std::unique_ptr<FnState[]> Fns;
  size_t N;
  std::mutex CompiledMu;
  std::vector<std::unique_ptr<CompiledFn>> Owned;

  friend const CompiledFn *hotOrCompile(ProgramJit &, const pml::Program &,
                                        int);
};

/// Process-wide gates. enabled() reads MPL_JIT on first use; programmatic
/// setEnabled overrides it (tests, benches). Always false under tsan and
/// on non-x86-64 builds.
bool enabled();
void setEnabled(bool On);

/// True when this build force-disables the JIT under ThreadSanitizer.
bool tsanForcedOff();

/// Compile trigger threshold (MPL_JIT_THRESHOLD, default 64, min 1).
uint64_t compileThreshold();
void setCompileThreshold(uint64_t T);

/// Creates the shared per-program JIT state; null when the JIT is off.
std::shared_ptr<ProgramJit> createProgramJit(const pml::Program &P);

/// Dispatcher-side tier check: returns the compiled code for \p FnIdx when
/// it is (or just became) hot and compiled, null when the function should
/// keep interpreting. Claims and performs compilation when the threshold
/// is crossed; emits the pml.jit.* stats, the jit_compile trace event and
/// the chaos JitPublish point.
const CompiledFn *hotOrCompile(ProgramJit &PJ, const pml::Program &P,
                               int FnIdx);

/// Stats hook for one dispatcher entry into native code (pml.jit.entries).
void noteEntry();

/// The out-of-line helpers native code calls, plus the Vm field offsets the
/// templates bake in. Implemented in Vm.cpp (a friend of pml::Vm). step is
/// the one helper for bytecode ops: it runs the interpreter's own Vm::step,
/// so every opcode body exists once. The rest cover what has no opcode of
/// its own: the barrier slow paths, the deadline poll and the inline trap
/// stubs. All helpers return StOk / StExit per the protocol above and never
/// let an exception escape (they catch into Vm::PendingExc).
struct VmJit {
  static size_t spOffset();
  static size_t stackBaseOffset();
  static size_t stackCap();

  /// Runs the op at \p IpAfter - 1 of the top frame, with the frame's Ip
  /// set to \p IpAfter as the interpreter's dispatch leaves it. StExit when
  /// the op switched frames, trapped or threw.
  static uint64_t step(pml::Vm *V, uint64_t IpAfter) noexcept;
  static uint64_t opReadBarrier(pml::Vm *V, uint64_t Val,
                                uint64_t Reader) noexcept;
  static uint64_t opWriteBarrier(pml::Vm *V, uint64_t Holder,
                                 uint64_t Val) noexcept;
  static uint64_t poll(pml::Vm *V) noexcept;
  /// Raises the inline trap \p Code (always StExit).
  static uint64_t opTrap(pml::Vm *V, uint64_t Code) noexcept;
};

/// Inline-trap codes (opTrap); Vm.cpp holds their messages, which the
/// interpreter raises too.
enum : uint32_t {
  TrapDivZero = 0,
  TrapOob = 1,
  TrapMatchFail = 2,
  TrapStackOverflow = 3,
};

} // namespace jit
} // namespace mpl

#endif // MPL_PML_JIT_JIT_H
