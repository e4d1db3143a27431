//===- core/Deadline.h - Request deadlines ---------------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative deadlines for request-scoped tasks. A deadline is one
/// number, the steady-clock instant WorkerCtx::DeadlineNs (0 = none), set
/// on the strand running a request by rt::ScopedDeadline and inherited by
/// every rt::par branch exactly like CurrentHeap, so a stolen strand still
/// knows its request's deadline.
///
/// There is one kind of poll: rt::checkDeadline(), at safe points where an
/// exception may unwind user code — rt::par entry, every object allocation
/// (ops::allocObject), every 256 pml VM instructions and the JIT's poll.
/// Once the clock has passed the deadline it throws DeadlineError, which
/// unwinds exactly like OutOfMemoryError: caught at the branch boundary,
/// heaps still join, pins released by the normal join unpin rule, rethrown
/// on the parent strand.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_CORE_DEADLINE_H
#define MPL_CORE_DEADLINE_H

#include <cstdint>
#include <stdexcept>

namespace mpl {

/// Recoverable deadline expiry: the request's budget ran out and a safe
/// point noticed. Propagates through rt::par joins and is rethrown by
/// Runtime::run, leaving the runtime reusable.
class DeadlineError : public std::runtime_error {
public:
  explicit DeadlineError(int64_t OverrunNs);

  /// How far past the deadline the poll fired.
  int64_t overrunNs() const { return Overrun; }

private:
  int64_t Overrun;
};

struct WorkerCtx;

namespace rt {

/// Throwing deadline check for the calling strand's request. No-op when
/// the strand has no deadline. Call ONLY at safe points where an exception
/// may unwind user code (never a scheduler frame): rt::par entry,
/// allocation, VM dispatch.
void checkDeadline();

/// RAII attach of a request's deadline, an absolute support/Timer nowNs
/// instant (0 = none), to the calling strand: the request-scoped entry
/// the server's batch executor puts around each request body. Forked
/// branches inherit it via rt::par.
class ScopedDeadline {
public:
  explicit ScopedDeadline(int64_t DeadlineNs);
  ~ScopedDeadline();
  ScopedDeadline(const ScopedDeadline &) = delete;
  ScopedDeadline &operator=(const ScopedDeadline &) = delete;

private:
  WorkerCtx *Ctx;
  int64_t Saved;
};

} // namespace rt
} // namespace mpl

#endif // MPL_CORE_DEADLINE_H
