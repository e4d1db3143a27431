//===- net/Server.h - Entanglement-managed request server ------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TCP front-end on the runtime: every request runs a pml program or a
/// named workload as a fork-join task with its own leaf heap, so
/// per-request collection is sync-free and per-request failure is
/// recoverable. The robustness ladder (DESIGN.md §15):
///
///  - *admission*: connection threads consult the MemoryGovernor's
///    pressure ladder before enqueueing (adviseAdmission); refused
///    requests get a structured SHED response with a Retry-After hint and
///    never touch the runtime;
///  - *execution*: one executor thread owns the (singleton) Runtime and
///    runs admitted requests in batches — a binary rt::par fan-out gives
///    each request a leaf heap. A request that runs out of memory or past
///    its deadline unwinds at its own branch boundary (SHED /
///    DEADLINE_EXPIRED); the rest of the batch is unaffected;
///  - *deadlines*: each request's deadline instant is attached via
///    rt::ScopedDeadline and inherited across every fork; the safe-point
///    checks (core/Deadline.h) throw once it passes, and the join rule
///    releases the aborted task's pins (leaked pins == 0 is asserted by
///    the smoke harness);
///  - *drain*: requestDrain() (SIGTERM-safe: one relaxed store) stops the
///    accept loop, lets queued requests finish — or sheds them as DRAINING
///    once the drain timeout passes — and flushes trace/metrics/span
///    exports by destroying the Runtime at quiescence;
///  - *wire chaos*: the socket read/write paths consult
///    chaos::wireFaultNow() (truncated frames, mid-request drops,
///    slow-loris stalls), so the whole failure surface is replayable by
///    seed like every other chaos point.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_NET_SERVER_H
#define MPL_NET_SERVER_H

#include "net/Frame.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace mpl {
namespace net {

struct ServerConfig {
  /// Listen port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t Port = 0;

  /// Runtime worker threads for request execution.
  int NumWorkers = 2;

  /// Bounded request queue; the admission ladder shrinks the usable
  /// fraction as pressure rises (full / half / quarter / none).
  int QueueCap = 64;

  /// Max requests fanned out per Runtime::run batch.
  int BatchMax = 8;

  /// Max simultaneously served connections; excess accepts are closed.
  int MaxConns = 128;

  /// After drain starts, queued requests have this long to finish before
  /// being shed with DRAINING.
  int DrainTimeoutMs = 5000;
};

/// Totals for the ops story (mirrored as net.* Stats / gauges).
struct ServerTotals {
  int64_t Accepted = 0;        ///< Connections accepted.
  int64_t Requests = 0;        ///< Requests decoded off the wire.
  int64_t Ok = 0;
  int64_t Shed = 0;            ///< Admission or mid-run OOM sheds.
  int64_t DeadlineExpired = 0;
  int64_t Errors = 0;          ///< Evaluation errors (structured ERROR).
  int64_t Draining = 0;        ///< Requests refused/shed during drain.
  int64_t WireFaults = 0;      ///< Chaos faults injected on this server.
  int64_t ProtocolErrors = 0;  ///< Malformed/oversized frames received.
  /// Stats ('I') frames served. Not part of Requests or any Resp* total:
  /// the introspection plane never perturbs the request-counter balance
  /// (Requests == Ok + Shed + DeadlineExpired + Errors + Draining).
  int64_t Introspects = 0;
};

/// The server. Lifecycle: construct → start() → (requests flow) →
/// requestDrain() → waitUntilDrained() → destroy. start() may be called
/// once.
class Server {
public:
  explicit Server(const ServerConfig &C);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and spawns the accept loop and the executor (which
  /// constructs the process's Runtime — at most one Server may run at a
  /// time, same constraint as Runtime itself). False on bind failure.
  bool start();

  /// The bound port (valid after start(); useful with Port = 0).
  uint16_t port() const { return BoundPort; }

  /// Begins graceful drain. Async-signal-safe: one atomic store — install
  /// it directly in a SIGTERM handler. Idempotent.
  void requestDrain() { DrainFlag.store(true, std::memory_order_release); }

  bool draining() const { return DrainFlag.load(std::memory_order_acquire); }

  /// Blocks until the accept loop, all connections and the executor have
  /// shut down and the Runtime has been destroyed (exports flushed).
  /// Implies requestDrain().
  void waitUntilDrained();

  ServerTotals totals() const;

private:
  struct Impl;
  Impl *I;
  std::atomic<bool> DrainFlag{false};
  uint16_t BoundPort = 0;
};

} // namespace net
} // namespace mpl

#endif // MPL_NET_SERVER_H
