//===- perfbench/src/Serve.h - The traced run's wire phase ----*- C++ -*-===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Open-loop load over loopback against an in-process net::Server at its
/// default configuration (2 workers, queue 64, batch 8). The pml
/// workload's traced run sends one fixed-rate phase of seeded requests
/// from P connections to measure the net layer: the server's stage
/// quantiles from its 'I' stats frame, its reply totals, and how late the
/// sends left. Every reply is checked against its request's answer.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "Bench.h"

#include "net/Server.h"

namespace pb {

/// Offered rate of the wire phase; the phase lasts a tenth of --seconds.
constexpr double WireRps = 200;

struct ServeStats {
  int64_t Late = 0;
  double LateMaxMs = 0;
  /// Stage quantiles from the stats frame (log2 buckets: coarse).
  double QueueP50Ms = 0, QueueP99Ms = 0, ExecP50Ms = 0, ExecP99Ms = 0,
         ReplyP50Ms = 0, ReplyP99Ms = 0;
  mpl::net::ServerTotals Totals;
};

ServeStats runWirePhase(const Options &O, SpanLog &L, Result &Res);

/// The net.* per-layer metrics (zero when the run sent nothing).
void serveLayerMetrics(Result &Res, const ServeStats &S);

} // namespace pb

#endif // PERFBENCH_SERVE_H
