//===- perfbench/src/Bench.h - Workloads, passes and results ----*- C++ -*-===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's model. A workload is a list of operations, each a call
/// into the runtime's public API on seeded inputs whose answer was computed
/// without the runtime. A *pass* runs every operation once on a fresh
/// rt::Runtime at one worker count, with the pml JIT armed or not; passes
/// at 1 and P workers alternate so slow drift of the machine hits both
/// alike.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Probe.h"
#include "Trace.h"

#include "core/Runtime.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  /// Input-size multiplier; below 1 only in the smoke test.
  double Scale = 1.0;
  /// Worker count of the parallel passes; 0 means the CPUs available.
  int P = 0;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string SpanPath;
};

/// Names of the workloads, in the order the README lists them.
const std::vector<std::string> &workloadNames();

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one run reports. Every operation attempted is counted; one whose
/// output or invariant check fails counts as failed.
struct Result {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> Failures; ///< First few, for stderr.
  std::map<std::string, Metric> EndToEnd, PerLayer;
  bool LastOk = true; ///< Whether the operation counted last passed.

  bool correct() const { return Failed == 0 && Attempted > 0; }
  /// Counts one operation; a false \p Ok marks it failed with \p What.
  void check(bool Ok, const std::string &What);
  /// Marks the operation just counted as failed (a later invariant check).
  void failLast(const std::string &What);
  void set(const std::string &Name, double Value, const std::string &Unit) {
    EndToEnd[Name] = {Value, Unit};
  }
  void layer(const std::string &Name, double Value, const std::string &Unit) {
    PerLayer[Name] = {Value, Unit};
  }
  /// The final line: {"correct":..,"attempted":..,"failed":..,"metrics":..}
  /// with the per-layer metrics when \p Traced, else the end-to-end ones.
  std::string json(bool Traced) const;
};

/// Filled by an operation's body for the pass that runs it.
struct OpRun {
  mpl::WorkSpan WS;        ///< Of its Runtime::run.
  double RunSec = 0;       ///< Wall time of its Runtime::run.
  double FrontendSec = 0;  ///< pml parse + infer + compile.
  double VmSec = 0;        ///< pml Vm::run.
  int64_t CodeOps = 0;     ///< pml bytecode length.
};

/// One operation. Body runs outside any Runtime::run, makes exactly one
/// run on \p R (see runOn), and returns the output as text.
struct Op {
  std::string Name;
  /// A disentangled operation must record zero pins.
  bool Disentangled = true;
  std::string Expected;
  std::function<std::string(mpl::rt::Runtime &R, SpanLog &L, OpRun &Out)>
      Body;
};

/// Runs \p Fn as the root task of \p R inside a "rt.run" span and records
/// the run's wall time and work-span in \p Out.
template <typename Fn>
void runOn(mpl::rt::Runtime &R, SpanLog &L, OpRun &Out, Fn &&F) {
  SpanLog::Scope S(L, "rt.run");
  int64_t T0 = mpl::nowNs();
  Out.WS = R.run(std::forward<Fn>(F));
  Out.RunSec += 1e-9 * static_cast<double>(mpl::nowNs() - T0);
}

struct PassConfig {
  int Workers = 1;
  bool Jit = false;
};

/// Totals of one pass.
struct PassStats {
  double Sec = 0;    ///< Sum of the operations' wall times.
  double RunSec = 0; ///< Sum of their Runtime::run wall times.
  double WorkSec = 0, SpanSec = 0;
  double FrontendSec = 0;
  int64_t CodeOps = 0;
  Probe D; ///< Counter deltas over the operations.
  int64_t PeakRssKb = 0; ///< Process peak RSS during the pass.
  std::vector<double> OpMs;
  std::map<std::string, double> OpSec; ///< Wall seconds per operation name.
  std::map<std::string, double> VmSec; ///< pml Vm::run seconds per program.
};

/// Runs every operation once on a fresh Runtime, checking each output and
/// the pin invariants into \p Res.
PassStats runPass(const std::vector<Op> &Ops, const PassConfig &Cfg,
                  SpanLog &L, Result &Res);

/// The operations of each batch workload, with seeded inputs and reference
/// answers. Generating them is part of set-up.
std::vector<Op> fjPureOps(uint64_t Seed, double Scale);
std::vector<Op> fjEntangledOps(uint64_t Seed, double Scale);
std::vector<Op> pmlOps(uint64_t Seed, double Scale);

/// Parses, type-checks and compiles \p Source (timed into \p Out), then
/// runs it on \p R; returns the print output followed by the rendered value
/// and its type, as the request server formats a pml reply.
std::string runPml(mpl::rt::Runtime &R, SpanLog &L, OpRun &Out,
                   const std::string &Source);

/// A request for net::Server, drawn from the seed (Serve.h sends them).
struct Request {
  enum Kind { Fib, Primes, Sort, Pml } K = Fib;
  int64_t Size = 0;
  uint64_t Id = 0;
  std::string Body;     ///< Wire body ("fib 20", or pml source).
  std::string Expected; ///< The reply body a correct server sends.
};
std::vector<Request> makeRequests(size_t N, uint64_t Seed, double Scale);

/// Runs a whole workload and fills every metric the mode asks for.
Result runWorkload(const Options &O);

} // namespace pb

#endif // PERFBENCH_BENCH_H
