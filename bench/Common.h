//===- bench/Common.h - Shared benchmark harness ---------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite and measurement helpers shared by every bench
/// binary. Each binary regenerates one table/figure of the paper's
/// evaluation (see DESIGN.md §5 and EXPERIMENTS.md).
///
/// Measurement methodology (DESIGN.md §2; results/ from a 4-vCPU VM):
///  - T_s: the kernel with all parallel grains >= n, Mode::Off, 1 worker —
///    our analogue of the sequential-runtime (MLton) baseline. Entangled
///    benchmarks cannot run without management, so their T_s uses Manage
///    (that *is* the paper's point) and is flagged in the output.
///  - T_1: 1 worker, full entanglement management.
///  - T_P: Brent bound W/P + S from the measured work W and span S.
///  - R_*: peak chunk-pool residency (mm.bytes.peak).
/// Every timed figure comes from measure(), the one timed-rep loop.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_BENCH_COMMON_H
#define MPL_BENCH_COMMON_H

#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "workloads/Collections.h"
#include "workloads/Entangled.h"
#include "workloads/Graph.h"
#include "workloads/Kernels.h"
#include "workloads/Quickhull.h"

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mpl {
namespace bench {

/// One benchmark of the suite. `Run(Sequential)` executes the kernel —
/// sequentially (grain >= n, for the T_s baseline) or with its parallel
/// grain — and returns a checksum used to validate the run.
struct SuiteEntry {
  std::string Name;
  bool Entangled = false;
  std::function<int64_t(bool Sequential)> Run;
  /// The same kernel at the same size in plain C++ (src/baseline), run
  /// with no Runtime: table T3's idiomatic column. Empty for the kernels
  /// T3 does not compare. Returns Run's checksum.
  std::function<int64_t()> Native = {};
  /// T3's allocation-matched C++ variant, set only where it is a
  /// different function from Native.
  std::function<int64_t()> NativeAllocMatch = {};
};

/// Builds the benchmark suite. \p Scale in (0, 1] shrinks the default
/// problem sizes (which target ~0.2-1s per run on one worker).
std::vector<SuiteEntry> makeSuite(double Scale = 1.0);

/// Result of one measured configuration.
///
/// Headline statistic: the (lower) median across the timed repetitions —
/// Seconds is always one actually-measured rep, so WS and Counters come
/// from that same rep and stay mutually consistent. MinSeconds /
/// StddevSeconds / RepSeconds carry the full spread for the JSON records.
struct RunResult {
  double Seconds = 0;        ///< Median (lower) across timed reps.
  double MinSeconds = 0;
  double StddevSeconds = 0;  ///< Sample stddev (0 when Reps == 1).
  std::vector<double> RepSeconds;
  WorkSpan WS;               ///< From the median rep.
  int64_t Checksum = 0;
  /// The median rep's StatRegistry::snapshotAll(): every counter, zeros
  /// included, under its registry name, sorted by name.
  MetricsSnapshot::Values Counters;

  /// Counter \p Name of the median rep; 0 when no such counter exists.
  int64_t counter(std::string_view Name) const;

  /// Pins still live after the median rep's run, em.pins.objects minus
  /// em.unpins: zero once every pin is released.
  int64_t leakedPins() const {
    return counter("em.pins.objects") - counter("em.unpins");
  }
};

/// The one timed-rep loop of every bench table. Rep -1 is an untimed
/// warmup (chunk pool + page faults); then \p Reps timed reps follow,
/// with stats reset before every timed region. Each rep runs \p Body in
/// a fresh Runtime built from \p Cfg, or on the calling thread with no
/// Runtime when \p Cfg is empty (a native C++ baseline). \p Body returns
/// the run's checksum, which must be the same in every rep, warmup
/// included. The reported statistic is the lower median rep, and the
/// result's counters and work/span come from that same rep.
RunResult measure(const std::function<int64_t()> &Body,
                  const std::optional<rt::Config> &Cfg, int Reps);

/// measure() of a suite kernel, sequential (the T_s shape) or parallel,
/// on \p Workers workers under \p Mode.
RunResult measure(const SuiteEntry &Entry, bool Sequential, int Workers,
                  em::Mode Mode, int Reps);

/// The rep statistic every bench reports (methodologyLine): the lower
/// median — index (N-1)/2 of the sorted times, so always a measured rep —
/// the minimum, and the sample stddev (0 for fewer than two reps).
struct RepStats {
  double Median = 0;
  double Min = 0;
  double Stddev = 0;
  size_t MedianRep = 0; ///< Index of the median rep in the input.
};
RepStats repStats(const std::vector<double> &Seconds);

/// The one-line methodology statement every bench table prints under its
/// header, so the text and JSON outputs agree on the statistic.
std::string methodologyLine(int Reps);

/// "12.3ms +-0.4" — median with sample stddev, for time-table cells.
std::string fmtSecPm(double MedianSec, double StddevSec);

/// Accumulates schema-versioned benchmark records and writes the `-json`
/// output file. Schema "mpl-bench/2": see tools/GateLib.h (the renderer /
/// regression gate behind mpl_report) for the consumer side. Meta fields
/// come first: add them all before the first row.
class BenchJson {
public:
  /// \p WarmupReps is the untimed reps each row took before its timed
  /// ones: measure()'s one, or 0 for a bench timed outside it.
  BenchJson(std::string BenchId, double Scale, int Reps, int WarmupReps = 1);

  /// Extra top-level metadata (string / integer valued).
  void addMeta(const std::string &Key, const std::string &Value);
  void addMetaInt(const std::string &Key, int64_t Value);

  /// One full measured row. (\p Name, \p Config) must be unique: the
  /// regression gate joins baseline and current on that key.
  void addRow(const std::string &Name, const std::string &Config,
              bool Entangled, const RunResult &R);

  /// Writes a custom row's own fields after its "time" block.
  using ExtraFields = std::function<void(json::Writer &)>;

  /// Row for a table that is not a measure()d suite run (the server's
  /// latency, the space-time series): the row's median time, then
  /// \p Extra's fields.
  void addCustomRow(const std::string &Name, const std::string &Config,
                    double MedianSec, const ExtraFields &Extra);

  std::string dump() const;

  /// Writes dump() to \p Path; prints a diagnostic and returns false on
  /// I/O failure.
  bool write(const std::string &Path) const;

private:
  /// Opens the rows array on the first row, then a row object carrying
  /// the join key.
  json::Writer &beginRow(const std::string &Name, const std::string &Config);

  json::Writer W;
  bool RowsOpen = false;
};

} // namespace bench
} // namespace mpl

#endif // MPL_BENCH_COMMON_H
