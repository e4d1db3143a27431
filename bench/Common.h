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
/// Measurement methodology (1-core container; DESIGN.md §2):
///  - T_s: the kernel with all parallel grains >= n, Mode::Off, 1 worker —
///    our analogue of the sequential-runtime (MLton) baseline. Entangled
///    benchmarks cannot run without management, so their T_s uses Manage
///    (that *is* the paper's point) and is flagged in the output.
///  - T_1: 1 worker, full entanglement management, profiled.
///  - T_P: Brent bound W/P + S from the measured work W and span S.
///  - R_*: peak chunk-pool residency (mm.bytes.peak).
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
#include <string>
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
};

/// Builds the benchmark suite. \p Scale in (0, 1] shrinks the default
/// problem sizes (which target ~0.2-1s per run on one core).
std::vector<SuiteEntry> makeSuite(double Scale = 1.0);

/// Snapshot of the entanglement/GC statistics relevant to the tables.
struct StatSnap {
  int64_t EntangledReads = 0;
  int64_t PinsDown = 0;
  int64_t PinsCross = 0;
  int64_t PinsHolder = 0;
  int64_t PinnedObjects = 0;
  int64_t PinnedBytes = 0;
  int64_t Unpins = 0;
  int64_t ContCaptured = 0; ///< pml continuations captured (em.cont.captured).
  int64_t ContResumed = 0;  ///< pml continuations resumed (em.cont.resumed).
  int64_t JitCompiled = 0;  ///< pml functions tiered up (pml.jit.compiled).
  int64_t JitEntries = 0;   ///< dispatcher entries into native code.
  int64_t JitCodeBytes = 0; ///< executable bytes published (pml.jit.code_bytes).
  int64_t GcCount = 0;
  int64_t GcMaxPauseNs = 0;
  int64_t GcTotalPauseNs = 0;
  int64_t GcInPlaceBytes = 0;
  int64_t PeakResidency = 0;

  static StatSnap read();
};

/// One entanglement-profiler site row (obs/Profile.h) carried into the
/// bench JSON records.
struct ProfileSiteRow {
  std::string Name;
  int64_t Events = 0;
  int64_t Bytes = 0;
  int64_t LifetimeP50Ns = 0;
  int64_t LifetimeP99Ns = 0;
};

/// Span-ledger snapshot (obs/Span.h) from one extra *untimed* repetition
/// run with the causal span ledger armed — attached only when measure()
/// is called with Spans=true, so the published times never carry the
/// ledger's overhead. CriticalPathSec/WorkSec come from the ledger DAG;
/// AgreementPct is the ledger-vs-scheduler consistency check.
struct SpanSnap {
  bool Valid = false;
  int64_t Tasks = 0;
  int64_t Stolen = 0;
  double WorkSec = 0;
  double CriticalPathSec = 0;
  double AgreementPct = 0;

  /// Critical-path fraction CP/W in percent — the table column. 100% on
  /// one worker means a serial schedule; low % means slack to steal.
  double cpPct() const {
    return WorkSec > 0 ? 100.0 * CriticalPathSec / WorkSec : 0;
  }
};

/// Result of one measured configuration.
///
/// Headline statistic: the (lower) median across the timed repetitions —
/// Seconds is always one actually-measured rep, so WS/Stats/profile data
/// come from that same rep and stay mutually consistent. MinSeconds /
/// StddevSeconds / RepSeconds carry the full spread for the JSON records.
struct RunResult {
  double Seconds = 0;        ///< Median (lower) across timed reps.
  double MinSeconds = 0;
  double StddevSeconds = 0;  ///< Sample stddev (0 when Reps == 1).
  std::vector<double> RepSeconds;
  WorkSpan WS;               ///< From the median rep.
  int64_t Checksum = 0;
  StatSnap Stats;            ///< From the median rep.

  /// Site-attributed entanglement profile of the median rep (empty unless
  /// measured with SiteProfile; empty for disentangled runs regardless).
  std::vector<ProfileSiteRow> ProfileSites;
  /// Pins (and their bytes) still live after the median rep's run:
  /// em::Counts' pinned minus unpinned, zero once every pin is released.
  int64_t LeakedPins = 0;
  int64_t LeakedBytes = 0;

  /// Sum of bytes attributed to pin sites ("em.pin.*" / "hh.pin"): equals
  /// Stats.PinnedBytes when the profiler attributed every pin.
  int64_t profilePinnedBytes() const;

  /// Span-ledger snapshot of the extra untimed rep (Valid only when
  /// measured with Spans=true and the ledger captured a complete DAG).
  SpanSnap Spans;
};

/// Runs \p Entry under the given configuration, with stats reset before
/// every timed region. Rep -1 is an untimed warmup (chunk pool + page
/// faults); the reported statistic is the lower median across the \p Reps
/// timed repetitions. With \p SiteProfile the entanglement profiler
/// (obs/Profile.h) is armed around every rep and the median rep's site
/// table is attached to the result — this adds slow-path overhead, so time
/// tables keep it off except for entanglement-focused rows. With \p Spans
/// one extra untimed rep runs with the causal span ledger armed and its
/// DAG summary is attached as RunResult::Spans (the cp%% table column).
RunResult measure(const SuiteEntry &Entry, bool Sequential, int Workers,
                  em::Mode Mode, bool Profile, int Reps = 3,
                  bool SiteProfile = false, bool Spans = false);

/// The one-line methodology statement every bench table prints under its
/// header, so the text and JSON outputs agree on the statistic.
std::string methodologyLine(int Reps);

/// "12.3ms +-0.4" — median with sample stddev, for time-table cells.
std::string fmtSecPm(double MedianSec, double StddevSec);

/// Accumulates schema-versioned benchmark records and writes the `-json`
/// output file. Schema "mpl-bench/1": see tools/mpl_report.cpp (the
/// renderer / regression gate) for the consumer side. Meta fields come
/// first: add them all before the first row.
class BenchJson {
public:
  BenchJson(std::string BenchId, double Scale, int Reps);

  /// Extra top-level metadata (string / integer valued).
  void addMeta(const std::string &Key, const std::string &Value);
  void addMetaInt(const std::string &Key, int64_t Value);

  /// One full measured row. (\p Name, \p Config) must be unique: the
  /// regression gate joins baseline and current on that key.
  void addRow(const std::string &Name, const std::string &Config,
              bool Entangled, const RunResult &R);

  /// Writes a custom row's own fields after its "time" block.
  using ExtraFields = std::function<void(json::Writer &)>;

  /// Row for binaries with hand-rolled measurement loops (bench_table_lang,
  /// bench_table_pml, bench_fig_*, bench_server); \p Extra may be empty.
  void addCustomRow(const std::string &Name, const std::string &Config,
                    double MedianSec, const ExtraFields &Extra = {});

  /// addCustomRow variant that also records the per-rep times (and the
  /// sample stddev recomputed from them), so hand-rolled rows can feed the
  /// stddev-aware time gate like measure()d rows do (BENCH_T3 jit rows).
  void addCustomRow(const std::string &Name, const std::string &Config,
                    double MedianSec, const std::vector<double> &RepSeconds,
                    const ExtraFields &Extra = {});

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
