//===- tools/GateLib.h - Statistical bench regression gate -----*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readers and checks behind tools/mpl_report, in a library so the CI
/// gates are unit-testable like any other subsystem
/// (tests/report_test.cpp). The CLI is a thin flag-parser over these
/// entry points. It reads two formats:
///
///  - the schema-versioned "mpl-bench/2" records every bench binary emits
///    with `-json <path>` (bench/Common.h, BenchJson), whose rows carry
///    their counters under the registry's own names (support/Stats.h);
///  - the Chrome trace-event file the runtime writes (obs/Trace.h), which
///    it validates (the span ledger's DAG in it is read by
///    obs::readSpanTrace, beside its writer).
///
/// parseBenchJson() validates the schema and rejects malformed input with
/// a diagnostic instead of crashing; compare() joins baseline and current
/// rows on (name, config) and returns a structured list of findings.
///
/// Gate statistics (DESIGN.md §12):
///
///  - Time rows are gated **stddev-aware**: a row fails when the current
///    median exceeds the baseline median by more than
///    max(K * sigma, floor% * median), where sigma is the sample stddev
///    recomputed from the baseline's recorded per-rep times (time.rep_s).
///    The floor absorbs machine-level jitter that a 2-rep sigma cannot
///    estimate; K (default 2) scales the measured spread.
///  - Every row carries a **noise class** derived from its relative
///    spread sigma/median: stable (<2%), moderate (<10%), noisy (>=10%).
///    Noisy rows double the floor — when the measured spread is already
///    10%+ at smoke scale, a tight floor only manufactures flakes. The
///    class is reported with every time verdict so a failure message
///    states how trustworthy the baseline spread was.
///  - Counter/space gates (per-table opt-ins): mm.bytes.peak and
///    em.pinned.bytes (space table), em, continuation and pml.jit
///    counters (entangle and pml tables), each by registry name. All gate
///    upward only — improvements never fail — with a relative tolerance
///    plus an absolute slack so zero/near-zero baselines do not turn
///    scheduler jitter into failures: a row passes when cur <= base +
///    slack or cur < base * (1 + pct/100). A disentangled row that
///    *starts* pinning (more than 64 objects or 16 KiB past its baseline)
///    fails even when its time is within noise.
///  - Always-fatal regardless of options: rows missing from the current
///    run, leaked pins (em.pins.objects - em.unpins of the row's own
///    counters) and same-scale checksum mismatches.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_TOOLS_GATELIB_H
#define MPL_TOOLS_GATELIB_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mpl {
namespace gate {

/// How trustworthy a row's measured spread is (relative stddev of the
/// recorded per-rep times).
enum class Noise { Unknown, Stable, Moderate, Noisy };
const char *noiseName(Noise N);

/// One flattened bench row, keyed by (Name, Config).
struct Row {
  std::string Name;
  std::string Config;
  bool Entangled = false;
  double MedianS = 0;
  double StddevS = 0;          ///< As recorded by the writer.
  std::vector<double> RepS;    ///< Per-rep times (time.rep_s).
  double WorkS = 0;
  double SpanS = 0;
  /// The row's "counters" object: registry name -> value.
  std::map<std::string, int64_t> Counters;
  int64_t Checksum = 0;
  bool HasChecksum = false;

  /// Sample stddev recomputed from RepS (needs >= 2 reps); falls back to
  /// the recorded StddevS when the per-rep times are absent.
  double sigmaS() const;

  /// Noise class from sigmaS()/MedianS; Unknown when no spread exists.
  Noise noiseClass() const;

  /// Counter \p Name, or 0 when the row does not carry it.
  int64_t counter(const std::string &Name) const;

  /// Pins the run left unreleased: em.pins.objects - em.unpins.
  int64_t leakedPins() const {
    return counter("em.pins.objects") - counter("em.unpins");
  }
};

/// One parsed mpl-bench/2 file.
struct BenchFile {
  std::string Path;  ///< "" for in-memory parses.
  std::string Bench;
  double Scale = 0;
  int Reps = 0;
  std::vector<Row> Rows;

  const Row *find(const std::string &Name, const std::string &Config) const;
};

/// Parses + validates one mpl-bench/2 document. On failure returns false
/// with a one-line diagnostic in \p Err (never crashes on malformed or
/// empty input, and names the expected schema when given another one).
bool parseBenchJson(const std::string &Text, BenchFile &Out, std::string &Err);

/// loadBenchFile = read \p Path + parseBenchJson; \p Err includes the path.
bool loadBenchFile(const std::string &Path, BenchFile &Out, std::string &Err);

/// Gate configuration. The defaults match the CI perf-smoke stage; the
/// per-table opt-ins (GateResidency / GateCounters) are off so the plain
/// time gate stays the cheapest configuration.
struct GateOptions {
  // Time gate: fail when cur > base + max(StddevK*sigma, floor*base),
  // floor = FloorPct/100 (doubled for Noisy rows). Rows whose baseline
  // median is under MinTimeMs are never time-gated (pure noise across
  // machines at smoke scale); their counters still gate.
  bool GateTimes = true;
  double StddevK = 2.0;
  double FloorPct = 10.0;
  double MinTimeMs = 10.0;

  /// Non-empty: rows whose config contains this substring are time-gated
  /// even when GateTimes is false. Lets a counters-only table arm the
  /// stddev-aware time gate for a subset of rows — CI uses "pml-jit" on
  /// BENCH_T3 so a JIT performance regression fails while the (noisier,
  /// interpreter-dominated) carrier rows stay counter-gated only.
  std::string TimeGateConfigSubstr;

  // Space gate (T2's claim, on BENCH_T1's rows): mm.bytes.peak and
  // em.pinned.bytes.
  bool GateResidency = false;
  double ResidencyTolerancePct = 50.0;
  int64_t ResidencyAbsSlackBytes = 1 << 20;

  // Counter gate (BENCH_T3, BENCH_T4): em, continuation and pml.jit
  // counters.
  bool GateCounters = false;
  double CounterTolerancePct = 100.0;
  int64_t CounterAbsSlackEvents = 64;
  int64_t CounterAbsSlackBytes = 16 << 10;
};

/// One gate verdict. Fatal findings fail the gate; non-fatal ones are
/// informational (e.g. the cross-scale checksum note).
struct Finding {
  enum class Kind {
    MissingRow,
    LeakedPins,
    ChecksumMismatch,
    TimeRegression,
    ResidencyRegression,
    CounterRegression,
    Note,
  };
  Kind K = Kind::Note;
  bool Fatal = true;
  std::string Name;    ///< Row name ("" for file-level notes).
  std::string Config;
  std::string Message; ///< Human-readable detail.
};
const char *findingKindName(Finding::Kind K);

struct GateResult {
  std::vector<Finding> Findings;
  int ComparedRows = 0;
  int TimeGatedRows = 0;
  bool SameScale = true;

  int failures() const;
  bool ok() const { return failures() == 0; }
  /// First fatal finding of kind \p K, or null.
  const Finding *first(Finding::Kind K) const;
};

/// Joins \p Cur against \p Base on (name, config) and applies every gate
/// enabled in \p Opts. Pure: no I/O, deterministic, safe to call from
/// tests with synthetic files.
GateResult compare(const BenchFile &Base, const BenchFile &Cur,
                   const GateOptions &Opts);

/// The paper-style render of one file (mpl_report FILE), returned as
/// a string so tests can assert on it.
std::string renderTable(const BenchFile &F);

/// Renders \p R's findings and the one-line summary exactly as the CLI
/// prints them (findings to the returned string, one per line).
std::string renderFindings(const GateResult &R, const GateOptions &Opts);

//===----------------------------------------------------------------------===//
// Chrome trace-event files (MPL_OBS=trace; obs/Trace.h, mpl_report trace)
//===----------------------------------------------------------------------===//

/// What checkTrace() asserts beyond the trace-event shape.
struct TraceCheckOptions {
  /// Names that must appear on some event; a counter event's name counts.
  std::vector<std::string> RequiredEvents;
  /// Accept a trace whose ring dropped events (otherData.dropped_events).
  /// Otherwise a gappy trace fails: it silently lies about the schedule.
  bool AllowDrops = false;
  /// Every flow id, keyed by cat + name as Chrome binds them, carries both
  /// its start ('s') and finish ('f') half. The server's net.request_flow
  /// binds enqueue to execution, so a lone half is a request enqueued but
  /// never run, or run but never enqueued.
  bool CheckFlowPairs = false;
  /// otherData.counters: net.requests == net.resp.ok + shed +
  /// deadline_expired + error + draining, so every decoded request got
  /// exactly one counted response. net.requests == 0 fails: the check is
  /// only asked of serving runs, where zero means the net.* family is
  /// missing and the balance would hold vacuously.
  bool CheckNetBalance = false;
};

/// Validates one Chrome trace-event document: ph/pid/tid on every event,
/// ts and name on every non-metadata one, B/E balance per track, a
/// numeric dur >= 0 on complete ('X') slices, numeric args on counter
/// ('C') events, numeric ids on flow events, then the checks \p Opts
/// arms. On success returns true with a summary (one line
/// per check) in \p Summary; otherwise false with the first failure in
/// \p Err. Never crashes on malformed input.
bool checkTrace(const std::string &Text, const TraceCheckOptions &Opts,
                std::string &Summary, std::string &Err);

} // namespace gate
} // namespace mpl

#endif // MPL_TOOLS_GATELIB_H
