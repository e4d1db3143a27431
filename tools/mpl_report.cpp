//===- tools/mpl_report.cpp - Bench, span and trace reader and gate -------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Thin CLI over tools/GateLib.{h,cpp} — every reader and check lives there
// so tests/report_test.cpp can drive them directly. Four forms:
//
//   render:   mpl_report FILE
//             Paper-style table of an "mpl-bench/2" file (what every
//             bench binary writes with `-json <path>`; bench/Common.h,
//             BenchJson): times with spread and noise class, work/span,
//             pinned bytes, GC count, residency and leaked pins.
//
//   compare:  mpl_report --baseline A --current B
//                        [--stddev-k K] [--floor-pct N] [--min-time-ms M]
//                        [--no-time-gate] [--gate-residency]
//                        [--gate-counters] [--time-gate-config SUBSTR]
//             The CI perf-smoke gate (DESIGN.md §12). Joins rows on
//             (name, config) and exits 1 when the current run regressed:
//               * median time beyond baseline + max(K*sigma, floor%) —
//                 sigma recomputed from the baseline's per-rep times,
//                 floor doubled for noisy rows — and only for rows whose
//                 baseline median is at least M ms (default 10): shorter
//                 rows are pure noise across machines at smoke scale;
//               * with --gate-residency: max residency / pinned bytes
//                 grew past tolerance (the space table's claim);
//               * with --gate-counters: em, continuation or pml.jit
//                 counters grew past tolerance (the entangle table's
//                 claim) — catching a disentangled benchmark that starts
//                 pinning even when its time is within noise;
//               * always: leaked pins, missing rows, same-scale checksum
//                 mismatches.
//             Improvements never fail the gate. Every rule is judged in
//             the one pass, so a time failure still reports residency.
//             --no-time-gate turns the time rule off for tables whose
//             claim is counters (BENCH_T4 runs single-rep, so it carries
//             no spread; wall time is the T1 stage's job).
//
//   spans:    mpl_report spans analyze|critical-path|top-lines|fold FILE
//                        [--check-agreement PCT] [-n K]
//             Reads the span ledger's DAG from the trace.json a run writes
//             under MPL_OBS=spans (obs/Span.h, DESIGN.md §14) and prints,
//             through obs/Span's renderers, the run summary, the critical
//             path with its pml fork sites, the per-source-line table
//             (top K, by entangled reads then critical-path self time), or
//             folded stacks for flamegraph tools. With --check-agreement,
//             critical-path exits 1 when the DAG is incomplete or the
//             ledger's critical path differs from the scheduler's online
//             span S by more than PCT percent.
//
//   trace:    mpl_report trace FILE [--require-event NAME]...
//                        [--allow-drops] [--check-flow-pairs]
//                        [--check-net-balance]
//             Validates the trace.json a run writes under MPL_OBS=trace
//             (gate::checkTrace lists the checks) and prints a summary;
//             exits 1 on the first malformation.
//
// Exit status: 0 ok, 1 a gate or check failed, 2 a usage error, an
// unreadable or unparseable bench file, or (spans) a trace without span
// data. Every flag is checked
// against its form's list, so a mistyped one fails instead of leaving a
// gate off. A flag takes the next word as its value, so FILE goes before
// the bool flags.
//
//===----------------------------------------------------------------------===//

#include "GateLib.h"

#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Cli.h"
#include "support/File.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

using namespace mpl;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mpl_report FILE\n"
      "       mpl_report --baseline A --current B\n"
      "                  [--stddev-k K] [--floor-pct N] [--min-time-ms M]\n"
      "                  [--no-time-gate] [--gate-residency] [--gate-counters]\n"
      "                  [--time-gate-config SUBSTR]\n"
      "       mpl_report spans analyze|critical-path|top-lines|fold FILE\n"
      "                  [--check-agreement PCT] [-n K]\n"
      "       mpl_report trace FILE [--require-event NAME]... [--allow-drops]\n"
      "                  [--check-flow-pairs] [--check-net-balance]\n");
  return 2;
}

/// True when every flag in \p C is one of \p Valued, given a value, or one
/// of \p Bare, given none; otherwise prints why the first one is not.
bool flagsOk(const Cli &C, std::initializer_list<std::string_view> Valued,
             std::initializer_list<std::string_view> Bare) {
  auto In = [](std::initializer_list<std::string_view> L,
               const std::string &N) {
    return std::find(L.begin(), L.end(), N) != L.end();
  };
  for (const auto &[Name, Value] : C.flags()) {
    const char *Why = nullptr;
    if (In(Valued, Name))
      Why = Value.empty() ? "needs a value" : nullptr;
    else if (In(Bare, Name))
      Why = Value.empty() ? nullptr : "takes no value (put FILE first)";
    else
      Why = "is unknown here";
    if (Why) {
      std::fprintf(stderr, "mpl_report: flag '--%s' %s\n", Name.c_str(), Why);
      return false;
    }
  }
  return true;
}

int benchForms(const Cli &C) {
  if (!flagsOk(C,
               {"baseline", "current", "stddev-k", "floor-pct", "min-time-ms",
                "time-gate-config"},
               {"no-time-gate", "gate-residency", "gate-counters"}))
    return usage();
  const std::vector<std::string> &Pos = C.positional();
  std::string BaselinePath = C.getString("baseline", "");
  std::string CurrentPath = C.getString("current", "");
  std::string Err;

  if (BaselinePath.empty()) {
    if (!CurrentPath.empty() || Pos.size() != 1)
      return usage();
    gate::BenchFile F;
    if (!gate::loadBenchFile(Pos[0], F, Err)) {
      std::fprintf(stderr, "mpl_report: %s\n", Err.c_str());
      return 2;
    }
    std::fputs(gate::renderTable(F).c_str(), stdout);
    return 0;
  }

  // --baseline and --current come as a pair, with no FILE.
  if (CurrentPath.empty() || !Pos.empty())
    return usage();
  gate::GateOptions Opts;
  Opts.StddevK = C.getDouble("stddev-k", Opts.StddevK);
  Opts.FloorPct = C.getDouble("floor-pct", Opts.FloorPct);
  Opts.MinTimeMs = C.getDouble("min-time-ms", Opts.MinTimeMs);
  Opts.GateTimes = !C.getBool("no-time-gate");
  // Arms the time gate for rows whose config contains SUBSTR even under
  // --no-time-gate (CI: the jit rows of BENCH_T3).
  Opts.TimeGateConfigSubstr = C.getString("time-gate-config", "");
  Opts.GateResidency = C.getBool("gate-residency");
  Opts.GateCounters = C.getBool("gate-counters");
  gate::BenchFile Base, Cur;
  if (!gate::loadBenchFile(BaselinePath, Base, Err) ||
      !gate::loadBenchFile(CurrentPath, Cur, Err)) {
    std::fprintf(stderr, "mpl_report: %s\n", Err.c_str());
    return 2;
  }
  gate::GateResult R = gate::compare(Base, Cur, Opts);
  std::string Report = gate::renderFindings(R, Opts);
  std::fputs(Report.c_str(), R.ok() ? stdout : stderr);
  return R.ok() ? 0 : 1;
}

int spansForm(const Cli &C) {
  const std::vector<std::string> &Pos = C.positional();
  if (!flagsOk(C, {"check-agreement", "n"}, {}) || Pos.size() != 3)
    return usage();
  const std::string &Cmd = Pos[1];
  std::optional<std::string> Text = readFile(Pos[2]);
  obs::SpanRunSummary S;
  std::string Err = "cannot open";
  if (!Text || !obs::readSpanTrace(*Text, S, Err)) {
    std::fprintf(stderr, "mpl_report: %s: %s\n", Pos[2].c_str(), Err.c_str());
    return 2;
  }

  if (Cmd == "analyze") {
    std::fputs(obs::renderSpanSummary(S).c_str(), stdout);
    return 0;
  }
  if (Cmd == "top-lines") {
    int TopK = static_cast<int>(C.getInt("n", 10));
    std::fputs(obs::renderTopLines(S, TopK).c_str(), stdout);
    return 0;
  }
  if (Cmd == "fold") {
    std::fputs(obs::foldSpans(S).c_str(), stdout);
    return 0;
  }
  if (Cmd != "critical-path") {
    std::fprintf(stderr, "mpl_report: unknown spans command '%s'\n",
                 Cmd.c_str());
    return usage();
  }
  std::fputs(obs::renderCriticalPath(S).c_str(), stdout);
  double Limit = C.getDouble("check-agreement", -1);
  if (Limit < 0)
    return 0;
  if (!S.Valid) {
    std::fprintf(stderr,
                 "mpl_report: FAIL: DAG incomplete (%lld dropped records); "
                 "critical path unusable\n",
                 static_cast<long long>(S.Dropped));
    return 1;
  }
  double Pct = S.agreementPct();
  if (std::fabs(Pct) > Limit) {
    std::fprintf(stderr,
                 "mpl_report: FAIL: ledger CP disagrees with scheduler S "
                 "by %+.2f%% (limit %.2f%%)\n",
                 Pct, Limit);
    return 1;
  }
  std::printf("agreement check: |%+.2f%%| <= %.2f%%  OK\n", Pct, Limit);
  return 0;
}

int traceForm(const Cli &C) {
  const std::vector<std::string> &Pos = C.positional();
  if (!flagsOk(C, {"require-event"},
               {"allow-drops", "check-flow-pairs", "check-net-balance"}) ||
      Pos.size() != 2)
    return usage();
  gate::TraceCheckOptions Opts;
  Opts.RequiredEvents = C.getAll("require-event");
  Opts.AllowDrops = C.getBool("allow-drops");
  Opts.CheckFlowPairs = C.getBool("check-flow-pairs");
  Opts.CheckNetBalance = C.getBool("check-net-balance");
  std::optional<std::string> Text = readFile(Pos[1]);
  if (!Text) {
    std::fprintf(stderr, "mpl_report: %s: cannot open\n", Pos[1].c_str());
    return 2;
  }
  std::string Summary, Err;
  if (!gate::checkTrace(*Text, Opts, Summary, Err)) {
    std::fprintf(stderr, "mpl_report: FAIL: %s: %s\n", Pos[1].c_str(),
                 Err.c_str());
    return 1;
  }
  std::fputs(Summary.c_str(), stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C(Argc, Argv);
  const std::vector<std::string> &Pos = C.positional();
  if (!Pos.empty() && Pos[0] == "spans")
    return spansForm(C);
  if (!Pos.empty() && Pos[0] == "trace")
    return traceForm(C);
  return benchForms(C);
}
