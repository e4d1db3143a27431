//===- tools/mpl_report.cpp - Bench-JSON renderer and regression gate ------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Thin CLI over tools/GateLib.{h,cpp} — the join/compare/gate logic lives
// there so tests/report_test.cpp can drive it directly. Consumes the
// schema-versioned "mpl-bench/1" records every bench binary emits with
// `-json <path>` (bench/Common.h, BenchJson) and does two jobs:
//
//   render:   mpl_report FILE.json
//             Paper-style table of the measured rows: times with spread
//             and noise class, work/span, entanglement counters,
//             residency, and the top profiler site.
//
//   compare:  mpl_report --baseline A.json --current B.json
//                        [--stddev-k K] [--floor-pct N] [--min-time-ms M]
//                        [--no-time-gate] [--gate-residency]
//                        [--gate-counters] [--profile-drift]
//                        [--drift-top-k K]
//             The CI perf-smoke gate (DESIGN.md §12). Joins rows on
//             (name, config) and exits nonzero when the current run
//             regressed:
//               * median time beyond baseline + max(K*sigma, floor%) —
//                 sigma recomputed from the baseline's per-rep times,
//                 floor doubled for noisy rows — and only for rows whose
//                 baseline median is at least M ms (default 10): shorter
//                 rows are pure noise across machines at smoke scale;
//               * with --gate-residency: max residency / pinned bytes
//                 grew past tolerance (the space table's claim);
//               * with --gate-counters: em counters or attributed pin
//                 bytes grew past tolerance (the entangle table's claim);
//               * with --profile-drift: a top-K profiler site's events or
//                 bytes grew past tolerance, or a site is new against an
//                 empty baseline profile — catching a disentangled
//                 benchmark that starts pinning even when its time is
//                 within noise;
//               * always: leaked pins, missing rows, same-scale checksum
//                 mismatches, profiler attribution mismatches.
//             Improvements never fail the gate. --no-time-gate turns the
//             time rule off for tables whose claim is space or counters
//             (BENCH_T2/T4 run single-rep, so they carry no spread and
//             their wall time is gated by the T1 stage instead).
//
//===----------------------------------------------------------------------===//

#include "GateLib.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace mpl;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mpl_report FILE.json\n"
      "       mpl_report --baseline A.json --current B.json\n"
      "                  [--stddev-k K] [--floor-pct N] [--min-time-ms M]\n"
      "                  [--no-time-gate] [--gate-residency] [--gate-counters]\n"
      "                  [--profile-drift] [--drift-top-k K]\n"
      "                  [--time-gate-config SUBSTR]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string BaselinePath, CurrentPath, RenderPath;
  gate::GateOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    auto TakeValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "mpl_report: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    auto TakeDouble = [&](const char *Flag, double &Out) {
      const char *V = TakeValue(Flag);
      if (V)
        Out = std::atof(V);
      return V != nullptr;
    };
    if (std::strcmp(Argv[I], "--baseline") == 0) {
      const char *V = TakeValue("--baseline");
      if (!V)
        return 2;
      BaselinePath = V;
    } else if (std::strcmp(Argv[I], "--current") == 0) {
      const char *V = TakeValue("--current");
      if (!V)
        return 2;
      CurrentPath = V;
    } else if (std::strcmp(Argv[I], "--stddev-k") == 0) {
      if (!TakeDouble("--stddev-k", Opts.StddevK))
        return 2;
    } else if (std::strcmp(Argv[I], "--floor-pct") == 0) {
      if (!TakeDouble("--floor-pct", Opts.FloorPct))
        return 2;
    } else if (std::strcmp(Argv[I], "--min-time-ms") == 0) {
      if (!TakeDouble("--min-time-ms", Opts.MinTimeMs))
        return 2;
    } else if (std::strcmp(Argv[I], "--no-time-gate") == 0) {
      Opts.GateTimes = false;
    } else if (std::strcmp(Argv[I], "--time-gate-config") == 0) {
      // Arms the time gate for rows whose config contains SUBSTR even
      // under --no-time-gate (CI: the jit rows of BENCH_T3).
      const char *V = TakeValue("--time-gate-config");
      if (!V)
        return 2;
      Opts.TimeGateConfigSubstr = V;
    } else if (std::strcmp(Argv[I], "--gate-residency") == 0) {
      Opts.GateResidency = true;
    } else if (std::strcmp(Argv[I], "--gate-counters") == 0) {
      Opts.GateCounters = true;
    } else if (std::strcmp(Argv[I], "--profile-drift") == 0) {
      Opts.ProfileDrift = true;
    } else if (std::strcmp(Argv[I], "--drift-top-k") == 0) {
      const char *V = TakeValue("--drift-top-k");
      if (!V)
        return 2;
      Opts.DriftTopK = std::atoi(V);
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "mpl_report: unknown flag '%s'\n", Argv[I]);
      return usage();
    } else {
      RenderPath = Argv[I];
    }
  }

  if (!BaselinePath.empty() != !CurrentPath.empty())
    return usage(); // --baseline and --current come as a pair.

  if (!BaselinePath.empty()) {
    if (!RenderPath.empty())
      return usage();
    gate::BenchFile Base, Cur;
    std::string Err;
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

  if (RenderPath.empty())
    return usage();
  gate::BenchFile F;
  std::string Err;
  if (!gate::loadBenchFile(RenderPath, F, Err)) {
    std::fprintf(stderr, "mpl_report: %s\n", Err.c_str());
    return 2;
  }
  std::fputs(gate::renderTable(F).c_str(), stdout);
  return 0;
}
