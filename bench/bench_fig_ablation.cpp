//===- bench/bench_fig_ablation.cpp - Figure F2 + ablation A1 --------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// F2: the cost of entanglement support on *disentangled* programs — each
// benchmark runs with (a) barriers off, (b) detection only (ICFP'22 /
// pre-paper MPL), and (c) full management (this paper). The paper's claim:
// (c) is within a few percent of (a); disentangled objects are shielded
// from the cost of entanglement.
//
// A1 (design-choice ablation from DESIGN.md): hierarchical local collection
// vs a monolithic whole-heap collection discipline. The sequential run
// collects the entire root heap every time (the stop-the-world shape),
// while the parallel run collects small private chains; we report max and
// total pause times for both.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "support/Cli.h"

#include <cstdio>

using namespace mpl;
using namespace mpl::bench;

int main(int Argc, char **Argv) {
  Cli C(Argc, Argv);
  double Scale = C.getDouble("scale", 0.25);
  int Reps = static_cast<int>(C.getInt("reps", 2));
  std::string JsonPath = C.getString("json", "");

  std::printf("== F2: barrier-cost ablation on the disentangled suite "
              "(scale=%.2f, 1 worker) ==\n%s\n",
              Scale, methodologyLine(Reps).c_str());
  BenchJson J("fig_ablation", Scale, Reps);

  Table T({"benchmark", "off", "detect", "manage", "detect/off",
           "manage/off"});
  Table T2({"benchmark", "mode", "collections", "max-pause", "total-pause"});
  auto addPauses = [&T2](const std::string &Name, const char *Mode,
                         const RunResult &R) {
    auto Sec = [&R](const char *Ns) {
      return Table::fmtSec(static_cast<double>(R.counter(Ns)) * 1e-9);
    };
    T2.addRow({Name, Mode, Table::fmtInt(R.counter("gc.collections")),
               Sec("gc.pause.max.ns"), Sec("gc.pause.ns")});
  };

  for (const SuiteEntry &E : makeSuite(Scale)) {
    if (E.Entangled)
      continue; // Detect/Off modes are only sound for disentangled code.
    RunResult Off = measure(E, false, 1, em::Mode::Off, Reps);
    RunResult Det = measure(E, false, 1, em::Mode::Detect, Reps);
    RunResult Man = measure(E, false, 1, em::Mode::Manage, Reps);
    MPL_CHECK(Off.Checksum == Man.Checksum && Det.Checksum == Man.Checksum,
              "ablation modes disagree");
    T.addRow({E.Name, fmtSecPm(Off.Seconds, Off.StddevSeconds),
              fmtSecPm(Det.Seconds, Det.StddevSeconds),
              fmtSecPm(Man.Seconds, Man.StddevSeconds),
              Table::fmtRatio(Det.Seconds / Off.Seconds),
              Table::fmtRatio(Man.Seconds / Off.Seconds)});
    J.addRow(E.Name, "off", false, Off);
    J.addRow(E.Name, "detect", false, Det);
    J.addRow(E.Name, "manage", false, Man);

    if (E.Name != "msort" && E.Name != "quicksort")
      continue;
    // A1. Whole-heap shape: the sequential run keeps everything in the
    // root heap, so every collection scans the full live set.
    RunResult Seq = measure(E, true, 1, em::Mode::Manage, Reps);
    addPauses(E.Name, "whole-heap", Seq);
    // Hierarchical shape: the parallel run, which collects small private
    // chains, is the manage cell above.
    addPauses(E.Name, "hierarchical", Man);
    J.addRow(E.Name, "gc-whole-heap", false, Seq);
    J.addRow(E.Name, "gc-hierarchical", false, Man);
  }
  T.print();

  std::printf("\n== A1: local (hierarchical) vs whole-heap collection "
              "pauses ==\n");
  T2.print();
  std::printf("\nHierarchical collection trades a few more collections for "
              "far smaller\nper-collection pauses — the property that lets "
              "tasks collect independently.\n");
  if (!JsonPath.empty() && !J.write(JsonPath))
    return 1;
  return 0;
}
