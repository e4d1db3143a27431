//===- bench/bench_table_space.cpp - Paper table T2: space ------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Regenerates the space table: maximum residency of the sequential baseline
// (R_s) and of the managed single-worker run (R_1), their blowup, and the
// entanglement-specific retention (bytes kept in place by pinned closures).
// The paper's claim: space overhead over sequential runs is small, and the
// extra space of entanglement is bounded by the pinned (entangled) data.
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
  int Reps = static_cast<int>(C.getInt("reps", 1));
  std::string JsonPath = C.getString("json", "");

  std::printf("== T2: maximum residency (scale=%.2f) ==\n%s\n", Scale,
              methodologyLine(Reps).c_str());

  Table T({"benchmark", "R_s", "R_1", "blowup", "pinned", "gc-inplace",
           "gc-count", "max-pause"});
  BenchJson J("table_space", Scale, Reps);

  for (const SuiteEntry &E : makeSuite(Scale)) {
    em::Mode SeqMode = E.Entangled ? em::Mode::Manage : em::Mode::Off;
    RunResult Seq = measure(E, true, 1, SeqMode, Reps);
    RunResult Par = measure(E, false, 1, em::Mode::Manage, Reps);

    std::string Blowup =
        Seq.Stats.PeakResidency > 0
            ? Table::fmtRatio(static_cast<double>(Par.Stats.PeakResidency) /
                              static_cast<double>(Seq.Stats.PeakResidency))
            : "-"; // Allocation-free benchmark (e.g. fib).
    T.addRow({E.Name + (E.Entangled ? " (ent)" : ""),
              Table::fmtBytes(Seq.Stats.PeakResidency),
              Table::fmtBytes(Par.Stats.PeakResidency), Blowup,
              Table::fmtBytes(Par.Stats.PinnedBytes),
              Table::fmtBytes(Par.Stats.GcInPlaceBytes),
              Table::fmtInt(Par.Stats.GcCount),
              Table::fmtSec(static_cast<double>(Par.Stats.GcMaxPauseNs) *
                            1e-9)});
    J.addRow(E.Name, "seq", E.Entangled, Seq);
    J.addRow(E.Name, "par-w1", E.Entangled, Par);
  }
  T.print();
  std::printf("\ngc-inplace = bytes preserved in place for pinned "
              "(entangled) closures across\nall collections — the paper's "
              "space cost of entanglement. ~0 for the\ndisentangled suite "
              "(the shielding claim).\n");
  if (!JsonPath.empty() && !J.write(JsonPath))
    return 1;
  return 0;
}
