//===- bench/bench_table_entangle.cpp - Paper table T4: entanglement stats -===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Regenerates the entanglement-statistics table: per benchmark, how many
// entangled reads the read barrier observed, how many objects each pin
// class pinned, total pinned bytes, and how many pins the joins released.
// The paper's claims this table tests:
//   * the disentangled suite has (near-)zero entanglement events — they pay
//     only the barrier checks ("shielding");
//   * the entangled suite's pins are all released by joins (no leak);
//   * pinned bytes (the space cost) are small relative to the heap.
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
  std::string JsonPath = C.getString("json", "");

  std::printf("== T4: entanglement statistics (scale=%.2f, 2 workers) ==\n%s\n",
              Scale, methodologyLine(1).c_str());

  Table T({"benchmark", "ent-reads", "pins-down", "pins-cross", "pins-holder",
           "pinned-objs", "pinned-bytes", "prof-bytes", "unpins",
           "leaked-pins"});
  BenchJson J("table_entangle", Scale, /*Reps=*/1);
  J.addMetaInt("workers", 2);

  for (const SuiteEntry &E : makeSuite(Scale)) {
    // SiteProfile: every pin in this table must be attributed to a named
    // barrier site, and no pin may outlive the final join.
    RunResult R = measure(E, /*Sequential=*/false, /*Workers=*/2,
                          em::Mode::Manage, /*Profile=*/false, /*Reps=*/1,
                          /*SiteProfile=*/true);
    int64_t PinnedObjects = R.Stats.PinnedObjects;
    // The profiler and the em counters observe the same chokepoint
    // (Heap::addPinned), and both are read from the same rep: the profiler
    // must attribute 100% of the pinned bytes to named sites.
    MPL_CHECK(R.profilePinnedBytes() == R.Stats.PinnedBytes,
              "profiler lost track of pinned bytes");
    MPL_CHECK(R.LeakedPins == 0, "pins survived final join");

    T.addRow({E.Name + (E.Entangled ? " (ent)" : ""),
              Table::fmtInt(R.Stats.EntangledReads),
              Table::fmtInt(R.Stats.PinsDown),
              Table::fmtInt(R.Stats.PinsCross),
              Table::fmtInt(R.Stats.PinsHolder),
              Table::fmtInt(PinnedObjects),
              Table::fmtBytes(R.Stats.PinnedBytes),
              Table::fmtBytes(R.profilePinnedBytes()),
              Table::fmtInt(R.Stats.Unpins),
              Table::fmtInt(PinnedObjects - R.Stats.Unpins)});
    J.addRow(E.Name, "par-w2", E.Entangled, R);
  }
  T.print();
  std::printf("\npins-down/cross/holder count barrier *events* (re-pins "
              "included); pinned-objs\ncounts distinct objects. leaked-pins "
              "= pinned-objs - unpins must be 0: every\nentanglement "
              "candidate is released by a join. prof-bytes is the site-"
              "attributed\nprofiler total (obs/Profile.h) and must equal "
              "pinned-bytes.\n");
  if (!JsonPath.empty() && !J.write(JsonPath))
    return 1;
  return 0;
}
