//===- bench/bench_fig_speedup.cpp - Paper figure F1: speedup curves -------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Regenerates the speedup-vs-processors figure for selected benchmarks.
// Work W and span S are measured on one core with the scheduler's DAG
// profiler; T_P is the greedy-scheduler bound W/P + S, the model MPL's
// work-stealing scheduler provably achieves within constant factors
// (DESIGN.md §2 documents this substitution for the authors' 72-core
// machine). Speedups are relative to the sequential baseline T_s, as in
// the paper.
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

  const int Procs[] = {1, 2, 4, 8, 16, 32, 64, 72};
  const char *Selected[] = {"fib", "msort", "primes", "bfs", "dedup-ht"};

  std::printf("== F1: speedup curves, T_s / (W/P + S) (scale=%.2f) ==\n%s\n",
              Scale, methodologyLine(Reps).c_str());
  BenchJson J("fig_speedup", Scale, Reps);

  std::vector<std::string> Header{"benchmark"};
  for (int P : Procs)
    Header.push_back("P=" + std::to_string(P));
  Table T(std::move(Header));

  for (const SuiteEntry &E : makeSuite(Scale)) {
    bool Wanted = false;
    for (const char *S : Selected)
      Wanted |= E.Name == S;
    if (!Wanted)
      continue;

    em::Mode SeqMode = E.Entangled ? em::Mode::Manage : em::Mode::Off;
    RunResult Seq = measure(E, true, 1, SeqMode, false, Reps);
    RunResult Par = measure(E, false, 1, em::Mode::Manage, true, Reps);

    std::vector<std::string> Row{E.Name};
    for (int P : Procs)
      Row.push_back(Table::fmtRatio(Seq.Seconds / Par.WS.predictedTime(P)));
    T.addRow(std::move(Row));
    J.addRow(E.Name, "seq", E.Entangled, Seq);
    J.addRow(E.Name, "par-w1", E.Entangled, Par);
    J.addCustomRow(E.Name, "speedup-curve", Par.Seconds, [&](json::Writer &W) {
      W.key("speedup").beginArray();
      for (int P : Procs)
        W.beginObject()
            .kv("p", P)
            .kv("x", Seq.Seconds / Par.WS.predictedTime(P))
            .endObject();
      W.endArray();
    });
  }
  T.print();
  std::printf("\nEach cell is the predicted speedup over the sequential "
              "baseline. Curves flatten\nwhere W/P approaches S — the "
              "paper's figures show the same saturation shape.\n");
  if (!JsonPath.empty() && !J.write(JsonPath))
    return 1;
  return 0;
}
