//===- bench/bench_table_time.cpp - Paper tables T1-T3 and figure F1 ------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Regenerates the paper's main time table: for every benchmark, the
// sequential-baseline time T_s, the single-worker time T_1, the overhead
// T_1/T_s, the predicted 72-processor time T_72 (Brent bound from measured
// work and span — see DESIGN.md §2 for why), and the speedup T_s/T_72.
//
// The paper's headline claims this table tests:
//   * small time overhead over sequential runs (T_1/T_s close to 1),
//   * good scalability (large T_s/T_72 for the parallel benchmarks),
//   * entangled programs run (pre-paper MPL rejects the last three rows).
//
// The space table (T2), the cross-language table (T3) and the speedup
// figure (F1) are three more views of the same runs:
//   * T2 sets the maximum residency of the T_s run (R_s) beside the T_1
//     run's (R_1), with the T_1 run's pinned and in-place-preserved bytes.
//     The claim: space overhead over sequential runs is small, and the
//     extra space of entanglement is bounded by the pinned data.
//   * T3 sets T_1 beside the same kernel in C++ (src/baseline) at the same
//     size. Only the C++ column of the paper's comparison is reproducible
//     offline (DESIGN.md §2). The claim: the managed functional runtime is
//     in the same ballpark as procedural C++.
//   * F1 is T_s / (W/P + S) for P up to 72 from each kernel's T_s and its
//     T_1 run's work and span — the greedy-scheduler bound that MPL's
//     work-stealing scheduler achieves within constant factors.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "support/Cli.h"

#include <algorithm>
#include <cstdio>

using namespace mpl;
using namespace mpl::bench;

int main(int Argc, char **Argv) {
  Cli C(Argc, Argv);
  double Scale = C.getDouble("scale", 0.25);
  int Reps = static_cast<int>(C.getInt("reps", 2));
  int P = static_cast<int>(C.getInt("procs", 72));
  std::string JsonPath = C.getString("json", "");

  std::printf("== T1: time overhead and scalability (scale=%.2f, "
              "T_%d via Brent bound) ==\n%s\n",
              Scale, P, methodologyLine(Reps).c_str());

  Table T({"benchmark", "T_s", "T_1", "ovhd(T_1/T_s)", "W/S",
           "T_" + std::to_string(P), "speedup(T_s/T_P)"});
  BenchJson J("table_time", Scale, Reps);
  J.addMetaInt("procs", P);

  Table Space({"benchmark", "R_s", "R_1", "blowup", "pinned", "gc-inplace",
               "gc-count", "max-pause"});

  Table Lang({"benchmark", "C++ idiomatic", "C++ alloc-match", "mpl-em T_1",
              "mpl/idiomatic"});

  const int Procs[] = {1, 2, 4, 8, 16, 32, 64, 72};
  const std::string Curves[] = {"fib", "msort", "primes", "bfs", "dedup-ht"};
  std::vector<std::string> CurveHeader{"benchmark"};
  for (int Q : Procs)
    CurveHeader.push_back("P=" + std::to_string(Q));
  Table Speedup(std::move(CurveHeader));

  for (const SuiteEntry &E : makeSuite(Scale)) {
    // Sequential baseline: barriers off for disentangled programs; the
    // entangled ones *require* management (that is the paper's point).
    em::Mode SeqMode = E.Entangled ? em::Mode::Manage : em::Mode::Off;
    RunResult Seq = measure(E, /*Sequential=*/true, /*Workers=*/1, SeqMode,
                            Reps);
    // This is the timing table, so the site profiler stays disarmed: its
    // per-event attribution would inflate the entangled T_1 it reports.
    // MPL_OBS=profile opts in (measure() honors it); the attribution datum
    // lives in bench_table_entangle, which always arms it.
    RunResult Par = measure(E, /*Sequential=*/false, /*Workers=*/1,
                            em::Mode::Manage, Reps);
    MPL_CHECK(Seq.Checksum == Par.Checksum,
              "sequential and parallel runs disagree");

    double TP = Par.WS.predictedTime(P);
    double Parallelism = Par.WS.SpanSec > 0
                             ? Par.WS.WorkSec / Par.WS.SpanSec
                             : 0;
    std::string Label = E.Name + (E.Entangled ? " (ent)" : "");
    T.addRow({Label, fmtSecPm(Seq.Seconds, Seq.StddevSeconds),
              fmtSecPm(Par.Seconds, Par.StddevSeconds),
              Table::fmtRatio(Par.Seconds / Seq.Seconds),
              Table::fmtRatio(Parallelism), Table::fmtSec(TP),
              Table::fmtRatio(Seq.Seconds / TP)});
    int64_t SeqPeak = Seq.counter("mm.bytes.peak");
    int64_t ParPeak = Par.counter("mm.bytes.peak");
    std::string Blowup =
        SeqPeak > 0 ? Table::fmtRatio(static_cast<double>(ParPeak) /
                                      static_cast<double>(SeqPeak))
                    : "-"; // Allocation-free benchmark (e.g. fib).
    Space.addRow(
        {Label, Table::fmtBytes(SeqPeak), Table::fmtBytes(ParPeak), Blowup,
         Table::fmtBytes(Par.counter("em.pinned.bytes")),
         Table::fmtBytes(Par.counter("gc.bytes.inplace")),
         Table::fmtInt(Par.counter("gc.collections")),
         Table::fmtSec(static_cast<double>(Par.counter("gc.pause.max.ns")) *
                       1e-9)});
    J.addRow(E.Name, "seq", E.Entangled, Seq);
    J.addRow(E.Name, "par-w1", E.Entangled, Par);

    if (E.Native) {
      RunResult Nat = measure(E.Native, std::nullopt, Reps);
      MPL_CHECK(Nat.Checksum == Par.Checksum,
                "native and suite kernels computed different results");
      J.addRow(E.Name, "native", E.Entangled, Nat);
      std::string AllocMatch = "-";
      if (E.NativeAllocMatch) {
        RunResult AM = measure(E.NativeAllocMatch, std::nullopt, Reps);
        MPL_CHECK(AM.Checksum == Par.Checksum,
                  "native and suite kernels computed different results");
        J.addRow(E.Name, "native-alloc-match", E.Entangled, AM);
        AllocMatch = fmtSecPm(AM.Seconds, AM.StddevSeconds);
      }
      Lang.addRow({E.Name, fmtSecPm(Nat.Seconds, Nat.StddevSeconds),
                   AllocMatch, fmtSecPm(Par.Seconds, Par.StddevSeconds),
                   Table::fmtRatio(Par.Seconds / Nat.Seconds)});
    }

    if (std::find(std::begin(Curves), std::end(Curves), E.Name) !=
        std::end(Curves)) {
      std::vector<std::string> Row{E.Name};
      for (int Q : Procs)
        Row.push_back(Table::fmtRatio(Seq.Seconds / Par.WS.predictedTime(Q)));
      Speedup.addRow(std::move(Row));
    }
  }
  T.print();
  std::printf("\n(ent) = entangled benchmark: its T_s runs with management "
              "enabled because\npre-paper MPL cannot run it at all; "
              "see bench_table_entangle for its stats.\n");

  std::printf("\n== T2: maximum residency (scale=%.2f) ==\n", Scale);
  Space.print();
  std::printf("\nR_s and R_1 are the peak chunk-pool residency of T1's T_s "
              "and T_1 runs.\ngc-inplace = bytes preserved in place for "
              "pinned (entangled) closures across\nall collections — the "
              "paper's space cost of entanglement. ~0 for the\n"
              "disentangled suite (the shielding claim).\n");

  std::printf("\n== T3: cross-language comparison (scale=%.2f; Go/Java/OCaml "
              "columns not reproducible offline) ==\n",
              Scale);
  Lang.print();
  std::printf("\nmpl-em T_1 is T1's T_1 run. alloc-match is timed only where "
              "it differs from the\nidiomatic C++ (msort's fresh buffers at "
              "every level).\n");

  std::printf("\n== F1: speedup curves, T_s / (W/P + S) (scale=%.2f) ==\n",
              Scale);
  Speedup.print();
  std::printf("\nEach cell is the predicted speedup over the sequential "
              "baseline. Curves flatten\nwhere W/P approaches S — the "
              "paper's figures show the same saturation shape.\n");
  if (!JsonPath.empty() && !J.write(JsonPath))
    return 1;
  return 0;
}
