//===- tools/mpl_spans.cpp - Causal span ledger analyzer -------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Thin CLI over the mpl-spans/1 readers in tools/GateLib.{h,cpp}. Consumes
// the spans.json a run writes under MPL_OBS=spans MPL_OBS_DIR=<dir>
// (src/obs/Span.h, DESIGN.md §14) and does four jobs:
//
//   analyze:        mpl_spans analyze FILE.json
//                   Run summary: task/steal/drop counts, ledger work and
//                   critical path, the ledger-vs-scheduler agreement, and
//                   em event totals.
//
//   critical-path:  mpl_spans critical-path FILE.json [--check-agreement P]
//                   The tasks on the critical path in start order with
//                   their pml fork sites. With --check-agreement P the
//                   command exits nonzero when the ledger's critical path
//                   disagrees with the scheduler's online span S by more
//                   than P percent, or when the DAG is incomplete — the
//                   consistency oracle CI runs after the span smoke.
//
//   top-lines:      mpl_spans top-lines FILE.json [-n K]
//                   Per-pml-source-line attribution table sorted by
//                   entangled reads then critical-path self time: where
//                   entanglement happens and which lines the run's length
//                   actually depends on.
//
//   fold:           mpl_spans fold FILE.json
//                   Folded stacks ("root;L4:3;L7:2 <self_ns>") for
//                   flamegraph.pl-style tools; the stack is the chain of
//                   ancestor fork sites.
//
//===----------------------------------------------------------------------===//

#include "GateLib.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace mpl;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mpl_spans analyze FILE.json\n"
      "       mpl_spans critical-path FILE.json [--check-agreement PCT]\n"
      "       mpl_spans top-lines FILE.json [-n K]\n"
      "       mpl_spans fold FILE.json\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  std::string Cmd = Argv[1];
  std::string Path;
  double CheckAgreementPct = -1;
  int TopK = 10;
  for (int I = 2; I < Argc; ++I) {
    auto TakeValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "mpl_spans: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    if (std::strcmp(Argv[I], "--check-agreement") == 0) {
      const char *V = TakeValue("--check-agreement");
      if (!V)
        return 2;
      CheckAgreementPct = std::atof(V);
    } else if (std::strcmp(Argv[I], "-n") == 0) {
      const char *V = TakeValue("-n");
      if (!V)
        return 2;
      TopK = std::atoi(V);
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "mpl_spans: unknown flag '%s'\n", Argv[I]);
      return usage();
    } else if (Path.empty()) {
      Path = Argv[I];
    } else {
      return usage();
    }
  }
  if (Path.empty())
    return usage();

  gate::SpansFile F;
  std::string Err;
  if (!gate::loadSpansFile(Path, F, Err)) {
    std::fprintf(stderr, "mpl_spans: %s\n", Err.c_str());
    return 2;
  }

  if (Cmd == "analyze") {
    std::fputs(gate::renderSpansSummary(F).c_str(), stdout);
    return 0;
  }
  if (Cmd == "critical-path") {
    std::fputs(gate::renderCriticalPath(F).c_str(), stdout);
    if (CheckAgreementPct >= 0) {
      if (!F.LedgerValid) {
        std::fprintf(stderr,
                     "mpl_spans: FAIL: DAG incomplete (%lld dropped records); "
                     "critical path unusable\n",
                     static_cast<long long>(F.Dropped));
        return 1;
      }
      if (std::fabs(F.AgreementPct) > CheckAgreementPct) {
        std::fprintf(stderr,
                     "mpl_spans: FAIL: ledger CP disagrees with scheduler S "
                     "by %+.2f%% (limit %.2f%%)\n",
                     F.AgreementPct, CheckAgreementPct);
        return 1;
      }
      std::printf("agreement check: |%+.2f%%| <= %.2f%%  OK\n",
                  F.AgreementPct, CheckAgreementPct);
    }
    return 0;
  }
  if (Cmd == "top-lines") {
    std::fputs(gate::renderTopLines(F, TopK).c_str(), stdout);
    return 0;
  }
  if (Cmd == "fold") {
    std::fputs(gate::foldSpans(F).c_str(), stdout);
    return 0;
  }
  std::fprintf(stderr, "mpl_spans: unknown command '%s'\n", Cmd.c_str());
  return usage();
}
