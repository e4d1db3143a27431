//===- perfbench/src/main.cpp - The benchmark command ---------------------===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
// perfbench --workload <fj-pure|fj-entangled|pml> --seed <n>
//           --seconds <s> --trace <0|1> [--spans <path>]
//
// A readable summary goes to stderr; the last line of stdout is the result
// as one JSON object. With --trace 0 it carries the end-to-end metrics,
// with --trace 1 the per-layer metrics of a traced run.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fj-pure|fj-entangled|pml> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  pb::Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string V = Argv[++I];
    char *End = &V[0] + V.size(); // numeric flags move it to the parse end
    if (Flag == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
    } else if (Flag == "--trace") {
      O.Trace = V == "1";
      End = V == "0" || V == "1" ? &V[0] + 1 : nullptr;
    } else if (Flag == "--spans") {
      O.SpanPath = V;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
    if (V.empty() || !End || *End != '\0')
      return usage(("bad value for " + Flag).c_str());
  }
  bool Known = false;
  for (const std::string &W : pb::workloadNames())
    Known |= W == O.Workload;
  if (!HaveWorkload || !Known)
    return usage("unknown workload");
  if (!(O.Seconds > 0 && O.Seconds <= 600))
    return usage("--seconds must be in (0, 600]");

  pb::Result R = pb::runWorkload(O);

  for (const auto &[Name, M] : O.Trace ? R.PerLayer : R.EndToEnd)
    std::fprintf(stderr, "%-26s %14.6g %s\n", Name.c_str(), M.Value,
                 M.Unit.c_str());
  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "FAILED: %s\n", F.c_str());
  std::fprintf(stderr, "%s: attempted %lld, failed %lld\n",
               O.Workload.c_str(), static_cast<long long>(R.Attempted),
               static_cast<long long>(R.Failed));
  std::fflush(stderr);
  std::printf("%s\n", R.json(O.Trace).c_str());
  return 0;
}
