//===- perfbench/src/Stats.cpp - Exact-sample statistics and ratios -------===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

namespace pb {

double quantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  double H = (static_cast<double>(Xs.size()) - 1) * std::clamp(Q, 0.0, 1.0);
  size_t Lo = static_cast<size_t>(std::floor(H));
  size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  return Xs[Lo] + (H - static_cast<double>(Lo)) * (Xs[Hi] - Xs[Lo]);
}

double median(std::vector<double> Xs) { return quantile(std::move(Xs), 0.5); }

std::array<double, 3> quartiles(std::vector<double> Xs) {
  std::array<double, 3> Cut{0, 0, 0};
  if (Xs.size() < 2)
    return Cut;
  std::sort(Xs.begin(), Xs.end());
  const long N = 4;
  const long Ld = static_cast<long>(Xs.size());
  const long M = Ld + 1;
  for (long I = 1; I < N; ++I) {
    long J = std::clamp(I * M / N, 1L, Ld - 1);
    long Delta = I * M - J * N;
    Cut[I - 1] = (Xs[J - 1] * static_cast<double>(N - Delta) +
                  Xs[J] * static_cast<double>(Delta)) /
                 static_cast<double>(N);
  }
  return Cut;
}

double relativeSpread(const std::vector<double> &Xs) {
  std::array<double, 3> Q = quartiles(Xs);
  return ratio(Q[2] - Q[0], median(Xs));
}

double brentError(double TpSec, double WorkSec, double SpanSec, int P) {
  double Bound = WorkSec / static_cast<double>(P) + SpanSec;
  return Bound > 0 ? TpSec / Bound - 1 : 0;
}

double idleFraction(double WorkSec, double TpSec, int P) {
  double Avail = static_cast<double>(P) * TpSec;
  return Avail > 0 ? 1 - WorkSec / Avail : 0;
}

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

} // namespace pb
