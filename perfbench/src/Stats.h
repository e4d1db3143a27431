//===- perfbench/src/Stats.h - Exact-sample statistics -------*- C++ -*-===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics over exact samples (no histogram buckets), and the derived
/// per-layer ratios the benchmark reports. Every function is total: an
/// empty sample or a zero base yields 0 rather than NaN, so a layer the
/// workload bypasses reads as 0.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <array>
#include <cstdint>
#include <vector>

namespace pb {

/// The \p Q quantile (0..1) of \p Xs by linear interpolation between the
/// closest ranks (position (n-1)*Q in sorted order).
double quantile(std::vector<double> Xs, double Q);

/// Median (mean of the two middle values for an even count).
double median(std::vector<double> Xs);

/// The three cut points of Python's statistics.quantiles(Xs, n=4) with its
/// default 'exclusive' method. Needs at least two samples.
std::array<double, 3> quartiles(std::vector<double> Xs);

/// (Q3 - Q1) / median: the run-to-run spread a bound is checked against.
double relativeSpread(const std::vector<double> &Xs);

/// Brent-model error: measured T_P over the greedy bound W/P + S, minus 1.
double brentError(double TpSec, double WorkSec, double SpanSec, int P);

/// Share of P workers' time not spent in user work: 1 - W / (P * T_P).
double idleFraction(double WorkSec, double TpSec, int P);

/// Safe ratio: Num / Den, 0 when Den is 0.
double ratio(double Num, double Den);

/// Steals per fork.
inline double stealRatio(int64_t Steals, int64_t Forks) {
  return ratio(static_cast<double>(Steals), static_cast<double>(Forks));
}

/// Share of the collected bytes the copying collector kept alive.
inline double gcSurvival(int64_t Copied, int64_t Reclaimed) {
  return ratio(static_cast<double>(Copied),
               static_cast<double>(Copied + Reclaimed));
}

/// Share of chunk acquisitions served from the free list.
inline double chunkReuse(int64_t Reused, int64_t FreshlyAllocated) {
  return ratio(static_cast<double>(Reused),
               static_cast<double>(Reused + FreshlyAllocated));
}

} // namespace pb

#endif // PERFBENCH_STATS_H
