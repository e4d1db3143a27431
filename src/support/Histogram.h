//===- support/Histogram.h - Log2-bucketed latency histograms --*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock-free latency histograms: 64 power-of-two buckets of atomic counts,
/// so a record() is one relaxed fetch_add — cheap enough for the scheduler's
/// steal path and the collector's pause accounting. Like Stat, instances
/// register themselves in StatRegistry (support/Stats.h), whose snapshot
/// every exporter renders. quantileFrom() is the one quantile rule for
/// log2 bucket counts: histograms and rolling windows both report through
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_HISTOGRAM_H
#define MPL_SUPPORT_HISTOGRAM_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mpl {

/// A log2-bucketed histogram of non-negative int64 samples (typically
/// nanoseconds). Bucket B holds samples whose value V satisfies
/// bit_width(V) == B, i.e. V in [2^(B-1), 2^B); bucket 0 holds V <= 0.
class Histogram {
public:
  static constexpr int NumBuckets = 64;

  explicit Histogram(const char *Name);
  ~Histogram();

  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  static int bucketOf(int64_t V) {
    if (V <= 0)
      return 0;
    return std::bit_width(static_cast<uint64_t>(V));
  }

  /// Bounds of bucket \p B, both inclusive: [2^(B-1), 2^B - 1]; bucket 0
  /// is [.., 0].
  static int64_t bucketLo(int B) {
    return B <= 0 ? 0 : static_cast<int64_t>(1) << (B - 1);
  }
  static int64_t bucketHi(int B) {
    return B <= 0 ? 0 : (static_cast<int64_t>(1) << B) - 1;
  }

  void record(int64_t V) {
    Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
  }

  int64_t bucketCount(int B) const {
    return Buckets[B].load(std::memory_order_relaxed);
  }
  int64_t count() const { return snapshot().count(); }
  int64_t sum() const { return Sum.load(std::memory_order_relaxed); }

  /// The standard latency-report quantiles. P999 (the 99.9th percentile)
  /// is what tail-latency gates care about: at serving rates of thousands
  /// of requests, P99 still hides the stalls that page an operator.
  struct Percentiles {
    int64_t P50 = 0;
    int64_t P95 = 0;
    int64_t P99 = 0;
    int64_t P999 = 0;
  };

  /// The quantile rule: quantile \p Q of the samples counted in \p Counts
  /// is the inclusive upper bound of the first bucket whose cumulative
  /// count exceeds floor(Q * total) — a coarse quantile, exact only up to
  /// bucket granularity. 0 when the array is empty; \p FallbackTail when
  /// no bucket qualifies (Q >= 1; pass the sample sum).
  static int64_t quantileFrom(const int64_t Counts[NumBuckets], double Q,
                              int64_t FallbackTail);

  /// The four report quantiles of \p Counts by quantileFrom (e.g. of the
  /// difference of two snapshots — RollingWindow's windowed percentiles).
  static Percentiles percentilesFrom(const int64_t Counts[NumBuckets],
                                     int64_t FallbackTail);

  /// quantileFrom / percentilesFrom over the current counts.
  int64_t approxQuantile(double Q) const;
  Percentiles percentiles() const;

  /// Copies the current bucket counts into \p Out (relaxed loads).
  void snapshotCounts(int64_t Out[NumBuckets]) const {
    for (int B = 0; B < NumBuckets; ++B)
      Out[B] = bucketCount(B);
  }

  /// A copy of one histogram: its name, bucket counts and sum.
  struct Snapshot {
    std::string Name;
    int64_t Counts[NumBuckets] = {};
    int64_t Sum = 0;

    int64_t count() const;
    Percentiles percentiles() const { return percentilesFrom(Counts, Sum); }
  };
  Snapshot snapshot() const;

  const char *name() const { return HistName; }

private:
  const char *HistName;
  std::atomic<int64_t> Buckets[NumBuckets] = {};
  std::atomic<int64_t> Sum{0};
};

/// A rolling-window view over a Histogram: a ring of periodic bucket
/// snapshots, so percentiles can be computed over *recent* samples (current
/// counts minus the oldest retained snapshot) instead of process lifetime.
/// A long-lived server's lifetime P99 converges to a constant and stops
/// reflecting what operators are looking at; the windowed view answers
/// "what was P99 over the last N seconds".
///
/// The owning component drives rotation from any periodic thread it already
/// has (the request server uses its accept loop's poll tick); record() on
/// the underlying Histogram stays lock-free — only rotation and reads take
/// the window's small internal mutex, which is never held across blocking
/// work.
class RollingWindow {
public:
  /// Watches \p H with \p Slots snapshots taken every \p SlotNs. The
  /// covered window converges to Slots * SlotNs once the ring fills.
  RollingWindow(const Histogram &H, int Slots, int64_t SlotNs);

  /// Takes a snapshot if at least SlotNs elapsed since the last one.
  void maybeRotate(int64_t NowNs);

  struct WindowStats {
    int64_t WindowNs = 0; ///< Time actually covered (ramp-up < full window).
    /// The samples recorded inside the window: the histogram's counts and
    /// sum minus the oldest retained snapshot's, under its name.
    Histogram::Snapshot Hist;
  };

  /// The samples recorded since the oldest retained snapshot. \p NowNs
  /// bounds WindowNs.
  WindowStats window(int64_t NowNs) const;

private:
  struct Snap {
    int64_t TimeNs = 0;
    int64_t Sum = 0;
    int64_t Counts[Histogram::NumBuckets] = {};
  };

  const Histogram &Hist;
  const size_t NumSlots;
  const int64_t SlotNs;
  mutable std::mutex Mu;
  std::vector<Snap> Ring; ///< Oldest = Ring[(Head + 1) % size] when full.
  size_t Head = 0;
  size_t Filled = 1; ///< Construction takes the first (empty-ish) snapshot.
};

} // namespace mpl

#endif // MPL_SUPPORT_HISTOGRAM_H
