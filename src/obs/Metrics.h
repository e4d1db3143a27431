//===- obs/Metrics.h - Cost-metric time-series sampler ---------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer: a background thread that
/// periodically snapshots the paper's cost metrics into an in-memory time
/// series. Each sample carries:
///
///  - the em.* counters of one StatRegistry::snapshot() (support/Stats.h),
///    under their registry names: entangled reads, pins by kind, pinned
///    and unpinned bytes/objects, continuation traffic;
///  - every gauge of that snapshot. The layers own their gauges (obs
///    depends only on support, so it cannot reach into the scheduler or
///    the chunk pool itself): deque depths, heap count, memory pressure,
///    the request queue, the *live* pinned bytes/objects (the paper's
///    space cost), trace drops;
///  - a live-heap-tree summary (live heap count, deepest live depth, heaps
///    per depth) counted from obs::readHeapTree(), so the series shows the
///    heap hierarchy growing and collapsing across forks and joins.
///
/// The series has no document of its own: Tracer::chromeTraceJson renders
/// each sample as Chrome counter events on the trace's timeline. MPL_OBS=trace
/// starts the sampler at a 1 ms interval; tests drive sampleOnce()/start()
/// directly.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_OBS_METRICS_H
#define MPL_OBS_METRICS_H

#include "support/Stats.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mpl {
namespace obs {

/// One point of the cost-metric time series.
struct MetricsSample {
  int64_t TimeNs = 0; ///< Steady-clock timestamp.
  /// The snapshot's em.* counters, sorted by name.
  MetricsSnapshot::Values Counters;
  /// Registered gauges, in registration order.
  MetricsSnapshot::Values Gauges;
  /// Live-heap-tree summary at the sample instant, counted from
  /// obs::readHeapTree(): how many heaps are live and the deepest live
  /// depth (0 / -1 when no runtime is alive).
  int64_t LiveHeaps = 0;
  int64_t MaxHeapDepth = -1;
  /// Live heaps per depth: DepthHist[d] heaps at depth d (empty when no
  /// runtime is alive). Sums to LiveHeaps; shows the *shape* of the task
  /// tree over time, not just its height — a wide fork fan-out and one
  /// deep spine have the same MaxHeapDepth but very different histograms.
  std::vector<int64_t> DepthHist;
};

/// Process-wide sampler. Start()/stop() manage the background thread;
/// sampleOnce() records a point synchronously (used by the thread, tests,
/// and end-of-run flushes).
class MetricsSampler {
public:
  /// The series keeps its newest MaxSamples samples (16 s at the 1 ms
  /// interval), so a long-lived traced process stays bounded the way the
  /// trace rings do: an idle server's samples alone add ~0.8 MB/s.
  static constexpr size_t MaxSamples = size_t(1) << 14;

  static MetricsSampler &get();

  /// Starts the background thread sampling every \p IntervalUs. No-op when
  /// already running (the interval is kept).
  void start(int64_t IntervalUs);

  /// Stops and joins the background thread (idempotent).
  void stop();

  bool running() const;

  /// Takes one sample now and appends it to the series.
  MetricsSample sampleOnce();

  /// Copy of the retained series, oldest first.
  std::vector<MetricsSample> series() const;
  size_t sampleCount() const;
  void clearSeries();

private:
  void threadMain(int64_t IntervalUs);
  MetricsSample recordSampleLocked();

  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::deque<MetricsSample> Series;
  std::thread Thread;
  bool Running = false;
  bool StopRequested = false;
};

} // namespace obs
} // namespace mpl

#endif // MPL_OBS_METRICS_H
