//===- obs/Metrics.cpp - Cost-metric time-series sampler ------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/Exposition.h"
#include "obs/HeapTree.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>

using namespace mpl;
using namespace mpl::obs;

MetricsSampler &MetricsSampler::get() {
  static MetricsSampler Instance;
  return Instance;
}

void MetricsSampler::start(int64_t IntervalUs) {
  std::lock_guard<std::mutex> G(Mu);
  if (Running)
    return;
  Running = true;
  StopRequested = false;
  Thread = std::thread([this, IntervalUs] { threadMain(IntervalUs); });
}

void MetricsSampler::stop() {
  {
    std::lock_guard<std::mutex> G(Mu);
    if (!Running)
      return;
    StopRequested = true;
  }
  Cv.notify_all();
  Thread.join();
  std::lock_guard<std::mutex> G(Mu);
  Running = false;
}

bool MetricsSampler::running() const {
  std::lock_guard<std::mutex> G(Mu);
  return Running;
}

void MetricsSampler::threadMain(int64_t IntervalUs) {
  std::unique_lock<std::mutex> L(Mu);
  while (!StopRequested) {
    Cv.wait_for(L, std::chrono::microseconds(IntervalUs),
                [this] { return StopRequested; });
    if (StopRequested)
      break;
    recordSampleLocked();
    // Service a pending SIGUSR1 stats dump outside Mu: rendering and
    // writing the file need not hold up series() readers.
    L.unlock();
    serviceStatsDump();
    L.lock();
  }
}

MetricsSample MetricsSampler::sampleOnce() {
  std::lock_guard<std::mutex> G(Mu);
  return recordSampleLocked();
}

MetricsSample MetricsSampler::recordSampleLocked() {
  MetricsSample S;
  S.TimeNs = nowNs();
  // The registry lock and HeapTreeMu each nest under Mu here, and nothing
  // that holds either takes Mu, so the order is acyclic.
  MetricsSnapshot Reg = StatRegistry::get().snapshot();
  for (auto &C : Reg.Counters)
    if (C.first.starts_with("em."))
      S.Counters.push_back(std::move(C));
  S.Gauges = std::move(Reg.Gauges);
  HeapTree Tree;
  readHeapTree(Tree);
  S.LiveHeaps = static_cast<int64_t>(Tree.Heaps.size());
  for (const HeapRecord &H : Tree.Heaps) {
    S.MaxHeapDepth = std::max(S.MaxHeapDepth, H.Depth);
    if (S.DepthHist.size() <= static_cast<size_t>(H.Depth))
      S.DepthHist.resize(static_cast<size_t>(H.Depth) + 1, 0);
    ++S.DepthHist[static_cast<size_t>(H.Depth)];
  }
  if (Series.size() == MaxSamples)
    Series.pop_front();
  Series.push_back(S);
  return S;
}

std::vector<MetricsSample> MetricsSampler::series() const {
  std::lock_guard<std::mutex> G(Mu);
  return {Series.begin(), Series.end()};
}

size_t MetricsSampler::sampleCount() const {
  std::lock_guard<std::mutex> G(Mu);
  return Series.size();
}

void MetricsSampler::clearSeries() {
  std::lock_guard<std::mutex> G(Mu);
  Series.clear();
}
