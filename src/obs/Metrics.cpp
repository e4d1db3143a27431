//===- obs/Metrics.cpp - Cost-metric time-series sampler ------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/Exposition.h"
#include "obs/Profile.h"
#include "obs/Span.h"
#include "support/File.h"
#include "support/Json.h"
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

void MetricsSampler::start(int64_t IntervalUs, std::string P) {
  std::lock_guard<std::mutex> G(Mu);
  if (!P.empty())
    Path = std::move(P);
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
    // Service a pending MPL_STATS_DUMP request outside Mu: rendering and
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
  S.Em = em::Counts.snapshot();
  // The registry lock and HeapTreeMu each nest under Mu here, and nothing
  // that holds either takes Mu, so the order is acyclic.
  S.Gauges = StatRegistry::get().snapshot().Gauges;
  HeapTree Tree;
  readHeapTree(Tree);
  S.LiveHeaps = static_cast<int64_t>(Tree.Heaps.size());
  for (const HeapRecord &H : Tree.Heaps) {
    S.MaxHeapDepth = std::max(S.MaxHeapDepth, H.Depth);
    if (S.DepthHist.size() <= static_cast<size_t>(H.Depth))
      S.DepthHist.resize(static_cast<size_t>(H.Depth) + 1, 0);
    ++S.DepthHist[static_cast<size_t>(H.Depth)];
  }
  // Task-depth throughput from the span ledger (atomic loads only; no lock
  // ordering concern — the ledger's Mu is never involved).
  S.TaskDepthHist = SpanLedger::taskDepthHistogram();
  Series.push_back(S);
  return S;
}

std::vector<MetricsSample> MetricsSampler::series() const {
  std::lock_guard<std::mutex> G(Mu);
  return Series;
}

size_t MetricsSampler::sampleCount() const {
  std::lock_guard<std::mutex> G(Mu);
  return Series.size();
}

void MetricsSampler::clearSeries() {
  std::lock_guard<std::mutex> G(Mu);
  Series.clear();
}

std::string MetricsSampler::jsonDump() const {
  std::vector<MetricsSample> Snap = series();
  json::Writer W;
  W.beginObject().key("samples").beginArray();
  for (const MetricsSample &S : Snap) {
    W.newline().beginObject().kv("t_ns", S.TimeNs).key("em");
    em::writeJson(W, S.Em);
    W.key("gauges").beginObject();
    for (const auto &[Name, V] : S.Gauges)
      W.kv(Name, V);
    W.endObject()
        .key("heaps")
        .beginObject()
        .kv("live", S.LiveHeaps)
        .kv("max_depth", S.MaxHeapDepth)
        .key("depth_hist")
        .beginArray();
    for (int64_t N : S.DepthHist)
      W.value(N);
    W.endArray().key("task_depth_hist").beginArray();
    for (int64_t N : S.TaskDepthHist)
      W.value(N);
    W.endArray().endObject().endObject();
  }
  W.newline().endArray().key("histograms").beginArray();
  for (const Histogram::Snapshot &H : StatRegistry::get().histograms()) {
    Histogram::Percentiles Pct = H.percentiles();
    W.newline()
        .beginObject()
        .kv("name", H.Name)
        .kv("count", H.count())
        .kv("sum", H.Sum)
        .kv("p50", Pct.P50)
        .kv("p95", Pct.P95)
        .kv("p99", Pct.P99)
        .kv("p999", Pct.P999)
        .key("buckets")
        .beginArray();
    for (int B = 0; B < Histogram::NumBuckets; ++B)
      if (int64_t C = H.Counts[B])
        W.beginObject().kv("lo", Histogram::bucketLo(B)).kv("n", C).endObject();
    W.endArray().endObject();
  }
  // A final live-heap-tree snapshot (empty when no runtime is alive).
  W.newline().endArray().key("heap_tree");
  writeHeapTree(W);
  W.endObject().newline();
  return W.take();
}

bool MetricsSampler::writeJson(const std::string &P) const {
  return writeFile(P, jsonDump());
}
