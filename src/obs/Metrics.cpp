//===- obs/Metrics.cpp - Cost-metric time-series sampler ------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/Exposition.h"
#include "obs/Profile.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/File.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>

using namespace mpl;
using namespace mpl::obs;

MetricsSampler &MetricsSampler::get() {
  static MetricsSampler Instance;
  return Instance;
}

int MetricsSampler::registerGauge(std::string Name,
                                  std::function<int64_t()> Fn) {
  std::lock_guard<std::mutex> G(Mu);
  int Id = NextGaugeId++;
  Gauges.push_back(Gauge{Id, std::move(Name), std::move(Fn)});
  return Id;
}

void MetricsSampler::unregisterGauge(int Id) {
  // Taking Mu also excludes an in-flight sample: after this returns the
  // callback will never run again, so its captures may be destroyed.
  std::lock_guard<std::mutex> G(Mu);
  Gauges.erase(std::remove_if(Gauges.begin(), Gauges.end(),
                              [Id](const Gauge &Ga) { return Ga.Id == Id; }),
               Gauges.end());
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
    // Service a pending MPL_STATS_DUMP request outside Mu: the exposition
    // renderer re-enters gaugeSnapshot(), which takes Mu.
    L.unlock();
    serviceStatsDump();
    L.lock();
  }
}

MetricsSample MetricsSampler::sampleOnce() {
  std::lock_guard<std::mutex> G(Mu);
  return recordSampleLocked();
}

std::vector<std::pair<std::string, int64_t>>
MetricsSampler::gaugeSnapshot() const {
  std::lock_guard<std::mutex> G(Mu);
  std::vector<std::pair<std::string, int64_t>> Out;
  Out.reserve(Gauges.size());
  for (const Gauge &Ga : Gauges)
    Out.emplace_back(Ga.Name, Ga.Fn());
  return Out;
}

MetricsSample MetricsSampler::recordSampleLocked() {
  MetricsSample S;
  S.TimeNs = nowNs();
  S.Em = em::Counts.snapshot();
  S.Gauges.reserve(Gauges.size() + 1);
  for (const Gauge &Ga : Gauges)
    S.Gauges.emplace_back(Ga.Name, Ga.Fn());
  // Trace-ring overflow is a first-class health signal: a sample series
  // with rising drops means the capture window was too small for the
  // workload (tools/trace_check fails on it unless --allow-drops).
  // Tracer::Mu nests under Mu here; the tracer never takes Mu.
  S.Gauges.emplace_back("obs.trace.dropped",
                        static_cast<int64_t>(Tracer::get().totalDropped()));
  // Heap-tree summary: the walk is gauge loads only; keeping just the
  // parsed summary keeps per-sample storage flat. HeapTreeMu nests under
  // Mu here and nowhere takes Mu, so the order is acyclic.
  json::Value Tree;
  std::string Err;
  if (json::parse(snapshotHeapTree(), Tree, Err)) {
    if (const json::Value *Live = Tree.field("live_heaps"))
      S.LiveHeaps = static_cast<int64_t>(Live->NumV);
    if (const json::Value *Heaps = Tree.field("heaps"))
      if (Heaps->isArray())
        for (const json::Value &H : Heaps->Items)
          if (const json::Value *D = H.field("depth")) {
            int64_t Depth = static_cast<int64_t>(D->NumV);
            S.MaxHeapDepth = std::max(S.MaxHeapDepth, Depth);
            if (Depth >= 0) {
              if (S.DepthHist.size() <= static_cast<size_t>(Depth))
                S.DepthHist.resize(static_cast<size_t>(Depth) + 1, 0);
              ++S.DepthHist[static_cast<size_t>(Depth)];
            }
          }
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
  HistogramRegistry::get().forEach([&](const Histogram &H) {
    Histogram::Percentiles Pct = H.percentiles();
    W.newline()
        .beginObject()
        .kv("name", H.name())
        .kv("count", H.count())
        .kv("sum", H.sum())
        .kv("p50", Pct.P50)
        .kv("p95", Pct.P95)
        .kv("p99", Pct.P99)
        .kv("p999", Pct.P999)
        .key("buckets")
        .beginArray();
    for (int B = 0; B < Histogram::NumBuckets; ++B)
      if (int64_t C = H.bucketCount(B))
        W.beginObject().kv("lo", Histogram::bucketLo(B)).kv("n", C).endObject();
    W.endArray().endObject();
  });
  // A final live-heap-tree snapshot (empty when no runtime is alive); the
  // sampler thread may also take these mid-run via obs::snapshotHeapTree.
  W.newline().endArray().key("heap_tree");
  writeHeapTree(W);
  W.endObject().newline();
  return W.take();
}

bool MetricsSampler::writeJson(const std::string &P) const {
  return writeFile(P, jsonDump());
}
