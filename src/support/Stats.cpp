//===- support/Stats.cpp - The registry of named metrics ------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include "support/Json.h"

#include <cstdio>

using namespace mpl;

Stat::Stat(const char *Name) : StatName(Name) {
  StatRegistry::get().add(this);
}

Stat::~Stat() { StatRegistry::get().remove(this); }

Gauge::Gauge(std::string Name, std::function<int64_t()> ReadFn)
    : GaugeName(std::move(Name)), Read(std::move(ReadFn)) {
  StatRegistry::get().add(this);
}

Gauge::~Gauge() { StatRegistry::get().remove(this); }

StatRegistry &StatRegistry::get() {
  // Function-local static avoids global-constructor ordering issues while
  // still giving static metrics a registry to attach to on first use.
  static StatRegistry Instance;
  return Instance;
}

void StatRegistry::resetAll() {
  std::lock_guard<std::mutex> G(Lock);
  for (Stat *S : Stats)
    S->set(0);
  Retired.clear();
}

int64_t StatRegistry::valueOf(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Lock);
  for (const Stat *S : Stats)
    if (Name == S->name())
      return S->get();
  return 0;
}

MetricsSnapshot::Values StatRegistry::countersLocked() const {
  // One entry per name: live instances summed on top of retired totals, so
  // consumers emitting keyed formats (JSON objects, Prometheus series)
  // never see duplicate keys.
  std::map<std::string, int64_t> Agg(Retired);
  for (const Stat *S : Stats)
    Agg[S->name()] += S->get();
  return {Agg.begin(), Agg.end()};
}

std::vector<std::pair<std::string, int64_t>> StatRegistry::snapshotAll() const {
  std::lock_guard<std::mutex> G(Lock);
  return countersLocked();
}

std::vector<Histogram::Snapshot> StatRegistry::histogramsLocked() const {
  std::vector<Histogram::Snapshot> Out;
  Out.reserve(Histograms.size());
  for (const Histogram *H : Histograms)
    Out.push_back(H->snapshot());
  return Out;
}

std::vector<Histogram::Snapshot> StatRegistry::histograms() const {
  std::lock_guard<std::mutex> G(Lock);
  return histogramsLocked();
}

MetricsSnapshot StatRegistry::snapshot() const {
  std::lock_guard<std::mutex> G(Lock);
  MetricsSnapshot Out;
  Out.Counters = countersLocked();
  Out.Gauges.reserve(Gauges.size());
  for (const Gauge *Ga : Gauges)
    Out.Gauges.emplace_back(Ga->name(), Ga->read());
  Out.Histograms = histogramsLocked();
  return Out;
}

std::string StatRegistry::report() const {
  MetricsSnapshot S = snapshot();
  std::string Out;
  char Line[256];
  for (const MetricsSnapshot::Values *Vals : {&S.Counters, &S.Gauges})
    for (const auto &[Name, V] : *Vals) {
      if (V == 0)
        continue;
      std::snprintf(Line, sizeof(Line), "%-32s %12lld\n", Name.c_str(),
                    static_cast<long long>(V));
      Out += Line;
    }
  for (const Histogram::Snapshot &H : S.Histograms) {
    int64_t N = H.count();
    if (N == 0)
      continue;
    Histogram::Percentiles P = H.percentiles();
    std::snprintf(Line, sizeof(Line),
                  "%-32s n=%lld sum=%lld p50<=%lld p99<=%lld\n",
                  H.Name.c_str(), static_cast<long long>(N),
                  static_cast<long long>(H.Sum),
                  static_cast<long long>(P.P50),
                  static_cast<long long>(P.P99));
    Out += Line;
    for (int B = 0; B < Histogram::NumBuckets; ++B) {
      if (H.Counts[B] == 0)
        continue;
      std::snprintf(Line, sizeof(Line), "  [>=%-13lld] %12lld\n",
                    static_cast<long long>(Histogram::bucketLo(B)),
                    static_cast<long long>(H.Counts[B]));
      Out += Line;
    }
  }
  return Out;
}

void mpl::writeJson(json::Writer &W, const MetricsSnapshot::Values &Vals) {
  W.beginObject();
  for (const auto &[Name, V] : Vals)
    W.kv(Name, V);
  W.endObject();
}

void mpl::writeJson(json::Writer &W, const Histogram::Snapshot &H) {
  Histogram::Percentiles Pct = H.percentiles();
  W.beginObject()
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
