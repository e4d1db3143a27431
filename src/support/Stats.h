//===- support/Stats.h - The registry of named metrics ---------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one registry of named metrics: counters (Stat), gauges (Gauge, a
/// name plus a read callback) and log2 histograms (support/Histogram.h).
/// Each registers when constructed and unregisters in its destructor, and
/// every exporter renders what StatRegistry reads, under the registry's
/// own names: the Prometheus text, the stats frame, the metrics samples
/// and report() one snapshot(), the exit-time trace flush its counters and
/// histograms alone, and the bench rows its counters. Every JSON document
/// renders them through writeJson() below. The paper's cost metrics
/// (entangled reads, pins, pinned bytes, unpins) are Stats like the rest
/// (support/EmCounters.h).
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_STATS_H
#define MPL_SUPPORT_STATS_H

#include "support/Histogram.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mpl {
namespace json {
class Writer;
} // namespace json

/// A single named statistic. Instances register themselves in StatRegistry
/// on construction and unregister on destruction, so both static-duration
/// counters and dynamically constructed ones (e.g. created from worker
/// threads) are safe.
class Stat {
public:
  explicit Stat(const char *Name);
  ~Stat();

  Stat(const Stat &) = delete;
  Stat &operator=(const Stat &) = delete;

  void add(int64_t Delta) { Value.fetch_add(Delta, std::memory_order_relaxed); }
  void inc() { add(1); }

  /// Records a high-water mark: keeps the maximum of all observed values.
  void noteMax(int64_t Observed) {
    int64_t Cur = Value.load(std::memory_order_relaxed);
    while (Observed > Cur &&
           !Value.compare_exchange_weak(Cur, Observed,
                                        std::memory_order_relaxed))
      ;
  }

  int64_t get() const { return Value.load(std::memory_order_relaxed); }
  void set(int64_t V) { Value.store(V, std::memory_order_relaxed); }
  const char *name() const { return StatName; }

private:
  const char *StatName;
  std::atomic<int64_t> Value{0};
};

/// A named instantaneous value, read through \p Read at every snapshot.
/// The callback runs under the registry lock, so it must be cheap (relaxed
/// loads, at most a leaf lock) and must not construct or destroy a metric.
/// Once the destructor returns the callback never runs again; declare a
/// Gauge member after the state its callback reads.
class Gauge {
public:
  Gauge(std::string Name, std::function<int64_t()> Read);
  ~Gauge();

  Gauge(const Gauge &) = delete;
  Gauge &operator=(const Gauge &) = delete;

  const std::string &name() const { return GaugeName; }
  int64_t read() const { return Read(); }

private:
  std::string GaugeName;
  std::function<int64_t()> Read;
};

/// One read of every registered metric (StatRegistry::snapshot()).
struct MetricsSnapshot {
  using Values = std::vector<std::pair<std::string, int64_t>>;
  /// One total per counter name, sorted: as StatRegistry::snapshotAll().
  Values Counters;
  /// Every live gauge's value, in registration order.
  Values Gauges;
  /// Every live histogram, in registration order.
  std::vector<Histogram::Snapshot> Histograms;
};

/// The global registry of every Stat, Gauge and Histogram. Thread-safe:
/// registration, unregistration and snapshots all take the registry lock
/// (metrics may be constructed from worker threads while another thread
/// renders an export).
class StatRegistry {
public:
  static StatRegistry &get();

  /// Called by the metrics' constructors and destructors. remove() takes
  /// the lock, so it also waits out a snapshot in flight.
  template <typename M> void add(M *Metric) {
    std::lock_guard<std::mutex> G(Lock);
    listOf(Metric).push_back(Metric);
  }
  template <typename M> void remove(M *Metric) {
    std::lock_guard<std::mutex> G(Lock);
    auto &L = listOf(Metric);
    L.erase(std::remove(L.begin(), L.end(), Metric), L.end());
    retire(Metric);
  }

  /// Zeroes every live Stat and forgets retired totals. Gauges and
  /// histograms are untouched.
  void resetAll();

  /// Returns the current value of the statistic named \p Name, or 0 when no
  /// such statistic exists. Live instances only — retired totals are not
  /// included, so per-component code can probe whether an owner is alive.
  int64_t valueOf(const std::string &Name) const;

  /// One (name, total) pair per distinct counter name, sorted, under the
  /// registry lock. Totals sum every live instance plus the final values of
  /// retired ones: counters are process-lifetime monotone, so a component
  /// tearing down (e.g. a net::Server unregistering its net.* Stats) must
  /// not make its events vanish from exports flushed later (trace counters
  /// block, Prometheus exposition, the SIGUSR1 stats dump at exit).
  std::vector<std::pair<std::string, int64_t>> snapshotAll() const;

  /// A copy of every live histogram, in registration order.
  std::vector<Histogram::Snapshot> histograms() const;

  /// Counters (as snapshotAll()), every gauge's value and the histograms
  /// (as histograms()), all read under one hold of the registry lock.
  /// Exports flushed at exit read snapshotAll() / histograms() instead, so
  /// no gauge callback runs after what it reads may have been destroyed.
  MetricsSnapshot snapshot() const;

  /// Renders snapshot() as text: one "name value" line per non-zero
  /// counter or gauge, then each non-empty histogram (count, sum, p50/p99
  /// estimate, one line per non-empty bucket).
  std::string report() const;

private:
  std::vector<Stat *> &listOf(Stat *) { return Stats; }
  std::vector<Gauge *> &listOf(Gauge *) { return Gauges; }
  std::vector<Histogram *> &listOf(Histogram *) { return Histograms; }
  /// A destroyed Stat's final value stays in its name's total.
  void retire(Stat *S) {
    if (int64_t V = S->get())
      Retired[S->name()] += V;
  }
  void retire(const void *) {}
  MetricsSnapshot::Values countersLocked() const;
  std::vector<Histogram::Snapshot> histogramsLocked() const;

  mutable std::mutex Lock;
  std::vector<Stat *> Stats;
  std::vector<Gauge *> Gauges;
  std::vector<Histogram *> Histograms;
  /// Final values of destroyed Stats, keyed by name; folded into
  /// snapshotAll() and cleared by resetAll().
  std::map<std::string, int64_t> Retired;
};

/// The one JSON rendering of registry reads; each call writes one value,
/// and the caller writes its key. Counters or gauges become one object,
/// name -> value.
void writeJson(json::Writer &W, const MetricsSnapshot::Values &Vals);

/// One histogram: name, count, sum, the p50/p95/p99/p999 estimates and
/// its non-empty buckets as {"lo", "n"} pairs.
void writeJson(json::Writer &W, const Histogram::Snapshot &H);

} // namespace mpl

#endif // MPL_SUPPORT_STATS_H
