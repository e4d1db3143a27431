//===- obs/Exposition.h - Prometheus text exposition -----------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pull side of the live introspection plane (DESIGN.md §16): renders
/// one StatRegistry snapshot (support/Stats.h) — every counter, gauge and
/// log2 histogram — as Prometheus text exposition format, so a scrape of
/// the request server's stats frame (`format=prom`) — or a signal-driven
/// file dump — drops straight into a Prometheus/Grafana stack. The
/// renderer names no series itself: what the layers register is what it
/// emits.
///
/// Mapping rules:
///  - names are sanitized to [a-zA-Z0-9_] and prefixed `mpl_`
///    (`net.resp.ok` → `mpl_net_resp_ok_total`);
///  - Stats (the em cost counters among them) are monotone `counter`
///    series (`_total`);
///  - Gauges (deque depths, live pinned bytes, pressure level, trace
///    drops, ...) are `gauge` series;
///  - log2 histograms become `histogram` series: bucket B covers
///    [2^(B-1), 2^B), so its *inclusive* upper bound is 2^B - 1, which is
///    exactly a Prometheus `le` boundary. Counts are cumulated up to the
///    highest non-empty bucket, then `le="+Inf"`, `_sum`, `_count`.
///
/// Everything read is a relaxed atomic or a gauge callback run under the
/// registry's own short-lived lock (gauges take at most a leaf lock) — no
/// scheduler or executor lock is held, so rendering is safe from a
/// connection thread while the runtime is under load.
///
/// With `MPL_OBS_DIR` set, SIGUSR1 asks for a dump to
/// `MPL_OBS_DIR/stats.prom`: the handler is one relaxed store
/// (async-signal-safe); any periodic thread that calls serviceStatsDump()
/// (the metrics sampler thread and the request server's accept loop both
/// do) notices the flag and writes the exposition file.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_OBS_EXPOSITION_H
#define MPL_OBS_EXPOSITION_H

#include <string>

namespace mpl {
namespace obs {

/// Renders the full Prometheus text exposition of the process: every
/// registered counter, gauge and histogram.
std::string renderPrometheus();

/// Sanitizes \p Name into a Prometheus metric name (no `mpl_` prefix, no
/// type suffix) — exposed for tests and label construction.
std::string promSanitize(const std::string &Name);

/// Validates Prometheus text exposition \p Text: every sample line must be
/// numeric and preceded by a `# TYPE` for its metric, no duplicate series
/// (name + label set), histogram `le` buckets strictly increasing with
/// non-decreasing cumulative counts ending at `+Inf` (== `_count`), and
/// counter samples non-negative. On failure returns false and describes
/// the first problem in \p Err. \p SeriesOut (optional) receives the
/// number of sample lines checked.
bool checkExposition(const std::string &Text, std::string &Err,
                     int *SeriesOut = nullptr);

//===----------------------------------------------------------------------===//
// Signal-driven stats dump (SIGUSR1 -> MPL_OBS_DIR/stats.prom)
//===----------------------------------------------------------------------===//

/// Remembers \p Path and installs a SIGUSR1 handler that calls
/// requestStatsDump(). Call once, before threads that might service the
/// request exist (obs::initFromEnv does this when MPL_OBS_DIR is set).
void armStatsDump(const std::string &Path);

/// Flags that a dump is wanted. One relaxed atomic store:
/// async-signal-safe, callable from any context.
void requestStatsDump();

/// If a dump was requested (and a path is armed), writes renderPrometheus()
/// to the armed path and clears the flag. Returns true iff a file was
/// written. Periodic threads call this; it is cheap when idle.
bool serviceStatsDump();

} // namespace obs
} // namespace mpl

#endif // MPL_OBS_EXPOSITION_H
