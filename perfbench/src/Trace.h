//===- perfbench/src/Trace.h - Benchmark-side spans -------------*- C++ -*-===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its own calls into the runtime's
/// public API (Runtime construction and run, rt::par, wl:: kernels, the pml
/// front-end and VM, net::Client calls, net::Server start). They are kept
/// in memory and written once, when the run ends. The program's own trace
/// planes (MPL_TRACE, MPL_SPANS, MPL_PROFILE) stay off: these spans cost a
/// clock read per boundary and never reach inside the runtime.
///
/// A disabled SpanLog records nothing; the timed runs use one.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1;     ///< Index of the enclosing span, -1 at the root.
  uint64_t ReqId = 0;  ///< Shared by every span of one served request.
};

class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span whose parent is the innermost span this thread has open
  /// in this log, or \p Parent when given. Returns its id (-1 when off).
  int begin(const std::string &Name, uint64_t ReqId = 0, int Parent = -2);
  void end(int Id);

  /// Records an already-measured interval (e.g. a request whose start is
  /// its scheduled send time).
  int add(const std::string &Name, int64_t StartNs, int64_t EndNs,
          int Parent, uint64_t ReqId);

  std::vector<Span> spans() const;

  /// Self time per span name: each span's duration minus the part of it
  /// that its children cover (children may overlap each other).
  std::map<std::string, double> selfSeconds() const;
  /// Total (inclusive) seconds and count per span name.
  std::map<std::string, double> totalSeconds() const;
  std::map<std::string, int64_t> counts() const;

  /// Writes the spans as JSON ({"perfbench-spans/1": [...]}).
  bool write(const std::string &Path) const;

  /// RAII helper: a span over the enclosing scope.
  class Scope {
  public:
    Scope(SpanLog &L, const std::string &Name, uint64_t ReqId = 0)
        : L(L), Id(L.begin(Name, ReqId)) {}
    ~Scope() { L.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &L;
    int Id;
  };

private:
  bool Enabled;
  mutable std::mutex Lock;
  std::vector<Span> Spans; ///< Guarded by Lock.
};

/// Self time of a span of length [Start, End) whose children cover the
/// given intervals: the length minus the union of the clipped intervals.
int64_t selfTimeNs(int64_t Start, int64_t End,
                   std::vector<std::pair<int64_t, int64_t>> Children);

} // namespace pb

#endif // PERFBENCH_TRACE_H
