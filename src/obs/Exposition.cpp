//===- obs/Exposition.cpp - Prometheus text exposition --------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Exposition.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/EmCounters.h"
#include "support/File.h"
#include "support/Histogram.h"
#include "support/Stats.h"

#include <atomic>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <vector>

using namespace mpl;
using namespace mpl::obs;

std::string obs::promSanitize(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name)
    Out += (std::isalnum(static_cast<unsigned char>(C)) != 0) ? C : '_';
  if (!Out.empty() && std::isdigit(static_cast<unsigned char>(Out[0])))
    Out.insert(Out.begin(), '_');
  return Out;
}

namespace {

void appendI64(std::string &Out, int64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRId64, V);
  Out += Buf;
}

/// Emits one complete counter or gauge series: HELP, TYPE, sample.
void emitScalar(std::string &Out, std::set<std::string> &Emitted,
                const std::string &Metric, const char *Type,
                const std::string &SourceName, int64_t Value) {
  if (!Emitted.insert(Metric).second)
    return; // name collision across families — first writer wins
  Out += "# HELP " + Metric + " mpl " + Type + " " + SourceName + "\n";
  Out += "# TYPE " + Metric + " " + Type + "\n";
  Out += Metric + " ";
  appendI64(Out, Value);
  Out += "\n";
}

/// Inclusive upper bound of log2 bucket \p B, which is exactly the
/// Prometheus `le` boundary: bucket B holds [2^(B-1), 2^B), i.e. every
/// sample <= 2^B - 1 that no earlier bucket claimed (DESIGN.md §16).
int64_t bucketLe(int B) {
  return B <= 0 ? 0 : (static_cast<int64_t>(1) << B) - 1;
}

void emitHistogram(std::string &Out, std::set<std::string> &Emitted,
                   const Histogram &H) {
  int64_t Counts[Histogram::NumBuckets];
  H.snapshotCounts(Counts);
  int64_t Total = 0;
  int HighB = -1;
  for (int B = 0; B < Histogram::NumBuckets; ++B) {
    Total += Counts[B];
    if (Counts[B] != 0)
      HighB = B;
  }
  if (Total == 0)
    return; // untouched histograms would only bloat the scrape
  std::string Metric = "mpl_" + promSanitize(H.name());
  if (!Emitted.insert(Metric).second)
    return;
  Out += "# HELP " + Metric + " mpl histogram " + H.name() + "\n";
  Out += "# TYPE " + Metric + " histogram\n";
  int64_t Cum = 0;
  for (int B = 0; B <= HighB; ++B) {
    Cum += Counts[B];
    Out += Metric + "_bucket{le=\"";
    appendI64(Out, bucketLe(B));
    Out += "\"} ";
    appendI64(Out, Cum);
    Out += "\n";
  }
  Out += Metric + "_bucket{le=\"+Inf\"} ";
  appendI64(Out, Total);
  Out += "\n" + Metric + "_sum ";
  appendI64(Out, H.sum());
  Out += "\n" + Metric + "_count ";
  appendI64(Out, Total);
  Out += "\n";
}

} // namespace

std::string obs::renderPrometheus() {
  std::string Out;
  Out.reserve(8192);
  std::set<std::string> Emitted;

  // Registered Stats: monotone event counters (em.*, net.*, rt.*, ...),
  // the paper's entanglement cost counters among them (em::Counts).
  // snapshotAll() returns one total per name (live instances summed on top
  // of retired ones), so the exposition never emits the same series twice
  // and counters survive their owning component's teardown.
  for (const auto &[Name, V] : StatRegistry::get().snapshotAll())
    emitScalar(Out, Emitted, "mpl_" + promSanitize(Name) + "_total",
               "counter", Name, V);

  // The live pinned footprint (cumulative pinned minus unpinned) is the
  // space cost operators watch, so it is exposed as a gauge.
  em::CounterSnapshot E = em::Counts.snapshot();
  emitScalar(Out, Emitted, "mpl_em_live_pinned_objects", "gauge",
             "em.live.pinned.objects", E.livePinnedObjects());
  emitScalar(Out, Emitted, "mpl_em_live_pinned_bytes", "gauge",
             "em.live.pinned.bytes", E.livePinnedBytes());

  // Registered gauges (scheduler deque depths, chunk-pool residency, net
  // queue depth/in-flight, mm pressure...) plus the trace-drop health
  // signal. Callbacks are relaxed loads by contract; first registration
  // wins on a name clash.
  {
    for (const auto &[Name, V] : MetricsSampler::get().gaugeSnapshot())
      emitScalar(Out, Emitted, "mpl_" + promSanitize(Name), "gauge", Name, V);
    emitScalar(Out, Emitted, "mpl_obs_trace_dropped", "gauge",
               "obs.trace.dropped",
               static_cast<int64_t>(Tracer::get().totalDropped()));
  }

  // Log2 histograms as cumulative-le Prometheus histograms.
  HistogramRegistry::get().forEach(
      [&](const Histogram &H) { emitHistogram(Out, Emitted, H); });

  return Out;
}

//===----------------------------------------------------------------------===//
// Exposition format checker
//===----------------------------------------------------------------------===//

namespace {

bool parseNumber(const std::string &Tok, double &Out) {
  if (Tok.empty())
    return false;
  if (Tok == "+Inf" || Tok == "Inf") {
    Out = std::numeric_limits<double>::infinity();
    return true;
  }
  char *End = nullptr;
  Out = std::strtod(Tok.c_str(), &End);
  return End && *End == '\0' && !std::isnan(Out) && !std::isinf(Out);
}

struct HistCheck {
  double LastLe = -std::numeric_limits<double>::infinity();
  double LastCum = -1.0;
  bool SeenInf = false;
  double InfCount = 0.0;
  bool HasCount = false;
  double CountVal = 0.0;
};

} // namespace

bool obs::checkExposition(const std::string &Text, std::string &Err,
                          int *SeriesOut) {
  std::map<std::string, std::string> Types; // metric -> counter|gauge|histogram
  std::set<std::string> Series;             // name + label set, verbatim
  std::map<std::string, HistCheck> Hists;
  int Samples = 0;
  int LineNo = 0;

  auto fail = [&](const std::string &Msg) {
    Err = "line " + std::to_string(LineNo) + ": " + Msg;
    return false;
  };

  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      // "# TYPE <metric> <type>" declares the family; anything else under
      // '#' (HELP, comments) is free-form.
      if (Line.compare(0, 7, "# TYPE ") == 0) {
        std::string Rest = Line.substr(7);
        size_t Sp = Rest.find(' ');
        if (Sp == std::string::npos)
          return fail("malformed TYPE line");
        std::string Metric = Rest.substr(0, Sp);
        std::string Type = Rest.substr(Sp + 1);
        if (Type != "counter" && Type != "gauge" && Type != "histogram" &&
            Type != "summary" && Type != "untyped")
          return fail("unknown type '" + Type + "' for " + Metric);
        if (!Types.emplace(Metric, Type).second)
          return fail("duplicate # TYPE for " + Metric);
      }
      continue;
    }

    // Sample line: <name>[{labels}] <value>
    size_t ValSp = Line.rfind(' ');
    if (ValSp == std::string::npos || ValSp + 1 >= Line.size())
      return fail("sample line without value: " + Line);
    std::string SeriesKey = Line.substr(0, ValSp);
    std::string ValTok = Line.substr(ValSp + 1);
    double Value = 0;
    if (!parseNumber(ValTok, Value))
      return fail("non-numeric sample value '" + ValTok + "'");
    if (!Series.insert(SeriesKey).second)
      return fail("duplicate series: " + SeriesKey);
    ++Samples;

    size_t Brace = SeriesKey.find('{');
    std::string Name =
        Brace == std::string::npos ? SeriesKey : SeriesKey.substr(0, Brace);
    std::string Labels =
        Brace == std::string::npos ? "" : SeriesKey.substr(Brace);

    // Resolve the declared family: exact name, or a histogram child
    // (_bucket/_sum/_count of a metric typed histogram).
    std::string Type;
    std::string HistBase;
    auto TyIt = Types.find(Name);
    if (TyIt != Types.end()) {
      Type = TyIt->second;
    } else {
      static const char *const Suffixes[] = {"_bucket", "_sum", "_count"};
      for (const char *Suf : Suffixes) {
        size_t SufLen = std::strlen(Suf);
        if (Name.size() > SufLen &&
            Name.compare(Name.size() - SufLen, SufLen, Suf) == 0) {
          std::string Base = Name.substr(0, Name.size() - SufLen);
          auto BaseIt = Types.find(Base);
          if (BaseIt != Types.end() && BaseIt->second == "histogram") {
            Type = "histogram";
            HistBase = Base;
            break;
          }
        }
      }
      if (Type.empty())
        return fail("sample without preceding # TYPE: " + Name);
    }

    if (Type == "counter") {
      if (Value < 0)
        return fail("negative counter " + Name + " = " + ValTok);
    } else if (Type == "histogram") {
      HistCheck &HC = Hists[HistBase];
      if (Name == HistBase + "_bucket") {
        size_t LePos = Labels.find("le=\"");
        if (LePos == std::string::npos)
          return fail("histogram bucket without le label: " + SeriesKey);
        size_t LeEnd = Labels.find('"', LePos + 4);
        if (LeEnd == std::string::npos)
          return fail("unterminated le label: " + SeriesKey);
        std::string LeTok = Labels.substr(LePos + 4, LeEnd - LePos - 4);
        double Le = 0;
        if (LeTok == "+Inf") {
          Le = std::numeric_limits<double>::infinity();
        } else {
          char *End = nullptr;
          Le = std::strtod(LeTok.c_str(), &End);
          if (!End || *End != '\0' || std::isnan(Le))
            return fail("bad le value '" + LeTok + "'");
        }
        if (Le <= HC.LastLe)
          return fail("non-increasing le buckets for " + HistBase);
        if (Value < HC.LastCum)
          return fail("non-monotone cumulative bucket counts for " + HistBase);
        if (Value < 0)
          return fail("negative bucket count for " + HistBase);
        HC.LastLe = Le;
        HC.LastCum = Value;
        if (std::isinf(Le)) {
          HC.SeenInf = true;
          HC.InfCount = Value;
        }
      } else if (Name == HistBase + "_count") {
        if (Value < 0)
          return fail("negative _count for " + HistBase);
        HC.HasCount = true;
        HC.CountVal = Value;
      }
      // _sum may legitimately be anything for signed-sample histograms.
    }
  }

  for (const auto &[Base, HC] : Hists) {
    LineNo = 0;
    if (!HC.SeenInf)
      return fail("histogram " + Base + " missing le=\"+Inf\" bucket");
    if (!HC.HasCount)
      return fail("histogram " + Base + " missing _count");
    if (HC.InfCount != HC.CountVal)
      return fail("histogram " + Base + " +Inf bucket != _count");
  }

  if (SeriesOut)
    *SeriesOut = Samples;
  Err.clear();
  return true;
}

//===----------------------------------------------------------------------===//
// Signal-driven stats dump
//===----------------------------------------------------------------------===//

namespace {

std::atomic<bool> DumpRequested{false};
std::mutex DumpPathMu;
std::string DumpPath; // guarded by DumpPathMu

void onSigUsr1(int) {
  // Async-signal-safe by construction: one relaxed store, nothing else.
  obs::requestStatsDump();
}

} // namespace

void obs::armStatsDump(const std::string &Path) {
  {
    std::lock_guard<std::mutex> G(DumpPathMu);
    DumpPath = Path;
  }
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSigUsr1;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &SA, nullptr);
}

void obs::requestStatsDump() {
  DumpRequested.store(true, std::memory_order_relaxed);
}

bool obs::serviceStatsDump() {
  if (!DumpRequested.load(std::memory_order_relaxed))
    return false;
  if (!DumpRequested.exchange(false, std::memory_order_relaxed))
    return false;
  std::string Path;
  {
    std::lock_guard<std::mutex> G(DumpPathMu);
    Path = DumpPath;
  }
  if (Path.empty())
    return false;
  return writeFile(Path, renderPrometheus());
}

std::string obs::statsDumpPath() {
  std::lock_guard<std::mutex> G(DumpPathMu);
  return DumpPath;
}
