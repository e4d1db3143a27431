//===- tests/obs_test.cpp - Tracer, metrics sampler and exporter tests ----===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Covers the observability layer in isolation (src/obs depends only on
// support, so these tests drive the Tracer / MetricsSampler directly):
// ring wrap and the dropped-event counter, per-thread event ordering, the
// well-formedness of the Chrome trace-event export (parsed back with
// support/Json) including the sampler series as counter events, sampler
// monotonicity, the trace plane's pin-lifetime clock, the MPL_OBS plane
// list, and the everything-disabled smoke.
//
//===----------------------------------------------------------------------===//

#include "chaos/ChaosSchedule.h"
#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "hh/Heap.h"
#include "obs/Exposition.h"
#include "obs/Metrics.h"
#include "obs/HeapTree.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "workloads/Entangled.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace mpl;

namespace {

/// Every test arms/disarms the process-wide tracer; serialize the state.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::SpanLedger::get().disable();
    obs::Tracer::get().disable();
    obs::Tracer::get().clear();
    obs::MetricsSampler::get().stop();
    obs::MetricsSampler::get().clearSeries();
  }
  void TearDown() override { SetUp(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Disabled path
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, DisabledEmitsNothing) {
  ASSERT_FALSE(obs::traceEnabled());
  for (int I = 0; I < 1000; ++I)
    obs::emit(obs::Ev::Fork, static_cast<uint64_t>(I));
  EXPECT_EQ(obs::Tracer::get().totalEvents(), 0u);
  EXPECT_EQ(obs::Tracer::get().totalDropped(), 0u);
}

TEST_F(ObsTest, EnableDisableRoundTrip) {
  obs::Tracer::get().enable();
  EXPECT_TRUE(obs::traceEnabled());
  obs::emit(obs::Ev::Fork);
  obs::Tracer::get().disable();
  EXPECT_FALSE(obs::traceEnabled());
  obs::emit(obs::Ev::Fork); // Must be dropped at the gate.
  EXPECT_EQ(obs::Tracer::get().totalEvents(), 1u);
}

//===----------------------------------------------------------------------===//
// Ring wrap / overflow
//===----------------------------------------------------------------------===//

namespace {
/// Emits \p N fork events on the calling thread's track.
void emitForks(uint64_t N) {
  for (uint64_t I = 0; I < N; ++I)
    obs::emit(obs::Ev::Fork);
}
} // namespace

TEST_F(ObsTest, RingWrapKeepsNewestAndCountsDropped) {
  obs::Tracer::get().enable();
  const uint64_t Cap = obs::TraceBuffer::Capacity;
  const uint64_t Total = Cap * 2 + 17;
  for (uint64_t I = 0; I < Total; ++I)
    obs::emit(obs::Ev::Pin, /*A0=*/I);
  obs::Tracer::get().disable();

  obs::TraceBuffer *B = obs::Tracer::get().threadBuffer();
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->capacity(), Cap);
  EXPECT_EQ(B->head(), Total);
  EXPECT_EQ(B->size(), Cap);
  EXPECT_EQ(B->dropped(), Total - Cap);
  EXPECT_EQ(obs::Tracer::get().totalDropped(), Total - Cap);

  // The retained window is exactly the newest Cap events, uncorrupted and
  // in emission order.
  uint64_t Expect = Total - Cap, Bad = 0;
  for (uint64_t I = B->first(); I < B->head(); ++I, ++Expect) {
    const obs::TraceEvent &E = B->at(I);
    Bad += E.Kind != static_cast<uint16_t>(obs::Ev::Pin) || E.Arg0 != Expect;
  }
  EXPECT_EQ(Bad, 0u);
}

//===----------------------------------------------------------------------===//
// Per-thread ordering and track attribution
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, PerThreadEventsStayOrdered) {
  obs::Tracer::get().enable();
  const int NThreads = 4, PerThread = 2000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < NThreads; ++T)
    Ts.emplace_back([T] {
      obs::labelCurrentThread(T);
      for (int I = 0; I < PerThread; ++I)
        obs::emit(obs::Ev::Steal, static_cast<uint64_t>(I),
                  static_cast<uint64_t>(T));
    });
  for (std::thread &T : Ts)
    T.join();
  obs::Tracer::get().disable();

  // One buffer per thread, each with its own monotone sequence and
  // non-decreasing timestamps.
  int BuffersSeen = 0;
  obs::Tracer::get().forEachBuffer([&](const obs::TraceBuffer &B) {
    if (B.head() == 0)
      return; // The main thread's buffer, if any.
    ++BuffersSeen;
    ASSERT_EQ(B.size(), static_cast<uint64_t>(PerThread));
    int64_t LastTs = 0;
    uint64_t Seq = 0;
    for (uint64_t I = B.first(); I < B.head(); ++I, ++Seq) {
      const obs::TraceEvent &E = B.at(I);
      EXPECT_EQ(E.Arg0, Seq);
      EXPECT_EQ(E.Arg1, static_cast<uint64_t>(B.TrackId));
      EXPECT_GE(E.TimeNs, LastTs);
      LastTs = E.TimeNs;
    }
  });
  EXPECT_EQ(BuffersSeen, NThreads);
}

//===----------------------------------------------------------------------===//
// Chrome trace export
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, ChromeTraceJsonParsesBack) {
  obs::Tracer::get().enable();
  obs::labelCurrentThread(0);
  obs::emit(obs::Ev::GcBegin, 2);
  obs::emit(obs::Ev::GcMarkBegin);
  obs::emit(obs::Ev::GcMarkEnd, 5);
  obs::emit(obs::Ev::GcEnd, 1024, 4096);
  obs::emit(obs::Ev::Steal, 3);
  obs::emit(obs::Ev::Pin, 64, 1);
  obs::Tracer::get().disable();

  std::string Text = obs::Tracer::get().chromeTraceJson();
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(Text, Doc, Err)) << Err << "\n" << Text;
  ASSERT_EQ(Doc.K, json::Value::Kind::Object);

  const json::Value *Evs = Doc.field("traceEvents");
  ASSERT_NE(Evs, nullptr);
  ASSERT_EQ(Evs->K, json::Value::Kind::Array);

  int NBegin = 0, NEnd = 0, NInstant = 0, NMeta = 0;
  bool SawSteal = false, SawPin = false, SawGcSlice = false;
  for (const json::Value &E : Evs->Items) {
    const json::Value *Ph = E.field("ph");
    ASSERT_NE(Ph, nullptr);
    ASSERT_NE(E.field("pid"), nullptr);
    ASSERT_NE(E.field("tid"), nullptr);
    if (Ph->StrV == "M") {
      ++NMeta;
      continue;
    }
    ASSERT_NE(E.field("ts"), nullptr);
    ASSERT_NE(E.field("name"), nullptr);
    if (Ph->StrV == "B")
      ++NBegin;
    else if (Ph->StrV == "E")
      ++NEnd;
    else if (Ph->StrV == "i")
      ++NInstant;
    if (E.field("name")->StrV == "steal")
      SawSteal = true;
    if (E.field("name")->StrV == "pin")
      SawPin = true;
    if (E.field("name")->StrV == "gc" && Ph->StrV == "B")
      SawGcSlice = true;
  }
  EXPECT_EQ(NBegin, NEnd) << "unbalanced duration slices break Perfetto";
  EXPECT_EQ(NBegin, 2); // gc + gc_mark.
  EXPECT_EQ(NInstant, 2); // steal + pin.
  EXPECT_GE(NMeta, 1);    // thread_name for worker 0.
  EXPECT_TRUE(SawSteal);
  EXPECT_TRUE(SawPin);
  EXPECT_TRUE(SawGcSlice);
}

namespace {

/// Runs fib at two workers with the span ledger armed, so the run steals,
/// and returns the ledger's summary of it.
obs::SpanRunSummary recordFib(int N) {
  obs::SpanLedger::get().enable();
  {
    rt::Config Cfg;
    Cfg.NumWorkers = 2;
    rt::Runtime R(Cfg);
    R.run([N] { wl::fib(N, 5); });
  }
  return obs::SpanLedger::get().lastRun();
}

} // namespace

TEST_F(ObsTest, ChromeTraceFlowEventsExport) {
  // The fork edges are derived from the ledger's parent ids at export: a
  // task_flow pair per child, bound by (cat, name, id = child id), whose
  // start sits on the parent's track and whose finish (bp:"e", binding
  // the enclosing slice) on the child's, where the child's slice starts.
  obs::SpanRunSummary Sum = recordFib(14);
  std::string Text = obs::Tracer::get().chromeTraceJson();
  obs::SpanLedger::get().disable();
  std::map<uint64_t, const obs::SpanTaskOut *> ById;
  for (const obs::SpanTaskOut &T : Sum.AllTasks)
    ById[T.Id] = &T;

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(Text, Doc, Err)) << Err;
  size_t NOut = 0, NIn = 0;
  for (const json::Value &E : Doc.field("traceEvents")->Items) {
    const std::string &P = E.field("ph")->StrV;
    if (P != "s" && P != "f")
      continue;
    EXPECT_EQ(E.field("name")->StrV, "task_flow");
    ASSERT_NE(E.field("cat"), nullptr);
    EXPECT_EQ(E.field("cat")->StrV, "spans");
    ASSERT_TRUE(E.field("id") && E.field("id")->isNumber());
    auto It = ById.find(static_cast<uint64_t>(E.field("id")->NumV));
    ASSERT_NE(It, ById.end());
    const obs::SpanTaskOut &Child = *It->second;
    const obs::SpanTaskOut &Parent = *ById.at(Child.Parent);
    if (P == "s") {
      ++NOut;
      EXPECT_EQ(E.field("tid")->NumV, Parent.Worker);
    } else {
      ++NIn;
      EXPECT_EQ(E.field("tid")->NumV, Child.Worker);
      ASSERT_NE(E.field("bp"), nullptr);
      EXPECT_EQ(E.field("bp")->StrV, "e");
    }
  }
  ASSERT_GT(Sum.Tasks, 1);
  EXPECT_EQ(NOut, static_cast<size_t>(Sum.Tasks - 1));
  EXPECT_EQ(NIn, NOut);

  // Disarmed, the same trace holds no task slice and no task flow.
  Text = obs::Tracer::get().chromeTraceJson();
  EXPECT_EQ(Text.find("\"task\""), std::string::npos);
  EXPECT_EQ(Text.find("task_flow"), std::string::npos);
  EXPECT_EQ(Text.find("\"spans\""), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceRoundTripMatchesBufferCounts) {
  // A real workload with the tracer and the span ledger armed: every
  // retained event survives the export with its phase intact (per-kind
  // ring counts equal the JSON's per-phase counts), and every task of the
  // ledger's run is one "X" slice carrying its heap depth and its end
  // (ts + dur) on the trace's clock.
  obs::Tracer::get().enable();
  obs::SpanRunSummary Sum = recordFib(18);
  obs::Tracer::get().disable();
  ASSERT_EQ(obs::Tracer::get().totalDropped(), 0u);

  uint64_t BufForks = 0, BufStrands = 0;
  obs::Tracer::get().forEachBuffer([&](const obs::TraceBuffer &B) {
    for (uint64_t I = B.first(); I < B.head(); ++I) {
      uint16_t K = B.at(I).Kind;
      BufForks += K == static_cast<uint16_t>(obs::Ev::Fork);
      BufStrands += K == static_cast<uint16_t>(obs::Ev::StrandBegin);
    }
  });
  ASSERT_GT(BufForks, 0u);

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(obs::Tracer::get().chromeTraceJson(), Doc, Err))
      << Err;
  obs::SpanLedger::get().disable();
  std::map<uint64_t, const obs::SpanTaskOut *> ById;
  for (const obs::SpanTaskOut &T : Sum.AllTasks)
    ById[T.Id] = &T;
  uint64_t NForks = 0, NStrands = 0, NTasks = 0;
  double FirstTaskUs = -1;
  for (const json::Value &E : Doc.field("traceEvents")->Items) {
    const std::string &P = E.field("ph")->StrV;
    const std::string &Name = E.field("name")->StrV;
    NForks += P == "i" && Name == "fork";
    NStrands += P == "B" && Name == "strand";
    if (P != "X")
      continue;
    ++NTasks;
    const json::Value *A = E.field("args");
    const obs::SpanTaskOut &T =
        *ById.at(static_cast<uint64_t>(A->field("id")->NumV));
    EXPECT_EQ(A->field("depth")->NumV, T.HeapDepth);
    EXPECT_GE(E.field("dur")->NumV, 0);
    if (FirstTaskUs < 0)
      FirstTaskUs = E.field("ts")->NumV - T.StartNs / 1000.0;
    // One clock: every slice sits at its recorded start, shifted by the
    // trace's base like every event.
    EXPECT_NEAR(E.field("ts")->NumV - T.StartNs / 1000.0, FirstTaskUs, 1e-3);
  }
  EXPECT_EQ(NForks, BufForks);
  EXPECT_EQ(NStrands, BufStrands);
  EXPECT_EQ(NTasks, static_cast<uint64_t>(Sum.Tasks));
}

TEST_F(ObsTest, ExporterDropsOrphanedEndEvents) {
  // A wrapped ring can retain an End whose Begin was overwritten; the
  // exporter must drop it (Perfetto rejects E-without-B timelines). The
  // full-ring export is searched as text rather than parsed.
  obs::Tracer::get().enable();
  obs::emit(obs::Ev::GcBegin); // Will be overwritten...
  obs::emit(obs::Ev::GcEnd);   // ...leaving this End orphaned.
  emitForks(obs::TraceBuffer::Capacity - 1); // Wraps by one: GcBegin is gone.
  obs::Tracer::get().disable();
  ASSERT_EQ(obs::Tracer::get().totalDropped(), 1u);

  std::string Text = obs::Tracer::get().chromeTraceJson();
  EXPECT_EQ(Text.find("\"ph\":\"E\""), std::string::npos)
      << "orphaned E survived export";
  EXPECT_NE(Text.find("\"name\":\"fork\""), std::string::npos);
}

TEST_F(ObsTest, DroppedCountIsExported) {
  obs::Tracer::get().enable();
  emitForks(obs::TraceBuffer::Capacity + 12);
  obs::Tracer::get().disable();

  std::string Text = obs::Tracer::get().chromeTraceJson();
  EXPECT_NE(Text.find("\"dropped_events\":\"12\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Metrics sampler
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, TraceDroppedGaugeIsSampled) {
  // Every sample carries the tracer's cumulative drop counter so a metrics
  // series reveals *when* a trace went gappy, not just that it did.
  obs::Tracer::get().enable();
  emitForks(obs::TraceBuffer::Capacity + 12);
  obs::Tracer::get().disable();

  auto &S = obs::MetricsSampler::get();
  S.sampleOnce();
  std::vector<obs::MetricsSample> Series = S.series();
  ASSERT_FALSE(Series.empty());
  bool Found = false;
  for (const auto &[Name, V] : Series.back().Gauges)
    if (Name == "obs.trace.dropped") {
      Found = true;
      EXPECT_EQ(V, 12);
    }
  EXPECT_TRUE(Found) << "obs.trace.dropped gauge missing from sample";
}

TEST_F(ObsTest, SamplerSeriesIsMonotoneAndGaugesAreRead) {
  auto &S = obs::MetricsSampler::get();
  std::atomic<int64_t> Depth{0};
  {
    Gauge G("test.depth", [&] { return Depth.load(); });
    Depth = 3;
    S.sampleOnce();
    Depth = 7;
    S.sampleOnce();
    Depth = 7;
    S.sampleOnce();
  }

  std::vector<obs::MetricsSample> Series = S.series();
  ASSERT_EQ(Series.size(), 3u);
  int64_t LastTs = 0;
  for (const obs::MetricsSample &M : Series) {
    EXPECT_GE(M.TimeNs, LastTs) << "sampler timestamps must be monotone";
    LastTs = M.TimeNs;
  }
  auto gauge = [](const obs::MetricsSample &M, const std::string &N) {
    for (const auto &[Name, V] : M.Gauges)
      if (Name == N)
        return V;
    return int64_t(-1);
  };
  EXPECT_EQ(gauge(Series[0], "test.depth"), 3);
  EXPECT_EQ(gauge(Series[1], "test.depth"), 7);
  EXPECT_EQ(gauge(Series[2], "test.depth"), 7);
}

TEST_F(ObsTest, BackgroundSamplerCollectsAndStops) {
  auto &S = obs::MetricsSampler::get();
  S.start(/*IntervalUs=*/200);
  EXPECT_TRUE(S.running());
  while (S.sampleCount() < 3)
    std::this_thread::yield();
  S.stop();
  EXPECT_FALSE(S.running());
  size_t N = S.sampleCount();
  EXPECT_GE(N, 3u);
  // Stopped means stopped: the count may not advance further.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(S.sampleCount(), N);
}

namespace {
/// The counter ("C") events named \p Name in a parsed trace, in order.
std::vector<const json::Value *> counterEvents(const json::Value &Doc,
                                               const std::string &Name) {
  std::vector<const json::Value *> Out;
  for (const json::Value &E : Doc.field("traceEvents")->Items)
    if (E.field("ph")->StrV == "C" && E.field("name")->StrV == Name)
      Out.push_back(&E);
  return Out;
}
} // namespace

TEST_F(ObsTest, TraceCarriesSamplesAndHistograms) {
  Histogram H("obs.test.latency.ns");
  H.record(100);
  H.record(100000);
  obs::MetricsSampler::get().sampleOnce();

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(obs::Tracer::get().chromeTraceJson(), Doc, Err))
      << Err;
  std::vector<const json::Value *> Em = counterEvents(Doc, "em");
  ASSERT_EQ(Em.size(), 1u);
  const json::Value *Args = Em[0]->field("args");
  ASSERT_NE(Args, nullptr);
  ASSERT_NE(Args->field("em.pinned.bytes"), nullptr);
  EXPECT_GE(Em[0]->field("ts")->NumV, 0);

  const json::Value *Hists = Doc.field("otherData")->field("histograms");
  ASSERT_NE(Hists, nullptr);
  bool Found = false;
  for (const json::Value &HV : Hists->Items)
    if (HV.field("name")->StrV == "obs.test.latency.ns") {
      Found = true;
      EXPECT_EQ(static_cast<int64_t>(HV.field("count")->NumV), 2);
      EXPECT_EQ(static_cast<int64_t>(HV.field("sum")->NumV), 100100);
    }
  EXPECT_TRUE(Found);
}

TEST_F(ObsTest, TraceCarriesEveryMetricsSampleField) {
  // Each sample becomes counter events at one ts carrying every field the
  // sample holds: the em block, the registry gauges, the live-heap summary
  // and the per-depth heap histogram; the histograms and the final heap
  // tree sit under otherData. No ts may be negative, even for samples
  // taken before the first retained event.
  auto &S = obs::MetricsSampler::get();
  obs::Tracer::get().enable();
  obs::MetricsSample Inside;
  {
    rt::Config C;
    C.NumWorkers = 2;
    rt::Runtime R(C);
    S.sampleOnce(); // Before any trace event.
    R.run([&] {
      rt::par([&] {
                Inside = S.sampleOnce(); // Root plus two children live.
                return ops::unit();
              },
              [] { return ops::unit(); });
    });
    R.run([] { (void)wl::fib(12, 4); });
    S.sampleOnce();
  }
  obs::Tracer::get().disable();
  std::vector<obs::MetricsSample> Series = S.series();
  ASSERT_EQ(Series.size(), 3u);
  ASSERT_GE(Inside.LiveHeaps, 2);

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(obs::Tracer::get().chromeTraceJson(), Doc, Err))
      << Err;
  for (const json::Value &E : Doc.field("traceEvents")->Items)
    if (const json::Value *Ts = E.field("ts")) {
      EXPECT_GE(Ts->NumV, 0) << "negative ts";
    }
  auto Em = counterEvents(Doc, "em");
  auto Gauges = counterEvents(Doc, "gauges");
  auto Heaps = counterEvents(Doc, "heaps");
  auto Depths = counterEvents(Doc, "depth_hist");
  ASSERT_EQ(Em.size(), 3u);
  ASSERT_EQ(Gauges.size(), 3u);
  ASSERT_EQ(Heaps.size(), 3u);
  ASSERT_EQ(Depths.size(), 3u);
  for (size_t I = 0; I < 3; ++I) {
    const obs::MetricsSample &M = Series[I];
    double Ts = Em[I]->field("ts")->NumV;
    for (auto *Ev : {Gauges[I], Heaps[I], Depths[I]})
      EXPECT_EQ(Ev->field("ts")->NumV, Ts) << "one sample, one instant";
    // The em block: every em.* counter of the sample, by registry name.
    const json::Value *EmArgs = Em[I]->field("args");
    ASSERT_EQ(EmArgs->Fields.size(), M.Counters.size());
    for (size_t C = 0; C < M.Counters.size(); ++C) {
      EXPECT_EQ(EmArgs->Fields[C].first, M.Counters[C].first);
      EXPECT_EQ(EmArgs->Fields[C].second.NumV, M.Counters[C].second);
    }
    // The gauges, in registration order.
    const json::Value *GArgs = Gauges[I]->field("args");
    ASSERT_EQ(GArgs->Fields.size(), M.Gauges.size());
    for (size_t G = 0; G < M.Gauges.size(); ++G) {
      EXPECT_EQ(GArgs->Fields[G].first, M.Gauges[G].first);
      EXPECT_EQ(GArgs->Fields[G].second.NumV, M.Gauges[G].second);
    }
    EXPECT_EQ(Heaps[I]->field("args")->field("live")->NumV, M.LiveHeaps);
    EXPECT_EQ(Heaps[I]->field("args")->field("max_depth")->NumV,
              M.MaxHeapDepth);
    // The per-depth histogram, zero-padded to the widest sample.
    const json::Value *A = Depths[I]->field("args");
    for (size_t D = 0; D < A->Fields.size(); ++D) {
      EXPECT_EQ(A->Fields[D].first, std::to_string(D));
      EXPECT_EQ(A->Fields[D].second.NumV,
                D < M.DepthHist.size() ? M.DepthHist[D] : 0);
    }
    EXPECT_GE(A->Fields.size(), M.DepthHist.size());
  }

  const json::Value *Other = Doc.field("otherData");
  ASSERT_NE(Other->field("counters"), nullptr);
  ASSERT_NE(Other->field("histograms"), nullptr);
  EXPECT_TRUE(Other->field("histograms")->isArray());
  const json::Value *Tree = Other->field("heap_tree");
  ASSERT_NE(Tree, nullptr);
  EXPECT_EQ(Tree->field("schema")->StrV, "mpl-heap-tree/1");
}

TEST_F(ObsTest, TraceNamesEveryEmCounterAsTheRegistryDoes) {
  // One name per counter: the em counter event and otherData.counters
  // carry every em.* counter under its registry name, with the value
  // snapshotAll() reports.
  StatRegistry::get().resetAll();
  {
    rt::Runtime R(rt::Config{});
    R.run([] { (void)wl::exchange(64); }); // pins a down-pointer per value
  }
  obs::MetricsSampler::get().sampleOnce();
  auto Snap = StatRegistry::get().snapshotAll();

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(obs::Tracer::get().chromeTraceJson(), Doc, Err))
      << Err;
  std::vector<const json::Value *> Em = counterEvents(Doc, "em");
  ASSERT_EQ(Em.size(), 1u);
  const json::Value *Args = Em[0]->field("args");
  const json::Value *Counters = Doc.field("otherData")->field("counters");
  ASSERT_TRUE(Args && Counters);
  size_t EmNames = 0;
  for (const auto &[Name, V] : Snap) {
    if (!Name.starts_with("em."))
      continue;
    ++EmNames;
    for (const json::Value *Obj : {Args, Counters}) {
      const json::Value *F = Obj->field(Name);
      ASSERT_NE(F, nullptr) << Name;
      EXPECT_EQ(F->NumV, V) << Name;
    }
  }
  EXPECT_EQ(Args->Fields.size(), EmNames);
  EXPECT_GT(Args->field("em.pins.objects")->NumV, 0);
}

//===----------------------------------------------------------------------===//
// Histograms (satellite of the same layer; exercised via obs export above,
// pinned down directly here)
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, HistogramBucketsAndQuantiles) {
  Histogram H("obs.test.hist");
  for (int I = 0; I < 100; ++I)
    H.record(1000); // bucket of 1000 = bit_width 10.
  H.record(0);      // Non-positive values land in bucket 0.
  H.record(-5);
  EXPECT_EQ(H.count(), 102u);
  EXPECT_EQ(H.sum(), 100 * 1000 + 0 + (-5));
  int64_t P50 = H.approxQuantile(0.5);
  EXPECT_GE(P50, 512);
  EXPECT_LE(P50, 1024);
}

TEST_F(ObsTest, StatRegistryFindsLiveHistograms) {
  auto liveHistograms = [] {
    return StatRegistry::get().snapshot().Histograms.size();
  };
  size_t Before = liveHistograms();
  {
    Histogram H("obs.test.scoped");
    EXPECT_EQ(liveHistograms(), Before + 1);
  }
  EXPECT_EQ(liveHistograms(), Before);
}

//===----------------------------------------------------------------------===//
// Stats registry race fix: dynamic registration from worker threads
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, StatRegistrationIsThreadSafe) {
  // Before the registry lock, concurrent Stat construction raced the
  // vector push_back (and any concurrent report()). Hammer it.
  // Stat keeps the name pointer, so dynamic Stats need static storage.
  static const char *DynNames[8] = {
      "obs.test.dyn.t0", "obs.test.dyn.t1", "obs.test.dyn.t2",
      "obs.test.dyn.t3", "obs.test.dyn.t4", "obs.test.dyn.t5",
      "obs.test.dyn.t6", "obs.test.dyn.t7"};
  std::vector<std::thread> Ts;
  std::atomic<bool> Go{false};
  for (int T = 0; T < 8; ++T)
    Ts.emplace_back([&Go, T] {
      while (!Go.load())
        std::this_thread::yield();
      for (int I = 0; I < 200; ++I) {
        Stat S(DynNames[T]);
        S.add(I);
        (void)StatRegistry::get().valueOf("obs.test.dyn.t0");
      }
    });
  Go = true;
  for (std::thread &T : Ts)
    T.join();
  // All temporaries unregistered themselves on destruction.
  EXPECT_EQ(StatRegistry::get().valueOf("obs.test.dyn.t0"), 0);
}

TEST_F(ObsTest, RegistrationRacesRenderers) {
  // Gauges, histograms and whole Runtimes (their deque, heap-count and
  // free-list gauges and their heap-tree provider) come and go while two
  // threads render every export. Under the tsan preset this checks the
  // lock order (the registry lock is always taken before Tracer::Mu) and
  // that a destroyed gauge's callback never runs again.
  obs::Tracer::get().enable();
  std::atomic<bool> Done{false};
  std::thread Churn([&] {
    for (int I = 0; I < 100; ++I) {
      auto Value = std::make_unique<std::atomic<int64_t>>(I);
      Gauge G("obs.test.race.gauge", [V = Value.get()] { return V->load(); });
      Histogram H("obs.test.race.ns");
      H.record(I);
      rt::Config C;
      C.NumWorkers = 2;
      rt::Runtime R(C);
    }
    Done = true;
  });
  auto Render = [&] {
    for (int Round = 0; !Done.load() || Round < 3; ++Round) {
      std::string Err;
      EXPECT_TRUE(obs::checkExposition(obs::renderPrometheus(), Err)) << Err;
      json::Value Doc;
      EXPECT_TRUE(json::parse(obs::Tracer::get().chromeTraceJson(), Doc, Err))
          << Err;
      obs::MetricsSampler::get().sampleOnce();
    }
  };
  std::thread A(Render);
  std::thread B(Render);
  Churn.join();
  A.join();
  B.join();
  obs::Tracer::get().disable();
  for (const auto &[Name, V] : StatRegistry::get().snapshot().Gauges)
    EXPECT_NE(Name, "obs.test.race.gauge") << "gauge outlived its owner";
}

//===----------------------------------------------------------------------===//
// Entanglement costs in the registry, and the pin-lifetime clock
//===----------------------------------------------------------------------===//

namespace {

rt::Config workerCfg(int Workers) {
  rt::Config C;
  C.NumWorkers = Workers;
  C.GcMinBytes = 1 << 16;
  return C;
}

/// Count of the named global histogram, or -1 when it does not exist.
int64_t histCountOf(const char *Name) {
  int64_t Out = -1;
  for (const Histogram::Snapshot &H : StatRegistry::get().snapshot().Histograms)
    if (H.Name == Name)
      Out = H.count();
  return Out;
}

/// The dedup and exchange workloads on \p Workers workers, from zeroed
/// counters: both pin, and their joins release every pin. Returns the
/// samples the run added to em.pin.lifetime.ns.
int64_t entangledRunLifetimes(int Workers) {
  int64_t Before = histCountOf("em.pin.lifetime.ns");
  StatRegistry::get().resetAll();
  {
    rt::Runtime R(workerCfg(Workers));
    R.run([] {
      Local K(wl::randomInts(20000, 5000, 23));
      (void)wl::dedup(K.get(), 256);
    });
    R.run([] { (void)wl::exchange(2000); });
  }
  return histCountOf("em.pin.lifetime.ns") - Before;
}

/// One worker, from zeroed counters and the trace plane armed: a depth-1
/// ref published into a depth-0 ref (a down pointer, pinned and clocked)
/// and released at the join; with \p DisarmBeforeJoin the plane is
/// disarmed between the pin and the release. Returns the samples the run
/// added to em.pin.lifetime.ns.
int64_t downPointerRunLifetimes(bool DisarmBeforeJoin) {
  using namespace mpl::ops;
  int64_t Before = histCountOf("em.pin.lifetime.ns");
  StatRegistry::get().resetAll();
  obs::Tracer::get().enable();
  {
    rt::Runtime R(workerCfg(1));
    R.run([&] {
      Local Shared0(newRef(boxInt(0))); // Depth 0.
      rt::par(
          [&] {
            Local Mine(newRef(boxInt(5)));
            refSet(Shared0.get(), Mine.slot());
            EXPECT_TRUE(Mine.get()->isPinned());
            EXPECT_EQ(Heap::clockedPins(), 1);
            if (DisarmBeforeJoin)
              obs::Tracer::get().disable();
            return unit();
          },
          [&] { return unit(); });
    });
  }
  obs::Tracer::get().disable();
  return histCountOf("em.pin.lifetime.ns") - Before;
}

} // namespace

TEST_F(ObsTest, DisentangledRunsLeaveEveryEmCounterAtZero) {
  // The shielding property: every em cost counter sits on an
  // entanglement slow path, so a fully disentangled run leaves each one
  // at 0 — not merely small — across forks, joins and collections, and
  // the trace plane's pin clock never starts.
  StatRegistry::get().resetAll();
  obs::Tracer::get().enable();
  {
    rt::Runtime R(workerCfg(2));
    R.run([] { (void)wl::fib(18, 6); });
    R.run([] {
      Local A(wl::randomInts(20000, 1 << 20, 42));
      Local S(wl::mergesortInts(A.get(), 1024));
      (void)S.get();
    });
  }
  obs::Tracer::get().disable();
  int EmNames = 0;
  for (const auto &[Name, V] : StatRegistry::get().snapshotAll())
    if (Name.starts_with("em.")) {
      ++EmNames;
      EXPECT_EQ(V, 0) << Name;
    }
  EXPECT_GE(EmNames, 12);
  EXPECT_EQ(Heap::clockedPins(), 0);
}

TEST_F(ObsTest, DownPointerPinClockedUntilItsJoin) {
  // One worker, the trace plane armed: a down-pointer pin is counted by
  // kind, its clock runs while the pin lives, and the join's release
  // records one lifetime per unpin and empties the clock's table.
  int64_t Lifetimes = downPointerRunLifetimes(/*DisarmBeforeJoin=*/false);
  em::CounterSnapshot S = em::Counts.snapshot();
  EXPECT_GE(S.DownPointerPins, 1);
  EXPECT_EQ(S.PinnedObjects, 1);
  EXPECT_GT(S.PinnedBytes, 0);
  EXPECT_EQ(S.UnpinnedObjects, S.PinnedObjects);
  EXPECT_EQ(S.UnpinnedBytes, S.PinnedBytes);
  EXPECT_EQ(Lifetimes, S.UnpinnedObjects);
  EXPECT_EQ(Heap::clockedPins(), 0);
}

TEST_F(ObsTest, ReleaseAfterDisarmStillStopsTheClock) {
  // A pin taken under the trace plane keeps its clock when the plane is
  // disarmed before the join: the release still records its lifetime and
  // leaves the table, so no clock outlives its pin.
  int64_t Lifetimes = downPointerRunLifetimes(/*DisarmBeforeJoin=*/true);
  EXPECT_EQ(em::Counts.snapshot().UnpinnedObjects, 1);
  EXPECT_EQ(Lifetimes, 1);
  EXPECT_EQ(Heap::clockedPins(), 0);
}

TEST_F(ObsTest, EntangledWorkloadsClockEveryPinAcrossWorkers) {
  // Two workers, the trace plane armed: every unpin of the dedup and
  // exchange runs adds exactly one em.pin.lifetime.ns sample, and no
  // clock is left running once the joins released every pin.
  obs::Tracer::get().enable();
  int64_t Lifetimes = entangledRunLifetimes(2);
  obs::Tracer::get().disable();
  em::CounterSnapshot S = em::Counts.snapshot();
  ASSERT_GT(S.PinnedObjects, 0) << "workload produced no entanglement";
  EXPECT_EQ(S.livePinnedObjects(), 0);
  EXPECT_EQ(Lifetimes, S.UnpinnedObjects);
  EXPECT_EQ(Heap::clockedPins(), 0);
}

TEST_F(ObsTest, PinLifetimesNeedAnArmedPlane) {
  // With no plane armed the same runs pin and unpin as before, but no
  // clock starts and em.pin.lifetime.ns gains no sample.
  ASSERT_FALSE(obs::traceEnabled());
  int64_t Lifetimes = entangledRunLifetimes(2);
  EXPECT_GT(em::Counts.snapshot().UnpinnedObjects, 0);
  EXPECT_EQ(Lifetimes, 0);
  EXPECT_EQ(Heap::clockedPins(), 0);
}

//===----------------------------------------------------------------------===//
// Heap-tree introspection (obs::snapshotHeapTree)
//===----------------------------------------------------------------------===//

TEST(HeapTreeTest, HeapTreeSnapshotWithoutRuntimeIsEmptyFallback) {
  std::string S = obs::snapshotHeapTree();
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(S, V, Err)) << Err;
  const json::Value *Live = V.field("live_heaps");
  ASSERT_NE(Live, nullptr);
  EXPECT_EQ(Live->NumV, 0);
}

TEST(HeapTreeTest, MetricsSampleCarriesHeapTreeSummary) {
  auto &S = obs::MetricsSampler::get();
  S.clearSeries();
  obs::MetricsSample Outside = S.sampleOnce();
  EXPECT_EQ(Outside.LiveHeaps, 0) << "no runtime alive";
  EXPECT_EQ(Outside.MaxHeapDepth, -1);

  obs::MetricsSample Inside;
  {
    rt::Runtime R(workerCfg(2));
    R.run([&] { Inside = S.sampleOnce(); }); // Root heap live during run.
  }
  EXPECT_GE(Inside.LiveHeaps, 1);
  EXPECT_GE(Inside.MaxHeapDepth, 0);

  // The depth histogram partitions the live heaps: one bucket per depth,
  // summing back to the live count, and no buckets beyond the max depth.
  EXPECT_EQ(Outside.DepthHist.size(), 0u);
  ASSERT_EQ(static_cast<int64_t>(Inside.DepthHist.size()),
            Inside.MaxHeapDepth + 1);
  int64_t HistSum = 0;
  for (int64_t N : Inside.DepthHist) {
    EXPECT_GE(N, 0);
    HistSum += N;
  }
  EXPECT_EQ(HistSum, Inside.LiveHeaps);

  // The trace's counter events carry the per-sample summary.
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(obs::Tracer::get().chromeTraceJson(), Doc, Err))
      << Err;
  std::vector<const json::Value *> Heaps = counterEvents(Doc, "heaps");
  std::vector<const json::Value *> Depths = counterEvents(Doc, "depth_hist");
  ASSERT_EQ(Heaps.size(), 2u);
  ASSERT_EQ(Depths.size(), 2u);
  const json::Value *H = Heaps[1]->field("args");
  ASSERT_NE(H->field("live"), nullptr);
  EXPECT_GE(H->field("live")->NumV, 1);
  ASSERT_NE(H->field("max_depth"), nullptr);
  EXPECT_GE(H->field("max_depth")->NumV, 0);
  int64_t JsonSum = 0;
  for (const auto &[Depth, N] : Depths[1]->field("args")->Fields)
    JsonSum += static_cast<int64_t>(N.NumV);
  EXPECT_EQ(JsonSum, static_cast<int64_t>(H->field("live")->NumV));
  S.clearSeries();
}

TEST(HeapTreeTest, HeapTreeSnapshotConcurrentWithForkJoinUnderChaos) {
  using namespace mpl::ops;
  // A snapshot thread hammers obs::snapshotHeapTree() while two workers
  // fork, join and collect under a seeded chaos schedule — the TSan preset
  // runs this test too, so the gauge-only walk is exercised for races.
  chaos::enable(chaos::Config::fromSeed(11));
  std::atomic<bool> Done{false};
  std::atomic<int> Parsed{0};
  bool SnapshotsOk = true;
  std::string FirstError;
  {
    rt::Runtime R(workerCfg(2));
    std::thread Snap([&] {
      while (!Done.load(std::memory_order_acquire)) {
        std::string S = obs::snapshotHeapTree();
        json::Value V;
        std::string Err;
        if (!json::parse(S, V, Err)) {
          SnapshotsOk = false;
          FirstError = Err + ": " + S;
          break;
        }
        const json::Value *Schema = V.field("schema");
        const json::Value *Heaps = V.field("heaps");
        if (!Schema || Schema->StrV != "mpl-heap-tree/1" || !Heaps ||
            !Heaps->isArray()) {
          SnapshotsOk = false;
          FirstError = "missing schema/heaps: " + S;
          break;
        }
        for (const json::Value &H : Heaps->Items) {
          const json::Value *Cb = H.field("chunk_bytes");
          const json::Value *Pb = H.field("pinned_bytes");
          if (!Cb || Cb->NumV < 0 || !Pb || Pb->NumV < 0) {
            SnapshotsOk = false;
            FirstError = "negative gauge: " + S;
            break;
          }
        }
        Parsed.fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (int I = 0; I < 4 && SnapshotsOk; ++I)
      R.run([] {
        (void)wl::fib(16, 4);
        (void)wl::exchange(500);
      });
    Done.store(true, std::memory_order_release);
    Snap.join();
  }
  chaos::disable();
  EXPECT_TRUE(SnapshotsOk) << FirstError;
  EXPECT_GT(Parsed.load(), 0);
}

//===----------------------------------------------------------------------===//
// Prometheus exposition (obs/Exposition.h, DESIGN.md §16)
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, ExpositionRendersAndPassesChecker) {
  Stat S("test.expo.counter");
  S.add(5);
  Histogram H("test.expo.ns");
  H.record(0);    // bucket 0 → le="0"
  H.record(100);  // bucket 7 → le="127"
  H.record(2000); // bucket 11 → le="2047"
  std::string Text = obs::renderPrometheus();
  EXPECT_NE(Text.find("# TYPE mpl_test_expo_counter_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("mpl_test_expo_counter_total 5"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE mpl_test_expo_ns histogram"),
            std::string::npos);
  // The log2→le mapping: bucket B's inclusive upper bound is 2^B - 1, and
  // bucket counts are cumulative up to the highest non-empty bucket.
  EXPECT_NE(Text.find("mpl_test_expo_ns_bucket{le=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("mpl_test_expo_ns_bucket{le=\"127\"} 2"),
            std::string::npos);
  EXPECT_NE(Text.find("mpl_test_expo_ns_bucket{le=\"2047\"} 3"),
            std::string::npos);
  EXPECT_NE(Text.find("mpl_test_expo_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(Text.find("mpl_test_expo_ns_count 3"), std::string::npos);
  std::string Err;
  int Series = 0;
  EXPECT_TRUE(obs::checkExposition(Text, Err, &Series)) << Err;
  EXPECT_GT(Series, 10); // em.* counters + gauges + our two families
}

TEST_F(ObsTest, ExpositionEmitsEachEmCounterOnce) {
  {
    rt::Runtime R(workerCfg(4));
    R.run([] { (void)wl::channelPipeline(20000); });
  }
  em::CounterSnapshot E = em::Counts.snapshot();
  ASSERT_GT(E.PinnedObjects, 0) << "workload produced no entanglement";
  // One series per em counter, valued as the snapshot; the only other
  // em counter series is em.detect.rejections (not a CounterSnapshot
  // field).
  const std::map<std::string, int64_t> Want = {
      {"mpl_em_reads_entangled_total", E.EntangledReads},
      {"mpl_em_reads_entangled_unpinned_total", E.EntangledReadsUnpinned},
      {"mpl_em_pins_down_total", E.DownPointerPins},
      {"mpl_em_pins_cross_total", E.CrossPointerPins},
      {"mpl_em_pins_holder_total", E.PinnedHolderPins},
      {"mpl_em_pins_cont_total", E.ContPins},
      {"mpl_em_pins_objects_total", E.PinnedObjects},
      {"mpl_em_pinned_bytes_total", E.PinnedBytes},
      {"mpl_em_unpins_total", E.UnpinnedObjects},
      {"mpl_em_unpins_bytes_total", E.UnpinnedBytes},
      {"mpl_em_cont_captured_total", E.ContCaptured},
      {"mpl_em_cont_resumed_total", E.ContResumed},
  };
  std::string Text = obs::renderPrometheus();
  std::map<std::string, int64_t> Got;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Sp = Line.find(' ');
    std::string Name = Line.substr(0, Sp);
    if (Name.rfind("mpl_em_", 0) != 0 || Name.size() < 6 ||
        Name.compare(Name.size() - 6, 6, "_total") != 0 ||
        Name == "mpl_em_detect_rejections_total")
      continue;
    EXPECT_TRUE(Got.emplace(Name, std::stoll(Line.substr(Sp + 1))).second)
        << "series emitted twice: " << Name;
  }
  EXPECT_EQ(Got, Want);
  std::string Err;
  EXPECT_TRUE(obs::checkExposition(Text, Err)) << Err;
}

TEST_F(ObsTest, ExpositionCheckerRejectsMalformed) {
  std::string Err;
  // Duplicate series (same name + label set twice).
  EXPECT_FALSE(obs::checkExposition(
      "# TYPE mpl_x counter\nmpl_x 1\nmpl_x 2\n", Err));
  EXPECT_NE(Err.find("duplicate series"), std::string::npos) << Err;
  // Duplicate TYPE declaration.
  EXPECT_FALSE(obs::checkExposition(
      "# TYPE mpl_x counter\n# TYPE mpl_x counter\nmpl_x 1\n", Err));
  // Negative counter.
  EXPECT_FALSE(
      obs::checkExposition("# TYPE mpl_x counter\nmpl_x -1\n", Err));
  EXPECT_NE(Err.find("negative counter"), std::string::npos) << Err;
  // Sample without a declared family.
  EXPECT_FALSE(obs::checkExposition("mpl_mystery 1\n", Err));
  // Non-numeric value.
  EXPECT_FALSE(
      obs::checkExposition("# TYPE mpl_x gauge\nmpl_x banana\n", Err));
  // Non-increasing le buckets.
  EXPECT_FALSE(obs::checkExposition("# TYPE mpl_h histogram\n"
                                    "mpl_h_bucket{le=\"3\"} 1\n"
                                    "mpl_h_bucket{le=\"1\"} 2\n"
                                    "mpl_h_bucket{le=\"+Inf\"} 2\n"
                                    "mpl_h_sum 4\nmpl_h_count 2\n",
                                    Err));
  EXPECT_NE(Err.find("non-increasing le"), std::string::npos) << Err;
  // Cumulative bucket counts must be non-decreasing.
  EXPECT_FALSE(obs::checkExposition("# TYPE mpl_h histogram\n"
                                    "mpl_h_bucket{le=\"1\"} 2\n"
                                    "mpl_h_bucket{le=\"3\"} 1\n"
                                    "mpl_h_bucket{le=\"+Inf\"} 2\n"
                                    "mpl_h_sum 4\nmpl_h_count 2\n",
                                    Err));
  // Missing +Inf bucket.
  EXPECT_FALSE(obs::checkExposition("# TYPE mpl_h histogram\n"
                                    "mpl_h_bucket{le=\"1\"} 1\n"
                                    "mpl_h_sum 1\nmpl_h_count 1\n",
                                    Err));
  // +Inf bucket must equal _count.
  EXPECT_FALSE(obs::checkExposition("# TYPE mpl_h histogram\n"
                                    "mpl_h_bucket{le=\"+Inf\"} 1\n"
                                    "mpl_h_sum 1\nmpl_h_count 2\n",
                                    Err));
  // The well-formed version of the same histogram passes.
  EXPECT_TRUE(obs::checkExposition("# TYPE mpl_h histogram\n"
                                   "mpl_h_bucket{le=\"1\"} 1\n"
                                   "mpl_h_bucket{le=\"+Inf\"} 2\n"
                                   "mpl_h_sum 42\nmpl_h_count 2\n",
                                   Err))
      << Err;
}

//===----------------------------------------------------------------------===//
// Rolling windows (support/Histogram.h)
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, RollingWindowAgesOutOldSamples) {
  Histogram H("test.rolling.window.ns");
  RollingWindow W(H, /*Slots=*/4, /*SlotNs=*/100);
  W.maybeRotate(1000); // stamps the construction-time baseline
  H.record(64);
  H.record(64);
  RollingWindow::WindowStats S = W.window(1050);
  EXPECT_EQ(S.Hist.count(), 2);
  EXPECT_EQ(S.WindowNs, 50);
  // The bucket upper bound of bit_width(64) == 7.
  EXPECT_EQ(S.Hist.percentiles().P50, 127);

  // One rotation per slot with no new samples: once the ring fills, the
  // oldest retained snapshot already contains both records, so the
  // windowed view is empty while the lifetime histogram still holds 2.
  for (int I = 1; I <= 4; ++I)
    W.maybeRotate(1000 + 100 * I);
  S = W.window(1450);
  EXPECT_EQ(S.Hist.count(), 0);
  EXPECT_EQ(H.count(), 2);
  EXPECT_LE(S.WindowNs, 4 * 100 + 50); // converged to ~Slots * SlotNs

  // New samples show up immediately (diff against the same base).
  H.record(128);
  S = W.window(1460);
  EXPECT_EQ(S.Hist.count(), 1);
}

TEST_F(ObsTest, RollingWindowCatchUpCollapsesStall) {
  Histogram H("test.rolling.stall.ns");
  RollingWindow W(H, /*Slots=*/4, /*SlotNs=*/100);
  W.maybeRotate(1000);
  H.record(10);
  // A 10-slot stall in one call must not stretch the window: the catch-up
  // path collapses it into a single post-stall snapshot.
  W.maybeRotate(2000);
  W.maybeRotate(2100);
  W.maybeRotate(2200);
  W.maybeRotate(2300);
  RollingWindow::WindowStats S = W.window(2310);
  EXPECT_EQ(S.Hist.count(), 0); // the stall-era sample aged out
  EXPECT_EQ(S.WindowNs, 310); // base is the collapsed post-stall snapshot
}

//===----------------------------------------------------------------------===//
// Signal-safe stats dump (SIGUSR1 -> MPL_OBS_DIR/stats.prom)
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, StatsDumpWritesExpositionFile) {
  std::string Path = "obs_test_stats_dump.prom";
  obs::armStatsDump(Path);
  // No request pending: servicing is a no-op.
  EXPECT_FALSE(obs::serviceStatsDump());
  // The signal handler's body is exactly this relaxed store.
  obs::requestStatsDump();
  EXPECT_TRUE(obs::serviceStatsDump());
  EXPECT_FALSE(obs::serviceStatsDump()); // one dump per request
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Err;
  int Series = 0;
  EXPECT_TRUE(obs::checkExposition(Buf.str(), Err, &Series)) << Err;
  EXPECT_GT(Series, 0);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The observability switch (MPL_OBS)
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, UnknownObsPlaneArmsNothing) {
  // One bad name voids the whole list: nothing is armed, the sampler does
  // not start, and stderr gets exactly one line naming the culprit.
  testing::internal::CaptureStderr();
  EXPECT_EQ(obs::armPlanes("trace,spanz"), 0u);
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_NE(Err.find("'spanz'"), std::string::npos) << Err;
  EXPECT_EQ(std::count(Err.begin(), Err.end(), '\n'), 1) << Err;
  EXPECT_FALSE(obs::traceEnabled());
  EXPECT_FALSE(obs::spansEnabled());
  EXPECT_FALSE(obs::MetricsSampler::get().running());

  // `profile` is no plane: naming it arms nothing either.
  testing::internal::CaptureStderr();
  EXPECT_EQ(obs::armPlanes("profile,spans"), 0u);
  Err = testing::internal::GetCapturedStderr();
  EXPECT_NE(Err.find("'profile'"), std::string::npos) << Err;
  EXPECT_FALSE(obs::spansEnabled());

  // Known names arm exactly their planes; empty items are skipped.
  EXPECT_EQ(obs::armPlanes(",,spans"), unsigned(obs::PlaneSpans));
  EXPECT_TRUE(obs::spansEnabled());
  EXPECT_FALSE(obs::traceEnabled());
  obs::SpanLedger::get().disable();

  // `trace` starts the sampler with the tracer.
  EXPECT_EQ(obs::armPlanes("trace"), unsigned(obs::PlaneTrace));
  EXPECT_TRUE(obs::traceEnabled());
  EXPECT_TRUE(obs::MetricsSampler::get().running());
}
