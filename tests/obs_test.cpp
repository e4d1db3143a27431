//===- tests/obs_test.cpp - Tracer, metrics sampler and exporter tests ----===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Covers the observability layer in isolation (src/obs depends only on
// support, so these tests drive the Tracer / MetricsSampler directly):
// ring wrap and the dropped-event counter, per-thread event ordering, the
// well-formedness of the Chrome trace-event export (parsed back with
// support/Json), sampler monotonicity, and the everything-disabled smoke.
//
//===----------------------------------------------------------------------===//

#include "chaos/ChaosSchedule.h"
#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "obs/Exposition.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "workloads/Entangled.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
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
  obs::Tracer::get().enable(obs::TraceOptions{});
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

TEST_F(ObsTest, RingWrapKeepsNewestAndCountsDropped) {
  obs::TraceOptions O;
  O.Capacity = 64;
  obs::Tracer::get().enable(O);
  const uint64_t Total = 64 * 3 + 17;
  for (uint64_t I = 0; I < Total; ++I)
    obs::emit(obs::Ev::Pin, /*A0=*/I);
  obs::Tracer::get().disable();

  obs::TraceBuffer *B = obs::Tracer::get().threadBuffer();
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->capacity(), 64u);
  EXPECT_EQ(B->head(), Total);
  EXPECT_EQ(B->size(), 64u);
  EXPECT_EQ(B->dropped(), Total - 64);
  EXPECT_EQ(obs::Tracer::get().totalDropped(), Total - 64);

  // The retained window is exactly the newest 64 events, uncorrupted and
  // in emission order.
  uint64_t Expect = Total - 64;
  for (uint64_t I = B->first(); I < B->head(); ++I, ++Expect) {
    const obs::TraceEvent &E = B->at(I);
    EXPECT_EQ(E.Kind, static_cast<uint16_t>(obs::Ev::Pin));
    EXPECT_EQ(E.Arg0, Expect);
  }
}

TEST_F(ObsTest, CapacityRoundsUpToPowerOfTwo) {
  obs::TraceOptions O;
  O.Capacity = 100; // Not a power of two.
  obs::Tracer::get().enable(O);
  obs::emit(obs::Ev::Fork);
  obs::Tracer::get().disable();
  EXPECT_EQ(obs::Tracer::get().threadBuffer()->capacity(), 128u);
}

//===----------------------------------------------------------------------===//
// Per-thread ordering and track attribution
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, PerThreadEventsStayOrdered) {
  obs::Tracer::get().enable(obs::TraceOptions{});
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
  obs::Tracer::get().enable(obs::TraceOptions{});
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

TEST_F(ObsTest, ChromeTraceFlowEventsExport) {
  obs::Tracer::get().enable(obs::TraceOptions{});
  obs::labelCurrentThread(0);
  obs::emit(obs::Ev::FlowOut, 7);
  obs::emit(obs::Ev::FlowIn, 7);
  obs::Tracer::get().disable();

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(obs::Tracer::get().chromeTraceJson(), Doc, Err))
      << Err;
  int NOut = 0, NIn = 0;
  for (const json::Value &E : Doc.field("traceEvents")->Items) {
    const std::string &P = E.field("ph")->StrV;
    if (P != "s" && P != "f")
      continue;
    // Flow events bind by (cat, id); Perfetto drops flows without both.
    ASSERT_NE(E.field("cat"), nullptr);
    EXPECT_EQ(E.field("cat")->StrV, "spans");
    ASSERT_NE(E.field("id"), nullptr);
    EXPECT_TRUE(E.field("id")->isNumber());
    EXPECT_EQ(static_cast<uint64_t>(E.field("id")->NumV), 7u);
    EXPECT_EQ(E.field("name")->StrV, "task_flow");
    if (P == "s") {
      ++NOut;
    } else {
      ++NIn;
      // bp:"e" binds the inbound flow to the *enclosing* slice.
      ASSERT_NE(E.field("bp"), nullptr);
      EXPECT_EQ(E.field("bp")->StrV, "e");
    }
  }
  EXPECT_EQ(NOut, 1);
  EXPECT_EQ(NIn, 1);
}

TEST_F(ObsTest, ChromeTraceRoundTripMatchesBufferCounts) {
  // Real workload with tracer + span ledger armed: every retained event —
  // including the span ledger's task_flow edges — must survive the export
  // with its phase intact, so the JSON's per-phase counts equal the ring
  // buffers' per-kind counts.
  obs::Tracer::get().enable(obs::TraceOptions{});
  obs::SpanLedger::get().enable();
  {
    rt::Config Cfg;
    Cfg.NumWorkers = 2;
    Cfg.Profile = true;
    rt::Runtime R(Cfg);
    R.run([] { wl::fib(18, 5); });
  }
  obs::SpanLedger::get().disable();
  obs::Tracer::get().disable();
  ASSERT_EQ(obs::Tracer::get().totalDropped(), 0u);

  uint64_t BufFlowOut = 0, BufFlowIn = 0;
  obs::Tracer::get().forEachBuffer([&](const obs::TraceBuffer &B) {
    for (uint64_t I = B.first(); I < B.head(); ++I) {
      uint16_t K = B.at(I).Kind;
      if (K == static_cast<uint16_t>(obs::Ev::FlowOut))
        ++BufFlowOut;
      else if (K == static_cast<uint16_t>(obs::Ev::FlowIn))
        ++BufFlowIn;
    }
  });
  ASSERT_GT(BufFlowOut, 0u);
  // Two FlowOuts per fork; one FlowIn when each spawned task starts.
  EXPECT_EQ(BufFlowIn, BufFlowOut);

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(obs::Tracer::get().chromeTraceJson(), Doc, Err))
      << Err;
  uint64_t NOut = 0, NIn = 0;
  for (const json::Value &E : Doc.field("traceEvents")->Items) {
    const std::string &P = E.field("ph")->StrV;
    if (P == "s")
      ++NOut;
    else if (P == "f")
      ++NIn;
  }
  EXPECT_EQ(NOut, BufFlowOut);
  EXPECT_EQ(NIn, BufFlowIn);
}

TEST_F(ObsTest, ExporterDropsOrphanedEndEvents) {
  // A wrapped ring can retain an End whose Begin was overwritten; the
  // exporter must drop it (Perfetto rejects E-without-B timelines).
  obs::TraceOptions O;
  O.Capacity = 4;
  obs::Tracer::get().enable(O);
  obs::emit(obs::Ev::GcBegin);       // Will be overwritten...
  obs::emit(obs::Ev::GcEnd);         // ...leaving this End orphaned.
  obs::emit(obs::Ev::Pin);
  obs::emit(obs::Ev::Pin);
  obs::emit(obs::Ev::Pin); // Wraps: GcBegin is gone.
  obs::Tracer::get().disable();

  std::string Text = obs::Tracer::get().chromeTraceJson();
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(Text, Doc, Err)) << Err;
  for (const json::Value &E : Doc.field("traceEvents")->Items)
    EXPECT_NE(E.field("ph")->StrV, "E") << "orphaned E survived export";
}

TEST_F(ObsTest, DroppedCountIsExported) {
  obs::TraceOptions O;
  O.Capacity = 8;
  obs::Tracer::get().enable(O);
  for (int I = 0; I < 20; ++I)
    obs::emit(obs::Ev::Fork);
  obs::Tracer::get().disable();

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(obs::Tracer::get().chromeTraceJson(), Doc, Err));
  const json::Value *Other = Doc.field("otherData");
  ASSERT_NE(Other, nullptr);
  const json::Value *Dropped = Other->field("dropped_events");
  ASSERT_NE(Dropped, nullptr);
  EXPECT_EQ(Dropped->StrV, "12");
}

//===----------------------------------------------------------------------===//
// Metrics sampler
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, TraceDroppedGaugeIsSampled) {
  // Every sample carries the tracer's cumulative drop counter so a metrics
  // series reveals *when* a trace went gappy, not just that it did.
  obs::TraceOptions O;
  O.Capacity = 8;
  obs::Tracer::get().enable(O);
  for (int I = 0; I < 20; ++I)
    obs::emit(obs::Ev::Fork);
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
  int Id = S.registerGauge("test.depth", [&] { return Depth.load(); });

  Depth = 3;
  S.sampleOnce();
  Depth = 7;
  S.sampleOnce();
  Depth = 7;
  S.sampleOnce();
  S.unregisterGauge(Id);

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

TEST_F(ObsTest, MetricsJsonParsesBackWithHistograms) {
  Histogram H("obs.test.latency.ns");
  H.record(100);
  H.record(100000);
  obs::MetricsSampler::get().sampleOnce();

  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(obs::MetricsSampler::get().jsonDump(), Doc, Err))
      << Err;
  const json::Value *Samples = Doc.field("samples");
  ASSERT_NE(Samples, nullptr);
  ASSERT_EQ(Samples->Items.size(), 1u);
  ASSERT_NE(Samples->Items[0].field("em"), nullptr);
  ASSERT_NE(Samples->Items[0].field("em")->field("live_pinned_bytes"),
            nullptr);

  const json::Value *Hists = Doc.field("histograms");
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

TEST_F(ObsTest, HistogramRegistryFindsLiveHistograms) {
  size_t Before = 0;
  HistogramRegistry::get().forEach([&](const Histogram &) { ++Before; });
  {
    Histogram H("obs.test.scoped");
    size_t During = 0;
    HistogramRegistry::get().forEach([&](const Histogram &) { ++During; });
    EXPECT_EQ(During, Before + 1);
  }
  size_t After = 0;
  HistogramRegistry::get().forEach([&](const Histogram &) { ++After; });
  EXPECT_EQ(After, Before);
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

//===----------------------------------------------------------------------===//
// Entanglement profiler (obs/Profile.h)
//===----------------------------------------------------------------------===//

namespace {

/// The profiler is process-global; every test starts and ends disarmed.
class ProfileTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::Profiler::get().disable();
    obs::Profiler::get().reset();
  }
  void TearDown() override { SetUp(); }
};

rt::Config workerCfg(int Workers) {
  rt::Config C;
  C.NumWorkers = Workers;
  C.Profile = false;
  C.GcMinBytes = 1 << 16;
  return C;
}

/// Count of the named global histogram, or -1 when it does not exist yet.
int64_t histCountOf(const char *Name) {
  int64_t Out = -1;
  HistogramRegistry::get().forEach([&](const Histogram &H) {
    if (std::string(H.name()) == Name)
      Out = H.count();
  });
  return Out;
}

const obs::SiteSnap *findSite(const std::vector<obs::SiteSnap> &Sites,
                              const std::string &Name) {
  for (const obs::SiteSnap &S : Sites)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

} // namespace

TEST_F(ProfileTest, DisabledHooksRecordNothing) {
  ASSERT_FALSE(obs::profileEnabled());
  obs::profileEvent(obs::Site::GcEvac, 128, 1);
  EXPECT_TRUE(obs::Profiler::get().snapshot().empty());
}

TEST_F(ProfileTest, DisentangledRunsLeaveProfileEmpty) {
  // The tentpole's shielding property: every profiler hook sits on an
  // entanglement slow path (or is gated on entangled work), so a fully
  // disentangled suite must produce an EMPTY profile — not merely a cheap
  // one — even across forks, joins and collections.
  obs::Profiler::get().enable();
  {
    rt::Runtime R(workerCfg(2));
    R.run([] { (void)wl::fib(18, 6); });
    R.run([] {
      Local A(wl::randomInts(20000, 1 << 20, 42));
      Local S(wl::mergesortInts(A.get(), 1024));
      (void)S.get();
    });
  }
  EXPECT_TRUE(obs::Profiler::get().snapshot().empty());
  EXPECT_EQ(obs::Profiler::get().livePinCount(), 0);
  EXPECT_EQ(obs::Profiler::get().livePinBytes(), 0);
}

TEST_F(ProfileTest, DownPointerPinAttributedAndDrainedAtJoin) {
  using namespace mpl::ops;
  obs::Profiler::get().enable();
  int64_t LifetimesBefore = std::max<int64_t>(
      0, histCountOf("em.pin.lifetime.ns"));
  StatRegistry::get().resetAll();
  {
    rt::Runtime R(workerCfg(1));
    R.run([&] {
      Local Shared0(newRef(boxInt(0))); // Depth 0.
      rt::par(
          [&] {
            // Depth-1 object published into a depth-0 ref: down pointer.
            Local Mine(newRef(boxInt(5)));
            refSet(Shared0.get(), Mine.slot());
            EXPECT_TRUE(Mine.get()->isPinned());
            return unit();
          },
          [&] { return unit(); });
    });
  }
  std::vector<obs::SiteSnap> Sites = obs::Profiler::get().snapshot();
  const obs::SiteSnap *Pin = findSite(Sites, "em.pin.down");
  ASSERT_NE(Pin, nullptr);
  EXPECT_GE(Pin->Events, 1);
  EXPECT_GT(Pin->Bytes, 0);
  // The profiler observes the same chokepoint as the em counters: the
  // attributed bytes equal the counter total exactly.
  EXPECT_EQ(Pin->Bytes, StatRegistry::get().valueOf("em.pinned.bytes"));
  // Every pin was released by the join: the live-pin table drained, each
  // release recorded a lifetime both globally and at the pin's own site.
  EXPECT_EQ(obs::Profiler::get().livePinCount(), 0);
  EXPECT_EQ(obs::Profiler::get().livePinBytes(), 0);
  EXPECT_EQ(Pin->DurCount, Pin->Events);
  EXPECT_EQ(histCountOf("em.pin.lifetime.ns") - LifetimesBefore,
            Pin->DurCount);
  // The join-side site saw the unpin work.
  const obs::SiteSnap *Join = findSite(Sites, "hh.join.unpin");
  ASSERT_NE(Join, nullptr);
  EXPECT_EQ(Join->Bytes, Pin->Bytes);
}

TEST_F(ProfileTest, EntangledWorkloadsAttributeAllPinsAcrossWorkers) {
  using namespace mpl::ops;
  obs::Profiler::get().enable();
  StatRegistry::get().resetAll();
  {
    rt::Runtime R(workerCfg(2));
    R.run([] {
      Local K(wl::randomInts(20000, 5000, 23));
      (void)wl::dedup(K.get(), 256);
    });
    R.run([] { (void)wl::exchange(2000); });
  }
  int64_t PinnedBytes = StatRegistry::get().valueOf("em.pinned.bytes");
  ASSERT_GT(PinnedBytes, 0) << "workload produced no entanglement";
  int64_t Attributed = 0;
  for (const obs::SiteSnap &S : obs::Profiler::get().snapshot())
    if (S.Name.rfind("em.pin.", 0) == 0 || S.Name == "hh.pin")
      Attributed += S.Bytes;
  EXPECT_EQ(Attributed, PinnedBytes);
  EXPECT_EQ(obs::Profiler::get().livePinCount(), 0);
  EXPECT_EQ(obs::Profiler::get().livePinBytes(), 0);
}

TEST_F(ProfileTest, JsonDumpParsesBack) {
  using namespace mpl::ops;
  obs::Profiler::get().enable();
  {
    rt::Runtime R(workerCfg(2));
    R.run([] { (void)wl::exchange(500); });
  }
  std::string Dump = obs::Profiler::get().jsonDump();
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(Dump, V, Err)) << Err;
  const json::Value *Schema = V.field("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->StrV, "mpl-profile/1");
  const json::Value *Leaked = V.field("leaked_pins");
  ASSERT_NE(Leaked, nullptr);
  EXPECT_EQ(Leaked->NumV, 0);
  const json::Value *Sites = V.field("sites");
  ASSERT_NE(Sites, nullptr);
  ASSERT_TRUE(Sites->isArray());
  EXPECT_FALSE(Sites->Items.empty());
  for (const json::Value &S : Sites->Items) {
    EXPECT_NE(S.field("name"), nullptr);
    EXPECT_NE(S.field("events"), nullptr);
    EXPECT_NE(S.field("bytes"), nullptr);
  }
}

//===----------------------------------------------------------------------===//
// Heap-tree introspection (obs::snapshotHeapTree)
//===----------------------------------------------------------------------===//

TEST_F(ProfileTest, HeapTreeSnapshotWithoutRuntimeIsEmptyFallback) {
  std::string S = obs::snapshotHeapTree();
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(S, V, Err)) << Err;
  const json::Value *Live = V.field("live_heaps");
  ASSERT_NE(Live, nullptr);
  EXPECT_EQ(Live->NumV, 0);
}

TEST_F(ProfileTest, MetricsSampleCarriesHeapTreeSummary) {
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

  // The exported series carries the per-sample summary.
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(S.jsonDump(), Doc, Err)) << Err;
  const json::Value *Samples = Doc.field("samples");
  ASSERT_NE(Samples, nullptr);
  ASSERT_EQ(Samples->Items.size(), 2u);
  const json::Value *H = Samples->Items[1].field("heaps");
  ASSERT_NE(H, nullptr);
  ASSERT_NE(H->field("live"), nullptr);
  EXPECT_GE(H->field("live")->NumV, 1);
  ASSERT_NE(H->field("max_depth"), nullptr);
  EXPECT_GE(H->field("max_depth")->NumV, 0);
  const json::Value *Hist = H->field("depth_hist");
  ASSERT_NE(Hist, nullptr);
  ASSERT_TRUE(Hist->isArray());
  int64_t JsonSum = 0;
  for (const json::Value &B : Hist->Items)
    JsonSum += static_cast<int64_t>(B.NumV);
  EXPECT_EQ(JsonSum, static_cast<int64_t>(H->field("live")->NumV));
  S.clearSeries();
}

TEST_F(ProfileTest, HeapTreeSnapshotConcurrentWithForkJoinUnderChaos) {
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
  EXPECT_EQ(S.Count, 2);
  EXPECT_EQ(S.WindowNs, 50);
  EXPECT_EQ(S.Pct.P50, 127); // bucket upper bound of bit_width(64) == 7

  // One rotation per slot with no new samples: once the ring fills, the
  // oldest retained snapshot already contains both records, so the
  // windowed view is empty while the lifetime histogram still holds 2.
  for (int I = 1; I <= 4; ++I)
    W.maybeRotate(1000 + 100 * I);
  S = W.window(1450);
  EXPECT_EQ(S.Count, 0);
  EXPECT_EQ(H.count(), 2);
  EXPECT_LE(S.WindowNs, 4 * 100 + 50); // converged to ~Slots * SlotNs

  // New samples show up immediately (diff against the same base).
  H.record(128);
  S = W.window(1460);
  EXPECT_EQ(S.Count, 1);
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
  EXPECT_EQ(S.Count, 0);      // the stall-era sample aged out
  EXPECT_EQ(S.WindowNs, 310); // base is the collapsed post-stall snapshot
}

//===----------------------------------------------------------------------===//
// Signal-safe stats dump (MPL_STATS_DUMP)
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
