//===- tests/net_test.cpp - Wire protocol and request server --------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Codec tests (varints, framing, message round-trips, malformed input —
/// all pure, no sockets) and end-to-end request-server tests: OK
/// responses, admission shedding, deadline expiry with zero leaked pins,
/// graceful drain, and seed-replayable wire chaos.
///
//===----------------------------------------------------------------------===//

#include "chaos/ChaosSchedule.h"
#include "mm/Chunk.h"
#include "mm/MemoryGovernor.h"
#include "net/Client.h"
#include "net/Frame.h"
#include "net/Server.h"
#include "obs/Exposition.h"
#include "support/EmCounters.h"
#include "support/Json.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace mpl;
using namespace mpl::net;

namespace {

std::vector<uint8_t> bytes(std::initializer_list<int> L) {
  std::vector<uint8_t> V;
  for (int B : L)
    V.push_back(static_cast<uint8_t>(B));
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Varints
//===----------------------------------------------------------------------===//

TEST(VarintTest, RoundTrip32) {
  for (uint64_t V : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                     0xffffffffull}) {
    std::string S;
    putVarint(S, V);
    uint32_t Out = 0;
    size_t Used = 0;
    ASSERT_EQ(getVarint(reinterpret_cast<const uint8_t *>(S.data()), S.size(),
                        Out, Used),
              DecodeStatus::Ok)
        << V;
    EXPECT_EQ(Out, V);
    EXPECT_EQ(Used, S.size());
  }
}

TEST(VarintTest, RoundTrip64) {
  for (uint64_t V :
       {0ull, 1ull, 0xffffffffull, 0x100000000ull, ~0ull >> 1, ~0ull}) {
    std::string S;
    putVarint(S, V);
    uint64_t Out = 0;
    size_t Used = 0;
    ASSERT_EQ(getVarint64(reinterpret_cast<const uint8_t *>(S.data()),
                          S.size(), Out, Used),
              DecodeStatus::Ok);
    EXPECT_EQ(Out, V);
    EXPECT_EQ(Used, S.size());
  }
}

TEST(VarintTest, TruncatedIsNeedMore) {
  // 0x80 = "value continues" with no next byte.
  auto B = bytes({0x80});
  uint32_t V = 0;
  size_t Used = 0;
  EXPECT_EQ(getVarint(B.data(), B.size(), V, Used), DecodeStatus::NeedMore);
}

TEST(VarintTest, FiveContinuationBytesIsMalformedFor32) {
  auto B = bytes({0x80, 0x80, 0x80, 0x80, 0x80, 0x01});
  uint32_t V = 0;
  size_t Used = 0;
  EXPECT_EQ(getVarint(B.data(), B.size(), V, Used), DecodeStatus::Malformed);
}

TEST(VarintTest, Overflow32IsMalformed) {
  // 2^32 encodes in 5 bytes but exceeds uint32.
  std::string S;
  putVarint(S, 0x100000000ull);
  uint32_t V = 0;
  size_t Used = 0;
  EXPECT_EQ(getVarint(reinterpret_cast<const uint8_t *>(S.data()), S.size(),
                      V, Used),
            DecodeStatus::Malformed);
}

TEST(VarintTest, NonCanonicalTrailingZeroIsMalformed) {
  // "0x80 0x00" is a 2-byte encoding of 0; only "0x00" is canonical.
  auto B = bytes({0x80, 0x00});
  uint32_t V = 0;
  size_t Used = 0;
  EXPECT_EQ(getVarint(B.data(), B.size(), V, Used), DecodeStatus::Malformed);
}

TEST(VarintTest, Overflow64IsMalformed) {
  // Eleven continuation bytes: shift past 64 bits.
  auto B = bytes({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                  0x01});
  uint64_t V = 0;
  size_t Used = 0;
  EXPECT_EQ(getVarint64(B.data(), B.size(), V, Used), DecodeStatus::Malformed);
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

TEST(FrameTest, RoundTripIncrementalFeed) {
  std::string P1(1000, 'a'), P2 = "x";
  std::string Wire = encodeFrame(P1) + encodeFrame(P2);
  FrameReader R;
  std::string Out;
  // Byte-at-a-time: NeedMore until each frame completes.
  std::vector<std::string> Got;
  for (char C : Wire) {
    R.feed(&C, 1);
    while (R.next(Out) == DecodeStatus::Ok)
      Got.push_back(Out);
  }
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0], P1);
  EXPECT_EQ(Got[1], P2);
  EXPECT_EQ(R.pendingBytes(), 0u);
}

TEST(FrameTest, OversizedLengthIsRejectedAndSticky) {
  std::string Wire;
  putVarint(Wire, MaxFrameBytes + 1);
  FrameReader R;
  R.feed(Wire.data(), Wire.size());
  std::string Out;
  EXPECT_EQ(R.next(Out), DecodeStatus::Oversized);
  // Sticky: more (even valid) bytes cannot resurrect the stream.
  std::string Valid = encodeFrame("ok");
  R.feed(Valid.data(), Valid.size());
  EXPECT_EQ(R.next(Out), DecodeStatus::Oversized);
}

TEST(FrameTest, MalformedLengthVarintIsSticky) {
  auto B = bytes({0x80, 0x80, 0x80, 0x80, 0x80, 0x01});
  FrameReader R;
  R.feed(B.data(), B.size());
  std::string Out;
  EXPECT_EQ(R.next(Out), DecodeStatus::Malformed);
  EXPECT_EQ(R.next(Out), DecodeStatus::Malformed);
}

TEST(FrameTest, TruncatedFrameStaysNeedMore) {
  std::string Wire = encodeFrame(std::string(100, 'z'));
  FrameReader R;
  R.feed(Wire.data(), Wire.size() - 1); // one byte short
  std::string Out;
  EXPECT_EQ(R.next(Out), DecodeStatus::NeedMore);
  R.feed(Wire.data() + Wire.size() - 1, 1);
  EXPECT_EQ(R.next(Out), DecodeStatus::Ok);
  EXPECT_EQ(Out.size(), 100u);
}

//===----------------------------------------------------------------------===//
// Messages
//===----------------------------------------------------------------------===//

TEST(MessageTest, RequestRoundTrip) {
  Request R;
  R.Id = 0x1234567890abcdefull;
  R.Kind = RequestKind::Workload;
  R.DeadlineMs = 2500;
  R.Body = "fib 30";
  Request Out;
  ASSERT_EQ(decodeRequest(encodeRequest(R), Out), DecodeStatus::Ok);
  EXPECT_EQ(Out.Id, R.Id);
  EXPECT_EQ(Out.Kind, R.Kind);
  EXPECT_EQ(Out.DeadlineMs, R.DeadlineMs);
  EXPECT_EQ(Out.Body, R.Body);
}

TEST(MessageTest, ResponseRoundTrip) {
  Response R;
  R.Id = 42;
  R.St = Status::Shed;
  R.RetryAfterMs = 200;
  R.Body = "pressure=hard queue=8/8";
  Response Out;
  ASSERT_EQ(decodeResponse(encodeResponse(R), Out), DecodeStatus::Ok);
  EXPECT_EQ(Out.Id, R.Id);
  EXPECT_EQ(Out.St, R.St);
  EXPECT_EQ(Out.RetryAfterMs, R.RetryAfterMs);
  EXPECT_EQ(Out.Body, R.Body);
}

TEST(MessageTest, MalformedMessagesRejected) {
  Request R;
  EXPECT_EQ(decodeRequest("", R), DecodeStatus::Malformed);
  EXPECT_EQ(decodeRequest("X", R), DecodeStatus::Malformed); // bad tag
  std::string Good = encodeRequest(Request{});
  // Truncated payload (drop last byte of a complete message).
  EXPECT_EQ(decodeRequest(Good.substr(0, Good.size() - 1), R),
            DecodeStatus::Malformed);
  // Trailing garbage after a complete message.
  EXPECT_EQ(decodeRequest(Good + "!", R), DecodeStatus::Malformed);
  // Out-of-range kind byte.
  std::string BadKind = Good;
  BadKind[2] = 9; // 'Q' varint(0) <kind> ...
  EXPECT_EQ(decodeRequest(BadKind, R), DecodeStatus::Malformed);
  Response S;
  EXPECT_EQ(decodeResponse("", S), DecodeStatus::Malformed);
  EXPECT_EQ(decodeResponse("Q", S), DecodeStatus::Malformed); // wrong tag
}

//===----------------------------------------------------------------------===//
// End-to-end server
//===----------------------------------------------------------------------===//

namespace {

/// Starts a server, runs \p Fn with it, drains, and returns totals.
template <typename Fn>
ServerTotals withServer(ServerConfig SC, Fn &&Body) {
  Server Srv(SC);
  EXPECT_TRUE(Srv.start());
  Body(Srv);
  Srv.waitUntilDrained();
  return Srv.totals();
}

} // namespace

TEST(ServerTest, OkResponsesForMixedKinds) {
  ServerConfig SC;
  SC.NumWorkers = 2;
  ServerTotals T = withServer(SC, [&](Server &Srv) {
    Client C;
    ASSERT_TRUE(C.connect(Srv.port()));
    Request R;
    R.Id = 1;
    R.Kind = RequestKind::Workload;
    R.Body = "fib 20";
    Response Resp;
    ASSERT_TRUE(C.call(R, Resp));
    EXPECT_EQ(Resp.Id, 1u);
    EXPECT_EQ(Resp.St, Status::Ok);
    EXPECT_EQ(Resp.Body, "6765");

    R.Id = 2;
    R.Kind = RequestKind::Pml;
    R.Body = "1 + 2 * 3";
    ASSERT_TRUE(C.call(R, Resp));
    EXPECT_EQ(Resp.St, Status::Ok);
    EXPECT_EQ(Resp.Body, "7 : int");

    R.Id = 3;
    R.Kind = RequestKind::Ping;
    R.Body.clear();
    ASSERT_TRUE(C.call(R, Resp));
    EXPECT_EQ(Resp.St, Status::Ok);
    EXPECT_EQ(Resp.Body, "pong");

    R.Id = 4;
    R.Kind = RequestKind::Workload;
    R.Body = "nosuchkernel 1";
    ASSERT_TRUE(C.call(R, Resp));
    EXPECT_EQ(Resp.St, Status::Error);
  });
  EXPECT_EQ(T.Requests, 4);
  EXPECT_EQ(T.Ok, 3);
  EXPECT_EQ(T.Errors, 1);
}

TEST(ServerTest, ZeroCapacityQueueShedsWithRetryHint) {
  ServerConfig SC;
  SC.QueueCap = 0; // the admission ladder can never admit
  ServerTotals T = withServer(SC, [&](Server &Srv) {
    Client C;
    ASSERT_TRUE(C.connect(Srv.port()));
    Request R;
    R.Id = 7;
    R.Kind = RequestKind::Workload;
    R.Body = "fib 10";
    Response Resp;
    ASSERT_TRUE(C.call(R, Resp));
    EXPECT_EQ(Resp.St, Status::Shed);
    EXPECT_GT(Resp.RetryAfterMs, 0u);
    EXPECT_NE(Resp.Body.find("pressure="), std::string::npos);
  });
  EXPECT_EQ(T.Shed, 1);
  EXPECT_EQ(T.Ok, 0);
}

TEST(ServerTest, DeadlineExpiresMidRunAndReleasesPins) {
  ServerConfig SC;
  SC.NumWorkers = 2;
  ServerTotals T = withServer(SC, [&](Server &Srv) {
    Client C;
    ASSERT_TRUE(C.connect(Srv.port()));
    Request R;
    R.Id = 9;
    R.Kind = RequestKind::Workload;
    R.Body = "fib 45"; // minutes of work; must be cut off in ~20ms
    R.DeadlineMs = 20;
    Response Resp;
    ASSERT_TRUE(C.call(R, Resp));
    EXPECT_EQ(Resp.St, Status::DeadlineExpired);
    EXPECT_NE(Resp.Body.find("overrun"), std::string::npos);
  });
  EXPECT_EQ(T.DeadlineExpired, 1);
  // The aborted task's heaps joined; the join unpin rule released its pins.
  EXPECT_EQ(em::Counts.snapshot().livePinnedObjects(), 0);
}

TEST(ServerTest, DrainRefusesNewWorkThenStops) {
  ServerConfig SC;
  ServerTotals T = withServer(SC, [&](Server &Srv) {
    Client C;
    ASSERT_TRUE(C.connect(Srv.port()));
    Request R;
    R.Id = 11;
    R.Kind = RequestKind::Workload;
    R.Body = "fib 15";
    Response Resp;
    ASSERT_TRUE(C.call(R, Resp));
    EXPECT_EQ(Resp.St, Status::Ok);
    Srv.requestDrain();
    // Same (still-open) connection: a request decoded during drain gets a
    // structured DRAINING response before the connection closes.
    R.Id = 12;
    if (C.call(R, Resp)) {
      EXPECT_EQ(Resp.St, Status::Draining);
    }
  });
  EXPECT_EQ(T.Ok, 1);
}

TEST(ServerTest, WireChaosIsReplayableBySeed) {
  // Deterministic every-Nth wire fault on the server's (single) connection
  // thread: two identical runs must observe identical fault totals, and
  // the client must survive every injection via reconnect + retry.
  auto RunOnce = [](int64_t &WireFaults, int64_t &Delivered) {
    chaos::Config CC;
    CC.Seed = 42;
    CC.WireFault = chaos::Fault::WireDrop;
    CC.WireFaultEveryN = 5;
    chaos::enable(CC);
    ServerConfig SC;
    Delivered = 0;
    ServerTotals T = withServer(SC, [&](Server &Srv) {
      Client C;
      RetryPolicy P;
      P.MaxAttempts = 10;
      for (int I = 0; I < 20; ++I) {
        Request R;
        R.Id = static_cast<uint64_t>(I) + 1;
        R.Kind = RequestKind::Workload;
        R.Body = "fib 12";
        CallResult CR = callWithRetry(C, Srv.port(), R, P);
        if (CR.Delivered && CR.St == Status::Ok)
          ++Delivered;
      }
    });
    WireFaults = T.WireFaults;
    chaos::disable();
  };
  int64_t F1 = 0, D1 = 0, F2 = 0, D2 = 0;
  RunOnce(F1, D1);
  RunOnce(F2, D2);
  EXPECT_GT(F1, 0);
  EXPECT_EQ(F1, F2) << "same seed, same wire-fault schedule";
  EXPECT_EQ(D1, 20);
  EXPECT_EQ(D2, 20);
}

//===----------------------------------------------------------------------===//
// Introspection plane ('I' stats frames, DESIGN.md §16)
//===----------------------------------------------------------------------===//

TEST(IntrospectTest, CodecRoundTrip) {
  Introspect Q;
  Q.Id = 0xfeedfacecafeull;
  Q.Options = "format=prom";
  Introspect Out;
  ASSERT_EQ(decodeIntrospect(encodeIntrospect(Q), Out), DecodeStatus::Ok);
  EXPECT_EQ(Out.Id, Q.Id);
  EXPECT_EQ(Out.Options, Q.Options);
  Q.Options.clear(); // the common no-options frame
  ASSERT_EQ(decodeIntrospect(encodeIntrospect(Q), Out), DecodeStatus::Ok);
  EXPECT_EQ(Out.Id, Q.Id);
  EXPECT_TRUE(Out.Options.empty());
}

TEST(IntrospectTest, MalformedRejected) {
  Introspect Out;
  EXPECT_EQ(decodeIntrospect("", Out), DecodeStatus::Malformed);
  EXPECT_EQ(decodeIntrospect("Q", Out), DecodeStatus::Malformed); // bad tag
  Introspect Q;
  Q.Id = 1;
  Q.Options = "x";
  std::string Good = encodeIntrospect(Q);
  // Truncated payload and trailing garbage.
  EXPECT_EQ(decodeIntrospect(Good.substr(0, Good.size() - 1), Out),
            DecodeStatus::Malformed);
  EXPECT_EQ(decodeIntrospect(Good + "!", Out), DecodeStatus::Malformed);
}

namespace {

/// Fetches one mpl-stats/1 frame over \p C and parses it; \p Stats points
/// into \p Doc on success.
bool fetchStats(Client &C, json::Value &Doc, const json::Value *&Stats) {
  Response Resp;
  if (!C.introspect("", Resp) || Resp.St != Status::Ok)
    return false;
  std::string Err;
  if (!json::parse(Resp.Body, Doc, Err))
    return false;
  Stats = Doc.field("mpl-stats/1");
  return Stats != nullptr;
}

double statNum(const json::Value &V, const char *Name) {
  const json::Value *F = V.field(Name);
  return F && F->isNumber() ? F->NumV : -1;
}

std::string statStr(const json::Value &V, const char *Name) {
  const json::Value *F = V.field(Name);
  return F && F->isString() ? F->StrV : "";
}

} // namespace

TEST(ServerStatsTest, StatsFrameDuringLoadKeepsBalance) {
  // The frame's counters are the registry's process totals, which fold in
  // the servers earlier tests retired: start this one from zero.
  StatRegistry::get().resetAll();
  ServerConfig SC;
  SC.NumWorkers = 2;
  ServerTotals T = withServer(SC, [&](Server &Srv) {
    Client C;
    ASSERT_TRUE(C.connect(Srv.port()));
    Response Resp;
    for (int I = 0; I < 6; ++I) {
      Request R;
      R.Id = static_cast<uint64_t>(I) + 1;
      R.Kind = RequestKind::Workload;
      R.Body = "fib 15";
      ASSERT_TRUE(C.call(R, Resp));
      EXPECT_EQ(Resp.St, Status::Ok);
    }
    json::Value Doc;
    const json::Value *S = nullptr;
    ASSERT_TRUE(fetchStats(C, Doc, S));
    EXPECT_EQ(statStr(*S, "status"), "serving");
    EXPECT_GE(statNum(*S, "queue_cap"), 1);

    const json::Value *Ctr = S->field("counters");
    ASSERT_NE(Ctr, nullptr);
    EXPECT_EQ(statNum(*Ctr, "net.requests"), 6);
    // The balance invariant the stats frame must never perturb: every
    // decoded request got exactly one counted response, and the one 'I'
    // frame answered so far is outside the balance.
    double Sum = statNum(*Ctr, "net.resp.ok") +
                 statNum(*Ctr, "net.resp.shed") +
                 statNum(*Ctr, "net.resp.deadline_expired") +
                 statNum(*Ctr, "net.resp.error") +
                 statNum(*Ctr, "net.resp.draining");
    EXPECT_EQ(Sum, 6);
    EXPECT_EQ(statNum(*Ctr, "net.introspect"), 1);

    // Stage decomposition saw every executed request. The reply stage is
    // recorded on the connection thread right after each response hit the
    // wire, strictly before this introspect was processed on that same
    // thread — so all six are visible.
    const json::Value *Lat = S->field("latency");
    ASSERT_NE(Lat, nullptr);
    EXPECT_EQ(statNum(*Lat, "count"), 6);
    const json::Value *Stage = S->field("stage");
    ASSERT_NE(Stage, nullptr);
    const json::Value *StQ = Stage->field("queue");
    const json::Value *StE = Stage->field("exec");
    const json::Value *StR = Stage->field("reply");
    ASSERT_TRUE(StQ && StE && StR);
    EXPECT_EQ(statNum(*StQ, "count"), 6);
    EXPECT_EQ(statNum(*StE, "count"), 6);
    EXPECT_EQ(statNum(*StR, "count"), 6);
    EXPECT_GE(statNum(*StE, "p50"), 0);

    const json::Value *W = S->field("window");
    ASSERT_NE(W, nullptr);
    EXPECT_GT(statNum(*W, "window_ns"), 0);
    // Gauges by registry name, the queue and memory ones mpl_top draws
    // among them; the queue depth and in-flight count are not repeated
    // at the top level.
    const json::Value *G = S->field("gauges");
    ASSERT_NE(G, nullptr);
    EXPECT_GE(statNum(*G, "net.queue.depth"), 0);
    EXPECT_GE(statNum(*G, "net.inflight"), 0);
    EXPECT_GE(statNum(*G, "mm.outstanding.bytes"), 0);
    EXPECT_GE(statNum(*G, "em.live.pinned.bytes"), 0);
    EXPECT_EQ(S->field("queue_depth"), nullptr);
    EXPECT_EQ(S->field("inflight"), nullptr);

    // Tail exemplars: capped at the K worst, sorted worst-first.
    const json::Value *Ex = S->field("exemplars");
    ASSERT_TRUE(Ex && Ex->isArray());
    EXPECT_GE(Ex->Items.size(), 1u);
    EXPECT_LE(Ex->Items.size(), 4u);
    double PrevTotal = -1;
    for (const json::Value &E : Ex->Items) {
      double Tot = statNum(E, "total_ns");
      EXPECT_GE(Tot, 0);
      if (PrevTotal >= 0) {
        EXPECT_LE(Tot, PrevTotal);
      }
      PrevTotal = Tot;
    }
  });
  EXPECT_EQ(T.Requests, 6);
  EXPECT_EQ(T.Ok, 6);
  EXPECT_EQ(T.Introspects, 1);
}

TEST(ServerStatsTest, FrameNamesEveryEmCounterAsTheRegistryDoes) {
  // One name per counter: after a request that pins, the frame's counters
  // carry every em.* counter under its registry name, with the value
  // snapshotAll() reports.
  ServerConfig SC;
  withServer(SC, [&](Server &Srv) {
    Client C;
    ASSERT_TRUE(C.connect(Srv.port()));
    Request R;
    R.Id = 1;
    R.Kind = RequestKind::Pml;
    // The left branch stores its own fresh ref into the parent's: a
    // down-pointer, pinned whatever the schedule.
    R.Body = "let val r = ref (ref 0) in par ((r := ref 7; 0), !(!r)) end";
    Response Resp;
    ASSERT_TRUE(C.call(R, Resp));
    ASSERT_EQ(Resp.St, Status::Ok) << Resp.Body;
    // Batches run one at a time, so once this answer arrives the pinning
    // run has joined and released its pins: the counters are at rest.
    R.Id = 2;
    R.Kind = RequestKind::Workload;
    R.Body = "fib 5";
    ASSERT_TRUE(C.call(R, Resp));
    ASSERT_EQ(Resp.St, Status::Ok);

    json::Value Doc;
    const json::Value *S = nullptr;
    ASSERT_TRUE(fetchStats(C, Doc, S));
    auto Snap = StatRegistry::get().snapshotAll();
    const json::Value *Ctr = S->field("counters");
    ASSERT_NE(Ctr, nullptr);
    int EmNames = 0;
    for (const auto &[Name, V] : Snap)
      if (Name.starts_with("em.")) {
        ++EmNames;
        EXPECT_EQ(statNum(*Ctr, Name.c_str()), V) << Name;
      }
    EXPECT_GE(EmNames, 10);
    EXPECT_GT(statNum(*Ctr, "em.pins.objects"), 0);
  });
}

TEST(ServerStatsTest, PrometheusFormatPassesChecker) {
  ServerConfig SC;
  withServer(SC, [&](Server &Srv) {
    Client C;
    ASSERT_TRUE(C.connect(Srv.port()));
    // Some traffic first so histograms and counters are non-trivial.
    Request R;
    R.Id = 1;
    R.Kind = RequestKind::Workload;
    R.Body = "fib 12";
    Response Resp;
    ASSERT_TRUE(C.call(R, Resp));
    ASSERT_TRUE(C.introspect("format=prom", Resp));
    ASSERT_EQ(Resp.St, Status::Ok);
    EXPECT_NE(Resp.Body.find("# TYPE"), std::string::npos);
    EXPECT_NE(Resp.Body.find("mpl_net_requests_total"), std::string::npos);
    std::string Err;
    int Series = 0;
    EXPECT_TRUE(obs::checkExposition(Resp.Body, Err, &Series)) << Err;
    EXPECT_GT(Series, 10);
  });
}

TEST(ServerStatsTest, StatsAnswerUnderCriticalPressure) {
  ServerConfig SC;
  ServerTotals T = withServer(SC, [&](Server &Srv) {
    Client C;
    ASSERT_TRUE(C.connect(Srv.port()));
    // Force Critical the way production reaches it: residency over a hard
    // limit (held chunk + 1-byte limit → Hard on reconfigure), then an
    // exhausted recovery ladder (raiseOom → Critical). adviseAdmission's
    // own pressure refresh keeps Critical while residency stays over the
    // limit.
    MemoryGovernor &MG = MemoryGovernor::get();
    MemoryGovernor::Config Old = MG.config();
    Chunk *Held = ChunkPool::get().acquire(); // under the old (unlimited) cfg
    MemoryGovernor::Config Tiny = Old;
    Tiny.LimitBytes = 1;
    MG.configure(Tiny);
    try {
      MG.raiseOom(64);
    } catch (const OutOfMemoryError &) {
    }
    EXPECT_EQ(MG.pressure(), Pressure::Critical);

    // Work is shed at the door (Critical admits nothing)...
    Request R;
    R.Id = 1;
    R.Kind = RequestKind::Workload;
    R.Body = "fib 10";
    Response Resp;
    if (C.call(R, Resp)) {
      EXPECT_EQ(Resp.St, Status::Shed);
    }
    // ...but the introspection plane still answers, and says why.
    json::Value Doc;
    const json::Value *S = nullptr;
    if (fetchStats(C, Doc, S)) {
      EXPECT_EQ(statStr(*S, "status"), "serving");
      EXPECT_EQ(statStr(*S, "pressure"), "critical");
    } else {
      ADD_FAILURE() << "stats frame failed under Critical pressure";
    }

    ChunkPool::get().release(Held);
    MG.configure(Old); // restore before drain so the executor exits clean
    EXPECT_EQ(MG.pressure(), Pressure::None);
  });
  EXPECT_EQ(T.Shed, 1);
  EXPECT_EQ(T.Introspects, 1);
}

TEST(ServerStatsTest, StatsDuringDrainReportDraining) {
  ServerConfig SC;
  ServerTotals T = withServer(SC, [&](Server &Srv) {
    Client C;
    ASSERT_TRUE(C.connect(Srv.port()));
    json::Value Doc1;
    const json::Value *S1 = nullptr;
    ASSERT_TRUE(fetchStats(C, Doc1, S1));
    EXPECT_EQ(statStr(*S1, "status"), "serving");
    // Answering the frame above restarted the connection's ~100ms recv
    // window, so a stats frame sent immediately after the drain flag flips
    // is decoded and answered before the idle-tick close.
    Srv.requestDrain();
    json::Value Doc2;
    const json::Value *S2 = nullptr;
    ASSERT_TRUE(fetchStats(C, Doc2, S2));
    EXPECT_EQ(statStr(*S2, "status"), "draining");
  });
  EXPECT_EQ(T.Introspects, 2);
}

TEST(ServerTest, BackoffHonorsServerHint) {
  RetryPolicy P;
  P.BaseBackoffMs = 10;
  P.MaxBackoffMs = 100;
  // The server hint is a floor: with a 200ms hint every backoff is >= 200.
  for (int A = 1; A <= 4; ++A)
    EXPECT_GE(P.backoffMs(A, 200), 200);
  // Without a hint, backoff is capped and positive.
  for (int A = 1; A <= 8; ++A) {
    int64_t W = P.backoffMs(A, 0);
    EXPECT_GE(W, 1);
    EXPECT_LE(W, P.MaxBackoffMs);
  }
}
