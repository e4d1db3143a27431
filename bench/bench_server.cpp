//===- bench/bench_server.cpp - Open-loop server load bench ---------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Open-loop load against an in-process request server (src/net): arrivals
/// are scheduled on a fixed-rate clock *independent of completions* — the
/// defining property of open-loop load, so a slow server accumulates
/// backlog instead of silently slowing the offered rate (closed-loop
/// coordinated omission). Latency is measured from each request's
/// *scheduled* arrival, so queueing behind a stalled connection counts.
///
/// Reports client-observed P50/P95/P99/P999 latency, the shed rate, the
/// server's drain totals, and the server-side stage breakdown (queue vs
/// exec p50/p99, fetched via the live stats frame before drain). Exits 1
/// if queue p99 exceeds the deadline with zero sheds — a coordinated-
/// omission check: a backlog that deep with no pushback means admission
/// control is blind. `-json` emits an mpl-bench/2 record (rows
/// keyed "request_latency"/"open-loop" with p*_ns and shed_rate fields) so
/// the GateLib regression gate can hold tail latency and shed rate to a
/// baseline. Chaos flags mirror mpl_server's, making this the one-command
/// reproduction of the robustness acceptance scenario:
///
///   MPL_MEM_LIMIT_MB=16 bench_server -rate 300 -duration-ms 4000
///       -chaos-seed 7 -wire-permille 20 -fault-every-n 5 -json out.json
///
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "chaos/ChaosSchedule.h"
#include "net/Client.h"
#include "net/Server.h"
#include "support/Cli.h"
#include "support/EmCounters.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace mpl;
using namespace mpl::net;

namespace {

struct Tally {
  std::atomic<int64_t> Ok{0};
  std::atomic<int64_t> Shed{0};
  std::atomic<int64_t> DeadlineExpired{0};
  std::atomic<int64_t> Error{0};
  std::atomic<int64_t> Draining{0};
  std::atomic<int64_t> Undelivered{0};
  std::atomic<int64_t> Late{0}; ///< Arrivals dispatched behind schedule.
};

/// Server-side stage breakdown (queue vs exec p50/p99), read from the live
/// stats frame ('I') after the load ends but before drain wipes the
/// server. Valid == false when the frame could not be fetched or parsed.
struct StageBreakdown {
  bool Valid = false;
  int64_t QueueP50 = 0;
  int64_t QueueP99 = 0;
  int64_t ExecP50 = 0;
  int64_t ExecP99 = 0;
};

StageBreakdown fetchStageBreakdown(uint16_t Port) {
  StageBreakdown B;
  Client Cl;
  Response Resp;
  if (!Cl.connect(Port) || !Cl.introspect("", Resp) ||
      Resp.St != Status::Ok)
    return B;
  json::Value Root;
  std::string Err;
  if (!json::parse(Resp.Body, Root, Err))
    return B;
  const json::Value *Stats = Root.field("mpl-stats/1");
  const json::Value *Stage = Stats ? Stats->field("stage") : nullptr;
  if (!Stage)
    return B;
  auto Pct = [](const json::Value *H, const char *Name) -> int64_t {
    const json::Value *F = H ? H->field(Name) : nullptr;
    return F && F->isNumber() ? static_cast<int64_t>(F->NumV) : 0;
  };
  const json::Value *Q = Stage->field("queue");
  const json::Value *E = Stage->field("exec");
  if (!Q || !E)
    return B;
  B.QueueP50 = Pct(Q, "p50");
  B.QueueP99 = Pct(Q, "p99");
  B.ExecP50 = Pct(E, "p50");
  B.ExecP99 = Pct(E, "p99");
  B.Valid = true;
  return B;
}

Request mixRequest(uint64_t Id, uint32_t DeadlineMs) {
  Request R;
  R.Id = Id;
  R.DeadlineMs = DeadlineMs;
  switch (Id % 5) {
  case 0:
    R.Kind = RequestKind::Workload;
    R.Body = "fib 22";
    break;
  case 1:
    R.Kind = RequestKind::Workload;
    R.Body = "sort 20000";
    break;
  case 2:
    R.Kind = RequestKind::Workload;
    R.Body = "primes 20000";
    break;
  case 3:
    R.Kind = RequestKind::Pml;
    R.Body = "fun f n = if n < 2 then n else f (n-1) + f (n-2)\nf 15";
    break;
  default:
    R.Kind = RequestKind::Ping;
    break;
  }
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C(Argc, Argv);
  int64_t Rate = C.getInt("rate", 200); // offered load, requests/sec
  int64_t DurationMs = C.getInt("duration-ms", 3000);
  int Conns = static_cast<int>(C.getInt("conns", 8));
  uint32_t DeadlineMs = static_cast<uint32_t>(C.getInt("deadline-ms", 1000));
  uint64_t Seed = static_cast<uint64_t>(C.getInt("chaos-seed", 0));
  int64_t WirePermille = C.getInt("wire-permille", 0);
  int64_t FaultEveryN = C.getInt("fault-every-n", 0);
  std::string JsonPath = C.getString("json", "");

  ServerConfig SC;
  SC.NumWorkers = static_cast<int>(C.getInt("workers", 2));
  SC.QueueCap = static_cast<int>(C.getInt("queue-cap", 64));
  SC.BatchMax = static_cast<int>(C.getInt("batch-max", 8));

  if (Seed != 0 || WirePermille > 0 || FaultEveryN > 0) {
    chaos::Config CC;
    CC.Seed = Seed != 0 ? Seed : 1;
    if (WirePermille > 0)
      CC.WirePermille = static_cast<uint32_t>(WirePermille);
    if (FaultEveryN > 0) {
      CC.InjectFault = chaos::Fault::FailChunkAlloc;
      CC.FaultEveryN = static_cast<uint32_t>(FaultEveryN);
    }
    chaos::enable(CC);
  }

  Server Srv(SC);
  if (!Srv.start()) {
    std::fprintf(stderr, "bench_server: bind failed\n");
    return 2;
  }
  uint16_t Port = Srv.port();

  Histogram Latency("bench.server.latency.ns");
  Tally T;
  std::atomic<int64_t> NextTicket{0};
  int64_t PeriodNs = 1000000000 / (Rate > 0 ? Rate : 1);
  int64_t Planned = DurationMs * 1000000 / PeriodNs;
  int64_t StartNs = nowNs();

  std::vector<std::thread> Senders;
  for (int S = 0; S < Conns; ++S) {
    Senders.emplace_back([&, S] {
      Client Cl;
      RetryPolicy P;
      P.JitterSeed = hash64(0xbe7cull ^ static_cast<uint64_t>(S));
      for (;;) {
        int64_t I = NextTicket.fetch_add(1, std::memory_order_relaxed);
        if (I >= Planned)
          return;
        int64_t Due = StartNs + I * PeriodNs;
        int64_t Now = nowNs();
        if (Due > Now)
          std::this_thread::sleep_for(std::chrono::nanoseconds(Due - Now));
        else
          T.Late.fetch_add(1);
        Request Req = mixRequest(static_cast<uint64_t>(I) + 1, DeadlineMs);
        CallResult R = callWithRetry(Cl, Port, Req, P);
        Latency.record(nowNs() - Due); // from *scheduled* arrival
        if (!R.Delivered) {
          T.Undelivered.fetch_add(1);
          continue;
        }
        switch (R.St) {
        case Status::Ok:
          T.Ok.fetch_add(1);
          break;
        case Status::Shed:
          T.Shed.fetch_add(1);
          break;
        case Status::DeadlineExpired:
          T.DeadlineExpired.fetch_add(1);
          break;
        case Status::Error:
          T.Error.fetch_add(1);
          break;
        case Status::Draining:
          T.Draining.fetch_add(1);
          break;
        }
      }
    });
  }
  for (auto &Th : Senders)
    Th.join();
  StageBreakdown SB = fetchStageBreakdown(Port);
  Srv.waitUntilDrained();

  ServerTotals ST = Srv.totals();
  int64_t LeakedPins = em::Counts.snapshot().livePinnedObjects();
  Histogram::Percentiles P = Latency.percentiles();
  int64_t Total = Planned;
  double ShedRate =
      Total > 0 ? static_cast<double>(T.Shed.load()) / Total : 0;

  std::printf("== bench_server: open-loop %lld req/s for %lldms "
              "(%d conns, %d workers) ==\n",
              static_cast<long long>(Rate),
              static_cast<long long>(DurationMs), Conns, SC.NumWorkers);
  Table Tab({"metric", "value"});
  Tab.addRow({"requests", Table::fmtInt(Total)});
  Tab.addRow({"ok", Table::fmtInt(T.Ok.load())});
  Tab.addRow({"shed", Table::fmtInt(T.Shed.load())});
  Tab.addRow({"deadline_expired", Table::fmtInt(T.DeadlineExpired.load())});
  Tab.addRow({"error", Table::fmtInt(T.Error.load())});
  Tab.addRow({"undelivered", Table::fmtInt(T.Undelivered.load())});
  Tab.addRow({"late_dispatch", Table::fmtInt(T.Late.load())});
  Tab.addRow({"p50_us", Table::fmtInt(P.P50 / 1000)});
  Tab.addRow({"p95_us", Table::fmtInt(P.P95 / 1000)});
  Tab.addRow({"p99_us", Table::fmtInt(P.P99 / 1000)});
  Tab.addRow({"p999_us", Table::fmtInt(P.P999 / 1000)});
  if (SB.Valid) {
    Tab.addRow({"stage_queue_p50_us", Table::fmtInt(SB.QueueP50 / 1000)});
    Tab.addRow({"stage_queue_p99_us", Table::fmtInt(SB.QueueP99 / 1000)});
    Tab.addRow({"stage_exec_p50_us", Table::fmtInt(SB.ExecP50 / 1000)});
    Tab.addRow({"stage_exec_p99_us", Table::fmtInt(SB.ExecP99 / 1000)});
  }
  Tab.addRow({"net.wire.faults", Table::fmtInt(ST.WireFaults)});
  Tab.addRow({"leaked_pins", Table::fmtInt(LeakedPins)});
  Tab.print();

  // Coordinated-omission sanity: if the server-side queue stage alone ate
  // the whole deadline budget yet *nothing* was shed, admission control
  // never saw the backlog — the latency numbers above are lies told by a
  // queue that absorbed the overload invisibly.
  bool QueueOverDeadline = SB.Valid && T.Shed.load() == 0 &&
                           ST.Shed == 0 &&
                           SB.QueueP99 > int64_t(DeadlineMs) * 1000000;
  if (QueueOverDeadline)
    std::fprintf(stderr,
                 "bench_server: FAIL: stage queue p99 (%lld ns) exceeds "
                 "the %u ms deadline with zero sheds — coordinated "
                 "omission: backlog absorbed without admission pushback\n",
                 static_cast<long long>(SB.QueueP99), DeadlineMs);

  if (!JsonPath.empty()) {
    bench::BenchJson J("server", /*Scale=*/1.0, /*Reps=*/1, /*WarmupReps=*/0);
    J.addMetaInt("rate", Rate);
    J.addMetaInt("duration_ms", DurationMs);
    J.addMetaInt("conns", Conns);
    J.addMetaInt("workers", SC.NumWorkers);
    J.addMetaInt("chaos_seed", static_cast<int64_t>(Seed));
    J.addMetaInt("wire_permille", WirePermille);
    J.addMetaInt("fault_every_n", FaultEveryN);
    J.addCustomRow(
        "request_latency", "open-loop", static_cast<double>(P.P50) * 1e-9,
        [&](json::Writer &W) {
          W.kv("p50_ns", P.P50)
              .kv("p95_ns", P.P95)
              .kv("p99_ns", P.P99)
              .kv("p999_ns", P.P999)
              .kv("shed_rate", ShedRate)
              .kv("ok", T.Ok.load())
              .kv("shed", T.Shed.load())
              .kv("deadline_expired", T.DeadlineExpired.load())
              .kv("undelivered", T.Undelivered.load())
              .kv("net.wire.faults", ST.WireFaults)
              .kv("leaked_pins", LeakedPins);
          if (SB.Valid)
            W.kv("queue_p50_ns", SB.QueueP50)
                .kv("queue_p99_ns", SB.QueueP99)
                .kv("exec_p50_ns", SB.ExecP50)
                .kv("exec_p99_ns", SB.ExecP99);
        });
    J.write(JsonPath);
  }
  if (chaos::active())
    chaos::disable();
  return LeakedPins == 0 && !QueueOverDeadline ? 0 : 1;
}
