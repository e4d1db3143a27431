//===- tools/mpl_top.cpp - Live server dashboard (watch CLI) --------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `top` for the request server: polls the live stats frame ('I',
/// DESIGN.md §16) and redraws a one-screen dashboard — pressure level,
/// queue depth, request/shed rates (from counter deltas between polls),
/// per-stage latency percentiles over the rolling window, pinned bytes,
/// and the current tail exemplars with their critical-path lines.
///
///   mpl_top -port 7070                  # refresh every second
///   mpl_top -port 7070 -interval-ms 250 -n 40
///   mpl_top -port 7070 -once            # one JSON snapshot to stdout
///   mpl_top -port 7070 -once -format prom -check
///
/// -once prints the raw frame body (mpl-stats/1 JSON, or Prometheus text
/// with -format prom) and exits — the scrape mode CI and scripts use.
/// -check additionally runs the exposition format checker over a `prom`
/// body and fails on duplicate series / non-monotone le buckets /
/// negative counters.
///
/// Exit: 0 on success, 1 on connect/protocol/check failure.
///
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "obs/Exposition.h"
#include "support/Cli.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

using namespace mpl;

namespace {

double numField(const json::Value &V, const char *Name, double Default = 0) {
  const json::Value *F = V.field(Name);
  return F && F->isNumber() ? F->NumV : Default;
}

std::string strField(const json::Value &V, const char *Name) {
  const json::Value *F = V.field(Name);
  return F && F->isString() ? F->StrV : "?";
}

void fmtNs(char *Buf, size_t Len, double Ns) {
  if (Ns >= 1e9)
    std::snprintf(Buf, Len, "%.2fs", Ns / 1e9);
  else if (Ns >= 1e6)
    std::snprintf(Buf, Len, "%.1fms", Ns / 1e6);
  else if (Ns >= 1e3)
    std::snprintf(Buf, Len, "%.1fus", Ns / 1e3);
  else
    std::snprintf(Buf, Len, "%.0fns", Ns);
}

void fmtBytes(char *Buf, size_t Len, double B) {
  if (B >= double(1) * (1 << 30))
    std::snprintf(Buf, Len, "%.2fGiB", B / (1 << 30));
  else if (B >= double(1) * (1 << 20))
    std::snprintf(Buf, Len, "%.1fMiB", B / (1 << 20));
  else if (B >= 1024)
    std::snprintf(Buf, Len, "%.1fKiB", B / 1024);
  else
    std::snprintf(Buf, Len, "%.0fB", B);
}

struct CounterView {
  double Requests = 0;
  double Ok = 0;
  double Shed = 0;
  double Deadline = 0;
  double Errors = 0;
  double Draining = 0;
};

CounterView readCounters(const json::Value &Stats) {
  CounterView C;
  if (const json::Value *Ctr = Stats.field("counters")) {
    C.Requests = numField(*Ctr, "net.requests");
    C.Ok = numField(*Ctr, "net.resp.ok");
    C.Shed = numField(*Ctr, "net.resp.shed");
    C.Deadline = numField(*Ctr, "net.resp.deadline_expired");
    C.Errors = numField(*Ctr, "net.resp.error");
    C.Draining = numField(*Ctr, "net.resp.draining");
  }
  return C;
}

void printPctRow(const json::Value &Parent, const char *Key,
                 const char *Label) {
  const json::Value *H = Parent.field(Key);
  if (!H)
    return;
  char P50[32], P99[32], P999[32];
  fmtNs(P50, sizeof(P50), numField(*H, "p50"));
  fmtNs(P99, sizeof(P99), numField(*H, "p99"));
  fmtNs(P999, sizeof(P999), numField(*H, "p999"));
  std::printf("  %-8s n=%-10.0f p50=%-9s p99=%-9s p99.9=%s\n", Label,
              numField(*H, "count"), P50, P99, P999);
}

/// One full dashboard redraw from a parsed mpl-stats/1 object.
void render(const json::Value &Stats, const CounterView &Prev,
            double IntervalSec, bool Clear) {
  if (Clear)
    std::printf("\x1b[H\x1b[2J");

  CounterView Cur = readCounters(Stats);
  double ReqRate = IntervalSec > 0 ? (Cur.Requests - Prev.Requests) /
                                         IntervalSec
                                   : 0;
  double ShedRate = IntervalSec > 0 ? (Cur.Shed - Prev.Shed) / IntervalSec : 0;

  std::printf("mpl_top — status=%s pressure=%s\n",
              strField(Stats, "status").c_str(),
              strField(Stats, "pressure").c_str());
  const json::Value *G = Stats.field("gauges");
  std::printf("queue %.0f/%.0f  inflight %.0f  |  %.1f req/s  %.1f shed/s\n",
              G ? numField(*G, "net.queue.depth") : 0,
              numField(Stats, "queue_cap"),
              G ? numField(*G, "net.inflight") : 0, ReqRate, ShedRate);
  std::printf("totals: ok=%.0f shed=%.0f deadline=%.0f error=%.0f "
              "draining=%.0f\n",
              Cur.Ok, Cur.Shed, Cur.Deadline, Cur.Errors, Cur.Draining);

  if (G) {
    char Pinned[32], Out[32], Lim[32];
    fmtBytes(Pinned, sizeof(Pinned), numField(*G, "em.live.pinned.bytes"));
    fmtBytes(Out, sizeof(Out), numField(*G, "mm.outstanding.bytes"));
    double LimB = numField(*G, "mm.limit.bytes");
    if (LimB > 0)
      fmtBytes(Lim, sizeof(Lim), LimB);
    else
      std::snprintf(Lim, sizeof(Lim), "unlimited");
    std::printf("mem: outstanding=%s limit=%s pinned=%s\n", Out, Lim, Pinned);
  }

  if (const json::Value *W = Stats.field("window")) {
    std::printf("window (%.1fs):\n", numField(*W, "window_ns") / 1e9);
    printPctRow(*W, "latency", "total");
    printPctRow(*W, "queue", "queue");
    printPctRow(*W, "exec", "exec");
  }
  if (const json::Value *St = Stats.field("stage")) {
    std::printf("lifetime stages:\n");
    printPctRow(*St, "queue", "queue");
    printPctRow(*St, "exec", "exec");
    printPctRow(*St, "reply", "reply");
  }
  if (const json::Value *Ex = Stats.field("exemplars");
      Ex && Ex->isArray() && !Ex->Items.empty()) {
    std::printf("worst requests:\n");
    for (const json::Value &E : Ex->Items) {
      char Total[32], Queue[32];
      fmtNs(Total, sizeof(Total), numField(E, "total_ns"));
      fmtNs(Queue, sizeof(Queue), numField(E, "queue_ns"));
      std::string Cp = strField(E, "cp");
      std::printf("  id=%-8.0f total=%-9s queue=%-9s %s\n", numField(E, "id"),
                  Total, Queue, Cp == "?" ? "" : Cp.c_str());
    }
  }
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C(Argc, Argv);
  uint16_t Port = static_cast<uint16_t>(C.getInt("port", 7070));
  int64_t IntervalMs = C.getInt("interval-ms", 1000);
  int64_t Iterations = C.getInt("n", 0); // 0 = until the server goes away
  bool Once = C.getBool("once");
  bool Check = C.getBool("check");
  bool NoClear = C.getBool("no-clear");
  std::string Format = C.getString("format", "json");
  std::string Options = Format == "prom" ? "format=prom" : "";

  net::Client Cl;
  if (!Cl.connect(Port)) {
    std::fprintf(stderr, "mpl_top: cannot connect to 127.0.0.1:%u\n",
                 unsigned(Port));
    return 1;
  }

  if (Once) {
    net::Response Resp;
    if (!Cl.introspect(Options, Resp) || Resp.St != net::Status::Ok) {
      std::fprintf(stderr, "mpl_top: stats frame failed\n");
      return 1;
    }
    std::printf("%s\n", Resp.Body.c_str());
    if (Check) {
      if (Format != "prom") {
        std::fprintf(stderr, "mpl_top: -check requires -format prom\n");
        return 1;
      }
      std::string Err;
      int Series = 0;
      if (!obs::checkExposition(Resp.Body, Err, &Series)) {
        std::fprintf(stderr, "mpl_top: exposition check FAILED: %s\n",
                     Err.c_str());
        return 1;
      }
      std::fprintf(stderr, "mpl_top: exposition check ok (%d series)\n",
                   Series);
    }
    return 0;
  }

  CounterView Prev;
  int64_t PrevNs = 0;
  for (int64_t I = 0; Iterations == 0 || I < Iterations; ++I) {
    net::Response Resp;
    if (!Cl.connected() && !Cl.connect(Port))
      break;
    if (!Cl.introspect("", Resp) || Resp.St != net::Status::Ok)
      break;
    json::Value Root;
    std::string Err;
    if (!json::parse(Resp.Body, Root, Err)) {
      std::fprintf(stderr, "mpl_top: bad stats frame: %s\n", Err.c_str());
      return 1;
    }
    const json::Value *Stats = Root.field("mpl-stats/1");
    if (!Stats) {
      std::fprintf(stderr, "mpl_top: not an mpl-stats/1 frame\n");
      return 1;
    }
    int64_t Now = nowNs();
    double IntervalSec = PrevNs > 0 ? double(Now - PrevNs) / 1e9 : 0;
    render(*Stats, Prev, IntervalSec, !NoClear);
    Prev = readCounters(*Stats);
    PrevNs = Now;
    if (Iterations == 0 || I + 1 < Iterations)
      std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
  return 0;
}
