//===- tools/mpl_client.cpp - Request-server load driver ------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a mixed workload (fib / sort / primes / nqueens / pml / ping)
/// against a running mpl_server from -conns concurrent connections, with
/// the client-side robustness contract: reconnect on mid-request drops,
/// jittered exponential backoff on SHED/DRAINING honoring the server's
/// Retry-After hint. Prints an `mpl-client/1` JSON summary; exits 0 when
/// every delivered response was well-formed (undelivered requests — e.g. a
/// drain that outlasts the retry budget — are reported, not fatal).
///
///   mpl_client -port 41733 -n 200 -conns 4 -deadline-ms 2000 -seed 7
///
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "support/Cli.h"
#include "support/Json.h"
#include "support/Random.h"

#include <atomic>
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
  std::atomic<int64_t> Attempts{0};
  std::atomic<int64_t> BackoffMs{0};
};

Request makeRequest(uint64_t Id, uint32_t DeadlineMs, int MixIdx) {
  Request R;
  R.Id = Id;
  R.DeadlineMs = DeadlineMs;
  switch (MixIdx % 6) {
  case 0:
    R.Kind = RequestKind::Workload;
    R.Body = "fib 24";
    break;
  case 1:
    R.Kind = RequestKind::Workload;
    R.Body = "sort 50000";
    break;
  case 2:
    R.Kind = RequestKind::Workload;
    R.Body = "primes 50000";
    break;
  case 3:
    R.Kind = RequestKind::Workload;
    R.Body = "nqueens 8";
    break;
  case 4:
    R.Kind = RequestKind::Pml;
    R.Body = "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n"
             "fib 18";
    break;
  default:
    R.Kind = RequestKind::Ping;
    break;
  }
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli Cli(Argc, Argv);
  uint16_t Port = static_cast<uint16_t>(Cli.getInt("port", 0));
  int64_t N = Cli.getInt("n", 100);
  int Conns = static_cast<int>(Cli.getInt("conns", 4));
  uint32_t DeadlineMs = static_cast<uint32_t>(Cli.getInt("deadline-ms", 2000));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  int MaxAttempts = static_cast<int>(Cli.getInt("max-attempts", 6));
  if (Port == 0) {
    std::fprintf(stderr, "mpl_client: -port is required\n");
    return 2;
  }

  Tally T;
  int64_t PerConn = (N + Conns - 1) / Conns;
  std::vector<std::thread> Threads;
  for (int C = 0; C < Conns; ++C) {
    Threads.emplace_back([&, C] {
      Client Cl;
      RetryPolicy P;
      P.MaxAttempts = MaxAttempts;
      P.JitterSeed = hash64(Seed ^ static_cast<uint64_t>(C));
      for (int64_t I = 0; I < PerConn; ++I) {
        uint64_t Id = (static_cast<uint64_t>(C) << 32) |
                      static_cast<uint64_t>(I + 1);
        Request Req = makeRequest(Id, DeadlineMs,
                                  static_cast<int>(Id % 6));
        CallResult R = callWithRetry(Cl, Port, Req, P);
        T.Attempts.fetch_add(R.Attempts);
        T.BackoffMs.fetch_add(R.BackoffMsTotal);
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
  for (auto &Th : Threads)
    Th.join();

  json::Writer W;
  W.beginObject()
      .key("mpl-client/1")
      .beginObject()
      .kv("requests", PerConn * Conns)
      .kv("ok", T.Ok.load())
      .kv("shed", T.Shed.load())
      .kv("deadline_expired", T.DeadlineExpired.load())
      .kv("error", T.Error.load())
      .kv("draining", T.Draining.load())
      .kv("undelivered", T.Undelivered.load())
      .kv("attempts", T.Attempts.load())
      .kv("backoff_ms", T.BackoffMs.load())
      .endObject()
      .endObject();
  std::puts(W.take().c_str());
  return 0;
}
