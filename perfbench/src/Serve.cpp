//===- perfbench/src/Serve.cpp - The wire phase of the traced pml run -----===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include "OpenLoop.h"
#include "Stats.h"

#include "net/Client.h"
#include "pml/jit/Jit.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace mpl;

namespace pb {

namespace {

/// A send counts as late when it leaves this long after it was due.
constexpr int64_t LateToleranceNs = 1'000'000;

net::Request wireRequest(const Request &Q) {
  net::Request W;
  W.Id = Q.Id;
  W.Kind = Q.K == Request::Pml ? net::RequestKind::Pml
                               : net::RequestKind::Workload;
  W.Body = Q.Body;
  return W;
}

/// One connected client per connection.
class Clients {
public:
  Clients(int N, uint16_t Port) : Port(Port) {
    for (int I = 0; I < N; ++I) {
      C.push_back(std::make_unique<net::Client>());
      C.back()->connect(Port);
    }
  }
  int size() const { return static_cast<int>(C.size()); }
  /// One call on connection \p Conn, reconnecting first if an earlier
  /// transport failure closed it.
  bool call(int Conn, const net::Request &Req, net::Response &Resp) {
    net::Client &Cl = *C[static_cast<size_t>(Conn)];
    if (!Cl.connected() && !Cl.connect(Port))
      return false;
    return Cl.call(Req, Resp);
  }
  net::Client &first() { return *C.front(); }

private:
  uint16_t Port;
  std::vector<std::unique_ptr<net::Client>> C;
};

/// Sends \p Reqs open-loop at \p Rps, one span per request, and checks
/// every reply into \p Res.
std::vector<SendRecord> sendPhase(const std::vector<Request> &Reqs, double Rps,
                                  Clients &Cl, SpanLog &L, Result &Res) {
  int PhaseSpan = L.begin("phase.wire");
  std::vector<std::string> Got(Reqs.size());
  auto Call = [&](int Conn, size_t I) {
    net::Response Resp;
    if (!Cl.call(Conn, wireRequest(Reqs[I]), Resp)) {
      Got[I] = "<transport failure>";
      return false;
    }
    Got[I] = std::string(net::statusName(Resp.St)) + ": " + Resp.Body;
    return Resp.St == net::Status::Ok && Resp.Body == Reqs[I].Expected;
  };
  // Start a little ahead so the first sends are not late by set-up.
  std::vector<SendRecord> Recs = runOpenLoop(
      fixedRateSchedule(Reqs.size(), Rps, nowNs() + 2'000'000), Cl.size(),
      Call);
  L.end(PhaseSpan);
  for (size_t I = 0; I < Reqs.size(); ++I) {
    const SendRecord &R = Recs[I];
    Res.check(R.Ok, "wire " + Reqs[I].Body.substr(0, 24) + ": got '" +
                        Got[I] + "', expected '" + Reqs[I].Expected + "'");
    int Id = L.add("net.request", R.DueNs, R.DoneNs, PhaseSpan, Reqs[I].Id);
    L.add("net.call", R.SentNs, R.DoneNs, Id, Reqs[I].Id);
  }
  std::vector<double> Ms = latenciesMs(Recs);
  std::fprintf(stderr,
               "phase.wire %.0f req/s  n=%zu  p50 %.3f ms  p99 %.3f ms\n", Rps,
               Recs.size(), quantile(Ms, 0.5), quantile(Ms, 0.99));
  return Recs;
}

/// The stats frame's stage quantiles, in milliseconds.
void readStages(Clients &Cl, SpanLog &L, ServeStats &S, Result &Res) {
  SpanLog::Scope Sp(L, "net.stats_frame");
  net::Response Resp;
  json::Value V;
  std::string Err;
  bool Ok = Cl.first().introspect("", Resp) &&
            json::parse(Resp.Body, V, Err) && V.field("mpl-stats/1");
  Res.check(Ok,
            "stats frame: " + (Err.empty() ? Resp.Body.substr(0, 80) : Err));
  if (!Ok)
    return;
  const json::Value *Stage = V.field("mpl-stats/1")->field("stage");
  auto Ms = [&](const char *Which, const char *Q) {
    const json::Value *H = Stage ? Stage->field(Which) : nullptr;
    const json::Value *X = H ? H->field(Q) : nullptr;
    return X && X->isNumber() ? 1e-6 * X->NumV : 0.0;
  };
  S.QueueP50Ms = Ms("queue", "p50");
  S.QueueP99Ms = Ms("queue", "p99");
  S.ExecP50Ms = Ms("exec", "p50");
  S.ExecP99Ms = Ms("exec", "p99");
  S.ReplyP50Ms = Ms("reply", "p50");
  S.ReplyP99Ms = Ms("reply", "p99");
}

/// Drains the server and checks the request-counter balance.
net::ServerTotals drain(net::Server &Srv, SpanLog &L, Result &Res) {
  SpanLog::Scope Sp(L, "net.drain");
  Srv.requestDrain();
  Srv.waitUntilDrained();
  net::ServerTotals T = Srv.totals();
  Res.check(T.Requests == T.Ok + T.Shed + T.DeadlineExpired + T.Errors +
                              T.Draining,
            "server totals do not balance: requests=" +
                std::to_string(T.Requests));
  return T;
}

std::unique_ptr<net::Server> startServer(SpanLog &L, Result &Res) {
  SpanLog::Scope Sp(L, "net.server_start");
  jit::setEnabled(false); // the server at its defaults: interpreter
  auto Srv = std::make_unique<net::Server>(net::ServerConfig{});
  bool Started = Srv->start();
  Res.check(Started, "net::Server failed to start");
  return Started ? std::move(Srv) : nullptr;
}

} // namespace

ServeStats runWirePhase(const Options &O, SpanLog &L, Result &Res) {
  ServeStats S;
  size_t N =
      std::max<size_t>(8, static_cast<size_t>(WireRps * 0.1 * O.Seconds));
  std::vector<Request> Reqs = makeRequests(N, O.Seed, O.Scale);
  std::unique_ptr<net::Server> Srv = startServer(L, Res);
  if (!Srv)
    return S;
  {
    Clients Cl(std::max(1, O.P), Srv->port()); // at most nproc connections
    Lateness Lt =
        lateness(sendPhase(Reqs, WireRps, Cl, L, Res), LateToleranceNs);
    S.Late = Lt.Late;
    S.LateMaxMs = Lt.MaxMs;
    readStages(Cl, L, S, Res);
  }
  S.Totals = drain(*Srv, L, Res);
  return S;
}

void serveLayerMetrics(Result &Res, const ServeStats &S) {
  Res.layer("net.queue_ms.p50", S.QueueP50Ms, "ms");
  Res.layer("net.queue_ms.p99", S.QueueP99Ms, "ms");
  Res.layer("net.exec_ms.p50", S.ExecP50Ms, "ms");
  Res.layer("net.exec_ms.p99", S.ExecP99Ms, "ms");
  Res.layer("net.reply_ms.p50", S.ReplyP50Ms, "ms");
  Res.layer("net.reply_ms.p99", S.ReplyP99Ms, "ms");
  Res.layer("net.ok", static_cast<double>(S.Totals.Ok), "count");
  Res.layer("net.shed", static_cast<double>(S.Totals.Shed), "count");
  Res.layer("net.deadline_expired",
            static_cast<double>(S.Totals.DeadlineExpired), "count");
  Res.layer("net.errors", static_cast<double>(S.Totals.Errors), "count");
  Res.layer("net.late", static_cast<double>(S.Late), "count");
  Res.layer("net.late_max_ms", S.LateMaxMs, "ms");
}

} // namespace pb
