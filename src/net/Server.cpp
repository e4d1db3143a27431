//===- net/Server.cpp - Entanglement-managed request server ---------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "chaos/ChaosSchedule.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "mm/MemoryGovernor.h"
#include "obs/Exposition.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "pml/Vm.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Timer.h"
#include "workloads/Collections.h"
#include "workloads/Kernels.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

using namespace mpl;
using namespace mpl::net;

namespace {

/// One admitted request in flight between a connection thread (producer,
/// waits on Prom's future) and the executor (consumer, fulfills it).
struct Pending {
  Request Req;
  /// EnqueueNs + deadline_ms, so queueing time counts against the
  /// deadline; 0 when the request has none.
  int64_t DeadlineNs = 0;
  std::promise<Response> Prom;
  // Latency-stage stamps (DESIGN.md §16): queue = Dequeue-Enqueue, exec =
  // ExecEnd-ExecStart; the reply stage is measured on the connection
  // thread as send-done minus ExecEnd. Zero = the stage never ran (e.g. a
  // drain-shed request has no exec stage).
  int64_t EnqueueNs = 0;
  int64_t DequeueNs = 0;
  int64_t ExecStartNs = 0;
  std::atomic<int64_t> ExecEndNs{0};
  std::atomic<bool> Fulfilled{false};
};

std::string fmtPressure(Pressure P, int64_t Depth, int64_t Cap) {
  std::ostringstream OS;
  OS << "pressure=" << pressureName(P) << " queue=" << Depth << "/" << Cap;
  return OS.str();
}

} // namespace

struct Server::Impl {
  ServerConfig Cfg;
  Server *Owner;

  int ListenFd = -1;
  std::thread AcceptThread;
  std::thread ExecThread;
  /// One per connection thread, with the flag it sets as its last act. Only
  /// the accept loop touches the list until waitUntilDrained joins it.
  struct Conn {
    std::thread T;
    std::atomic<bool> Done{false};
  };
  std::list<Conn> Conns;
  std::atomic<int> LiveConns{0};
  std::atomic<uint64_t> NextConnId{0};
  std::atomic<bool> AcceptStopped{false};
  bool Started = false;
  bool Joined = false;
  std::mutex JoinMu;

  std::mutex QMu;
  std::condition_variable QCv;
  std::deque<std::shared_ptr<Pending>> Queue;
  std::atomic<int64_t> QueueDepth{0};
  std::atomic<int64_t> Inflight{0};

  // net.* observability surface (registry-backed, so tests/tools can read
  // them via StatRegistry::valueOf and the metrics exporters pick them up).
  Stat Accepted{"net.conns.accepted"};
  Stat Requests{"net.requests"};
  Stat RespOk{"net.resp.ok"};
  Stat RespShed{"net.resp.shed"};
  Stat RespDeadline{"net.resp.deadline_expired"};
  Stat RespError{"net.resp.error"};
  Stat RespDraining{"net.resp.draining"};
  Stat ProtocolErrors{"net.protocol.errors"};
  Stat WireFaults{"net.wire.faults"};
  /// Stats frames served. Deliberately NOT part of Requests/Resp* — the
  /// introspection plane must not disturb the request-counter balance
  /// invariant (net.requests == sum of net.resp.*) that `mpl_report trace
  /// --check-net-balance` asserts.
  Stat Introspects{"net.introspect"};
  Histogram LatencyNs{"net.request.latency.ns"};
  Histogram StageQueueNs{"net.stage.queue.ns"};
  Histogram StageExecNs{"net.stage.exec.ns"};
  Histogram StageReplyNs{"net.stage.reply.ns"};
  /// Rolling windows (10 slots x 1s): percentiles over the last ~10s, so a
  /// long-lived server's stats frame reflects what is happening *now*
  /// rather than the process-lifetime average. Rotated from the accept
  /// loop's poll tick.
  static constexpr int WindowSlots = 10;
  static constexpr int64_t WindowSlotNs = 1000000000;
  RollingWindow WinLatency{LatencyNs, WindowSlots, WindowSlotNs};
  RollingWindow WinQueue{StageQueueNs, WindowSlots, WindowSlotNs};
  RollingWindow WinExec{StageExecNs, WindowSlots, WindowSlotNs};

  /// Tail exemplars: the K worst-latency requests so far, each annotated
  /// (post-batch, once the span ledger has merged the run) with the run's
  /// hottest critical-path source line.
  struct Exemplar {
    uint64_t Id = 0;
    int64_t TotalNs = 0;
    int64_t QueueNs = 0;
    int64_t ExecNs = 0;
    std::string CpLine;
  };
  static constexpr size_t MaxExemplars = 4;
  std::mutex ExemplarMu;
  std::vector<Exemplar> Exemplars; ///< Sorted worst-first, <= MaxExemplars.

  Gauge QueueGauge{"net.queue.depth", [this] {
    return QueueDepth.load(std::memory_order_relaxed);
  }};
  Gauge InflightGauge{"net.inflight", [this] {
    return Inflight.load(std::memory_order_relaxed);
  }};

  explicit Impl(const ServerConfig &C, Server *S) : Cfg(C), Owner(S) {}

  //===--------------------------------------------------------------------===//
  // Socket I/O with wire-chaos injection
  //===--------------------------------------------------------------------===//

  /// Sends all of \p Data, consulting the wire-fault channel first: Drop
  /// closes without writing, Truncate writes half a frame then gives up
  /// (the peer sees a mid-frame connection loss). Returns false when the
  /// connection is no longer usable.
  bool sendAll(int Fd, const std::string &Data) {
    chaos::preemptPoint(chaos::Point::WireWrite);
    size_t Limit = Data.size();
    bool FaultAfter = false;
    switch (chaos::wireFaultNow()) {
    case chaos::Fault::WireDrop:
      WireFaults.inc();
      return false;
    case chaos::Fault::WireTruncate:
      WireFaults.inc();
      Limit = Data.size() / 2;
      FaultAfter = true;
      break;
    case chaos::Fault::WireSlowRead:
      WireFaults.inc();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      break;
    default:
      break;
    }
    size_t Off = 0;
    while (Off < Limit) {
      ssize_t N = ::send(Fd, Data.data() + Off, Limit - Off, MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    return !FaultAfter;
  }

  //===--------------------------------------------------------------------===//
  // Connection threads
  //===--------------------------------------------------------------------===//

  void serveConn(int Fd, uint64_t ConnId) {
    obs::emit(obs::Ev::NetAccept, ConnId);
    // Bounded recv so the loop notices drain within ~100ms.
    timeval TV{};
    TV.tv_usec = 100 * 1000;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));

    FrameReader FR;
    std::string Payload;
    char Buf[4096];
    bool Alive = true;
    while (Alive) {
      chaos::preemptPoint(chaos::Point::WireRead);
      switch (chaos::wireFaultNow()) {
      case chaos::Fault::WireDrop:
      case chaos::Fault::WireTruncate: // mid-request drop, seen from reads
        WireFaults.inc();
        Alive = false;
        continue;
      case chaos::Fault::WireSlowRead:
        WireFaults.inc();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        break;
      default:
        break;
      }
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N == 0)
        break; // peer closed
      if (N < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // Idle tick. Once draining, stop waiting for more requests: the
          // peer gets a clean close and retries elsewhere.
          if (Owner->draining())
            break;
          continue;
        }
        if (errno == EINTR)
          continue;
        break;
      }
      FR.feed(Buf, static_cast<size_t>(N));
      DecodeStatus S = DecodeStatus::NeedMore;
      while (Alive && (S = FR.next(Payload)) == DecodeStatus::Ok) {
        // Stats frames ('I') are answered right here on the connection
        // thread from relaxed counter/gauge reads — no queue, no executor,
        // no runtime locks — so they keep working under Critical pressure
        // and during drain. They never count as Requests/Resp*, keeping
        // the net-balance invariant intact.
        if (!Payload.empty() && Payload[0] == 'I') {
          Introspect Q;
          if (decodeIntrospect(Payload, Q) != DecodeStatus::Ok) {
            ProtocolErrors.inc();
            Alive = false;
            break;
          }
          Introspects.inc();
          Response Resp;
          Resp.Id = Q.Id;
          Resp.St = Status::Ok;
          Resp.Body = Q.Options.find("format=prom") != std::string::npos
                          ? obs::renderPrometheus()
                          : statsJson();
          if (!sendAll(Fd, encodeFrame(encodeResponse(Resp))))
            Alive = false;
          continue;
        }
        Request Req;
        if (decodeRequest(Payload, Req) != DecodeStatus::Ok) {
          ProtocolErrors.inc();
          Alive = false;
          break;
        }
        Requests.inc();
        int64_t ExecEndNs = 0;
        Response Resp = dispatch(Req, ExecEndNs);
        if (!sendAll(Fd, encodeFrame(encodeResponse(Resp))))
          Alive = false;
        else if (ExecEndNs > 0)
          StageReplyNs.record(nowNs() - ExecEndNs);
      }
      if (S == DecodeStatus::Malformed || S == DecodeStatus::Oversized) {
        ProtocolErrors.inc();
        break;
      }
    }
    ::close(Fd);
    LiveConns.fetch_sub(1, std::memory_order_acq_rel);
    QCv.notify_all(); // executor may be waiting for quiescence
  }

  /// Admission + enqueue + wait: turns one decoded request into a
  /// response. \p ExecEndNs receives the executed request's exec-end stamp
  /// (0 when the request never reached the executor), so the caller can
  /// measure the reply stage after the response hits the wire.
  Response dispatch(const Request &Req, int64_t &ExecEndNs) {
    Response Resp;
    Resp.Id = Req.Id;

    if (Req.Kind == RequestKind::Ping) { // liveness: never touches the queue
      Resp.St = Status::Ok;
      Resp.Body = "pong";
      RespOk.inc();
      return Resp;
    }

    if (Owner->draining()) {
      Resp.St = Status::Draining;
      Resp.RetryAfterMs = 500;
      Resp.Body = "server draining";
      RespDraining.inc();
      return Resp;
    }

    int64_t Depth = QueueDepth.load(std::memory_order_relaxed);
    auto D = MemoryGovernor::get().adviseAdmission(Depth, Cfg.QueueCap);
    if (!D.Admit) {
      Resp.St = Status::Shed;
      Resp.RetryAfterMs = static_cast<uint32_t>(D.RetryAfterMs);
      Resp.Body = fmtPressure(D.Level, Depth, Cfg.QueueCap);
      RespShed.inc();
      obs::emit(obs::Ev::NetShed, Req.Id,
                static_cast<uint64_t>(D.Level));
      return Resp;
    }

    auto P = std::make_shared<Pending>();
    P->Req = Req;
    P->EnqueueNs = nowNs();
    if (Req.DeadlineMs > 0)
      P->DeadlineNs =
          P->EnqueueNs + static_cast<int64_t>(Req.DeadlineMs) * 1000000;
    std::future<Response> Fut = P->Prom.get_future();
    {
      std::lock_guard<std::mutex> L(QMu);
      Queue.push_back(P);
      QueueDepth.store(static_cast<int64_t>(Queue.size()),
                       std::memory_order_relaxed);
    }
    obs::emit(obs::Ev::NetFlowOut, Req.Id);
    QCv.notify_one();
    Response R = Fut.get(); // the executor always fulfills (or sheds)
    ExecEndNs = P->ExecEndNs.load(std::memory_order_acquire);
    return R;
  }

  //===--------------------------------------------------------------------===//
  // Executor: owns the Runtime, runs batches as fork-join tasks
  //===--------------------------------------------------------------------===//

  void fulfill(Pending &P, Response &&Resp) {
    if (P.Fulfilled.exchange(true, std::memory_order_acq_rel))
      return;
    int64_t Now = nowNs();
    P.ExecEndNs.store(Now, std::memory_order_release);
    int64_t TotalNs = Now - P.EnqueueNs;
    int64_t QueueNs = P.DequeueNs > 0 ? P.DequeueNs - P.EnqueueNs : TotalNs;
    int64_t ExecNs = P.ExecStartNs > 0 ? Now - P.ExecStartNs : 0;
    LatencyNs.record(TotalNs);
    StageQueueNs.record(QueueNs);
    if (P.ExecStartNs > 0)
      StageExecNs.record(ExecNs);
    noteExemplar(P.Req.Id, TotalNs, QueueNs, ExecNs);
    switch (Resp.St) {
    case Status::Ok:
      RespOk.inc();
      break;
    case Status::Shed:
      RespShed.inc();
      break;
    case Status::DeadlineExpired:
      RespDeadline.inc();
      break;
    case Status::Error:
      RespError.inc();
      break;
    case Status::Draining:
      RespDraining.inc();
      break;
    }
    P.Prom.set_value(std::move(Resp));
  }

  /// Keeps the K worst-latency requests, sorted worst-first.
  void noteExemplar(uint64_t Id, int64_t TotalNs, int64_t QueueNs,
                    int64_t ExecNs) {
    std::lock_guard<std::mutex> G(ExemplarMu);
    if (Exemplars.size() >= MaxExemplars &&
        TotalNs <= Exemplars.back().TotalNs)
      return;
    Exemplar E;
    E.Id = Id;
    E.TotalNs = TotalNs;
    E.QueueNs = QueueNs;
    E.ExecNs = ExecNs;
    auto It = std::upper_bound(
        Exemplars.begin(), Exemplars.end(), TotalNs,
        [](int64_t V, const Exemplar &X) { return V > X.TotalNs; });
    Exemplars.insert(It, std::move(E));
    if (Exemplars.size() > MaxExemplars)
      Exemplars.pop_back();
  }

  /// Post-batch: attach the run's hottest critical-path source line to any
  /// exemplar this batch produced. Runs on the executor thread right after
  /// Runtime::run returned, while SpanLedger::lastRun() still describes
  /// this batch's DAG (no-op unless MPL_OBS=spans armed the ledger).
  void annotateExemplars(const std::vector<std::shared_ptr<Pending>> &Batch) {
    obs::SpanRunSummary Sum = obs::SpanLedger::get().lastRun();
    if (!Sum.Valid || Sum.Lines.empty())
      return;
    uint32_t BestLoc = 0;
    int64_t BestCp = -1;
    for (const auto &[Loc, LS] : Sum.Lines)
      if (LS.CpSelfNs > BestCp) {
        BestCp = LS.CpSelfNs;
        BestLoc = Loc;
      }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "L%u:%u cp_self_ns=%lld", BestLoc >> 8,
                  BestLoc & 0xffu, static_cast<long long>(BestCp));
    std::lock_guard<std::mutex> G(ExemplarMu);
    for (const auto &P : Batch)
      for (Exemplar &E : Exemplars)
        if (E.Id == P->Req.Id && E.CpLine.empty())
          E.CpLine = Buf;
  }

  /// The mpl-stats/1 snapshot: everything here is a relaxed atomic read,
  /// one registry snapshot under its own short lock (whose gauge callbacks
  /// take at most a leaf lock, as for the Prometheus form), or the rolling
  /// windows' small internal mutex — never the queue lock or the executor,
  /// so this answers at full speed mid-load, under Critical pressure, and
  /// during drain. Counters, gauges and histograms keep their registry
  /// names; the counters are process totals (snapshotAll()).
  std::string statsJson() {
    int64_t Now = nowNs();
    MetricsSnapshot Reg = StatRegistry::get().snapshot();
    json::Writer W;
    auto Hist = [&W](std::string_view Key, const Histogram::Snapshot &H) {
      writeJson(W.key(Key), H);
    };
    W.beginObject()
        .key("mpl-stats/1")
        .beginObject()
        .kv("t_ns", Now)
        .kv("status", Owner->draining() ? "draining" : "serving")
        .kv("pressure", pressureName(MemoryGovernor::get().pressure()))
        .kv("queue_cap", Cfg.QueueCap);
    writeJson(W.key("counters"), Reg.Counters);
    writeJson(W.key("gauges"), Reg.Gauges);
    Hist("latency", LatencyNs.snapshot());
    W.key("stage").beginObject();
    Hist("queue", StageQueueNs.snapshot());
    Hist("exec", StageExecNs.snapshot());
    Hist("reply", StageReplyNs.snapshot());
    W.endObject();

    RollingWindow::WindowStats WL = WinLatency.window(Now);
    W.key("window").beginObject().kv("window_ns", WL.WindowNs);
    Hist("latency", WL.Hist);
    Hist("queue", WinQueue.window(Now).Hist);
    Hist("exec", WinExec.window(Now).Hist);
    W.endObject().key("exemplars").beginArray();
    {
      std::lock_guard<std::mutex> G(ExemplarMu);
      for (const Exemplar &X : Exemplars)
        W.beginObject()
            .kv("id", X.Id)
            .kv("total_ns", X.TotalNs)
            .kv("queue_ns", X.QueueNs)
            .kv("exec_ns", X.ExecNs)
            .kv("cp", X.CpLine)
            .endObject();
    }
    W.endArray().endObject().endObject();
    return W.take();
  }

  /// The request body proper; runs on a strand inside Runtime::run with the
  /// request's deadline attached. Throws on evaluation failure.
  std::string runBody(const Request &Req) {
    if (Req.Kind == RequestKind::Pml) {
      std::string Out, Rendered, Ty;
      std::vector<std::string> Errs;
      if (!pml::evalSource(Req.Body, Out, Rendered, Ty, Errs))
        throw std::runtime_error(Errs.empty() ? "pml evaluation failed"
                                              : Errs.front());
      return Out + Rendered + " : " + Ty;
    }
    // Workload: "<name> <n>".
    std::istringstream IS(Req.Body);
    std::string Name;
    int64_t N = 0;
    IS >> Name >> N;
    if (Name == "fib")
      return std::to_string(wl::fib(N > 0 ? N : 25));
    if (Name == "nqueens")
      return std::to_string(wl::nqueens(N > 0 ? static_cast<int>(N) : 8));
    if (Name == "primes") {
      Object *A = wl::primesUpTo(N > 0 ? N : 100000);
      return std::to_string(ops::arrLen(A));
    }
    if (Name == "sort") {
      int64_t Len = N > 0 ? N : 100000;
      Object *A = wl::randomInts(Len, 1 << 20, 0x5eedull + Req.Id);
      Object *S = wl::mergesortInts(A);
      return std::to_string(wl::sumInts(S));
    }
    throw std::runtime_error("unknown workload: " + Name);
  }

  /// Leaf of the batch fan-out: one request on its own strand/leaf heap.
  void runOne(Pending &P) {
    obs::emit(obs::Ev::NetFlowIn, P.Req.Id);
    P.ExecStartNs = nowNs();
    Inflight.fetch_add(1, std::memory_order_relaxed);
    rt::ScopedDeadline SD(P.DeadlineNs);
    Response Resp;
    Resp.Id = P.Req.Id;
    try {
      rt::checkDeadline(); // expired while queued
      Resp.Body = runBody(P.Req);
      Resp.St = Status::Ok;
    } catch (const DeadlineError &E) {
      Resp.St = Status::DeadlineExpired;
      Resp.Body =
          "deadline overrun by " + std::to_string(E.overrunNs()) + "ns";
      obs::emit(obs::Ev::NetDeadlineExpired, P.Req.Id,
                static_cast<uint64_t>(E.overrunNs()));
    } catch (const OutOfMemoryError &E) {
      auto D = MemoryGovernor::get().adviseAdmission(0, 1);
      Resp.St = Status::Shed;
      Resp.RetryAfterMs = static_cast<uint32_t>(
          D.RetryAfterMs > 0 ? D.RetryAfterMs : 100);
      Resp.Body = "oom: requested=" + std::to_string(E.requestedBytes()) +
                  " outstanding=" + std::to_string(E.outstandingBytes());
      obs::emit(obs::Ev::NetShed, P.Req.Id,
                static_cast<uint64_t>(MemoryGovernor::get().pressure()));
    } catch (const std::exception &E) {
      Resp.St = Status::Error;
      Resp.Body = E.what();
    }
    Inflight.fetch_sub(1, std::memory_order_relaxed);
    fulfill(P, std::move(Resp));
  }

  /// Binary fan-out so each request lands on its own rt::par leaf heap.
  void execRange(std::vector<std::shared_ptr<Pending>> &Batch, size_t Lo,
                 size_t Hi) {
    if (Hi - Lo == 1) {
      runOne(*Batch[Lo]);
      return;
    }
    size_t Mid = Lo + (Hi - Lo) / 2;
    rt::par([&] { execRange(Batch, Lo, Mid); return 0; },
            [&] { execRange(Batch, Mid, Hi); return 0; });
  }

  void execLoop() {
    rt::Config RC;
    RC.NumWorkers = Cfg.NumWorkers;
    auto R = std::make_unique<rt::Runtime>(RC);
    int64_t DrainStartNs = -1;
    for (;;) {
      std::vector<std::shared_ptr<Pending>> Batch;
      {
        std::unique_lock<std::mutex> L(QMu);
        QCv.wait_for(L, std::chrono::milliseconds(50),
                     [&] { return !Queue.empty(); });
        int64_t PopNs = nowNs();
        while (!Queue.empty() &&
               Batch.size() < static_cast<size_t>(Cfg.BatchMax)) {
          Queue.front()->DequeueNs = PopNs;
          Batch.push_back(std::move(Queue.front()));
          Queue.pop_front();
        }
        QueueDepth.store(static_cast<int64_t>(Queue.size()),
                         std::memory_order_relaxed);
      }
      bool Draining = Owner->draining();
      if (Draining && DrainStartNs < 0) {
        DrainStartNs = nowNs();
        obs::emit(obs::Ev::NetDrain,
                  static_cast<uint64_t>(Batch.size() +
                                        QueueDepth.load()));
      }
      if (!Batch.empty()) {
        bool DrainExpired =
            DrainStartNs >= 0 &&
            nowNs() - DrainStartNs >
                static_cast<int64_t>(Cfg.DrainTimeoutMs) * 1000000;
        if (DrainExpired) {
          // Past the drain budget: shed instead of running.
          for (auto &P : Batch) {
            Response Resp;
            Resp.Id = P->Req.Id;
            Resp.St = Status::Draining;
            Resp.RetryAfterMs = 500;
            Resp.Body = "drain timeout";
            fulfill(*P, std::move(Resp));
          }
        } else {
          try {
            R->run([&] { execRange(Batch, 0, Batch.size()); });
          } catch (...) {
            // Batch-level failure (e.g. OOM in the fan-out itself, before
            // any request's own catch): shed whatever wasn't fulfilled.
          }
          for (auto &P : Batch) {
            if (!P->Fulfilled.load(std::memory_order_acquire)) {
              Response Resp;
              Resp.Id = P->Req.Id;
              Resp.St = Status::Shed;
              Resp.RetryAfterMs = 100;
              Resp.Body = "batch aborted under memory pressure";
              obs::emit(obs::Ev::NetShed, P->Req.Id,
                        static_cast<uint64_t>(
                            MemoryGovernor::get().pressure()));
              fulfill(*P, std::move(Resp));
            }
          }
          annotateExemplars(Batch);
        }
        continue; // drain the queue before checking for exit
      }
      // Exit once drain has begun, the accept loop is gone, every
      // connection has unwound (so nothing can enqueue), and the queue is
      // empty. Destroying the Runtime below flushes the obs exports.
      if (Draining && AcceptStopped.load(std::memory_order_acquire) &&
          LiveConns.load(std::memory_order_acquire) == 0) {
        std::lock_guard<std::mutex> L(QMu);
        if (Queue.empty())
          break;
      }
    }
    R.reset(); // Runtime dtor: trace/metrics/span export flush
  }

  //===--------------------------------------------------------------------===//
  // Accept loop
  //===--------------------------------------------------------------------===//

  void acceptLoop() {
    pollfd PF{};
    PF.fd = ListenFd;
    PF.events = POLLIN;
    while (!Owner->draining()) {
      // The accept loop doubles as the introspection plane's periodic
      // driver: rotate the rolling-window snapshots and service a pending
      // SIGUSR1 stats dump each ~100ms tick. Both are O(buckets) and touch no
      // executor state.
      int64_t Tick = nowNs();
      WinLatency.maybeRotate(Tick);
      WinQueue.maybeRotate(Tick);
      WinExec.maybeRotate(Tick);
      obs::serviceStatsDump();
      // Join the connection threads that have finished, so none keeps its
      // stack mapped until drain.
      Conns.remove_if([](Conn &C) {
        if (!C.Done.load(std::memory_order_acquire))
          return false;
        C.T.join();
        return true;
      });
      int R = ::poll(&PF, 1, 100);
      if (R <= 0)
        continue;
      sockaddr_in Peer{};
      socklen_t PeerLen = sizeof(Peer);
      int Fd = ::accept(ListenFd, reinterpret_cast<sockaddr *>(&Peer),
                        &PeerLen);
      if (Fd < 0)
        continue;
      if (LiveConns.load(std::memory_order_relaxed) >= Cfg.MaxConns) {
        ::close(Fd);
        continue;
      }
      Accepted.inc();
      LiveConns.fetch_add(1, std::memory_order_acq_rel);
      uint64_t ConnId = NextConnId.fetch_add(1, std::memory_order_relaxed);
      Conn &C = Conns.emplace_back();
      C.T = std::thread([this, Fd, ConnId, &C] {
        serveConn(Fd, ConnId);
        C.Done.store(true, std::memory_order_release);
      });
    }
    ::close(ListenFd);
    ListenFd = -1;
    AcceptStopped.store(true, std::memory_order_release);
    QCv.notify_all();
  }
};

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(const ServerConfig &C) : I(new Impl(C, this)) {}

Server::~Server() {
  if (I->Started)
    waitUntilDrained();
  delete I;
}

bool Server::start() {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(I->Cfg.Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    ::close(Fd);
    return false;
  }
  socklen_t AddrLen = sizeof(Addr);
  ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &AddrLen);
  BoundPort = ntohs(Addr.sin_port);
  I->ListenFd = Fd;
  I->Started = true;
  I->AcceptThread = std::thread([this] { I->acceptLoop(); });
  I->ExecThread = std::thread([this] { I->execLoop(); });
  return true;
}

void Server::waitUntilDrained() {
  requestDrain();
  std::lock_guard<std::mutex> JL(I->JoinMu);
  if (I->Joined || !I->Started)
    return;
  I->AcceptThread.join();
  // The accept thread is gone, so Conns is stable now.
  for (Impl::Conn &C : I->Conns)
    C.T.join();
  I->Conns.clear();
  I->ExecThread.join();
  I->Joined = true;
}

ServerTotals Server::totals() const {
  ServerTotals T;
  T.Accepted = I->Accepted.get();
  T.Requests = I->Requests.get();
  T.Ok = I->RespOk.get();
  T.Shed = I->RespShed.get();
  T.DeadlineExpired = I->RespDeadline.get();
  T.Errors = I->RespError.get();
  T.Draining = I->RespDraining.get();
  T.WireFaults = I->WireFaults.get();
  T.ProtocolErrors = I->ProtocolErrors.get();
  T.Introspects = I->Introspects.get();
  return T;
}
