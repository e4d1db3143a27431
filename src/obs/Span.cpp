//===- obs/Span.cpp - Causal span ledger for the fork-join DAG ------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Span.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace mpl;
using namespace mpl::obs;

namespace mpl {
namespace obs {
namespace detail {
std::atomic<uint32_t> SpanActiveFlag{0};
std::atomic<uint64_t> NextSpanId{1};
thread_local SpanTask *CurSpanTask = nullptr;
thread_local uint32_t CurPmlLoc = 0;
} // namespace detail
} // namespace obs
} // namespace mpl

namespace {

/// Records are capped per shard so a runaway workload bounds the ledger at
/// ~48 MB/thread; overflow is counted, and a run with drops reports an
/// unusable (Valid=false) DAG rather than a silently wrong critical path.
constexpr size_t MaxRecordsPerShard = size_t(1) << 20;
constexpr size_t MaxLineEntriesPerShard = 4096;

/// Thread-local shard handle, retired (not freed) on thread exit so a
/// post-join merge still sees the records.
struct SpanTlsSlot {
  void *S = nullptr; ///< SpanLedger::Shard*, opaque here.
  std::atomic<bool> *Retired = nullptr;
  ~SpanTlsSlot() {
    if (Retired)
      Retired->store(true, std::memory_order_release);
  }
};
thread_local SpanTlsSlot SpanTls;
thread_local int SpanTlsWorkerId = -1;

uint16_t sat16(uint32_t V) { return V > 0xffff ? 0xffff : uint16_t(V); }

/// Cumulative per-depth finished-task counters (SpanLedger::TaskDepthBuckets
/// buckets, last one saturating). Relaxed: sampled asynchronously by the
/// metrics thread, exactness per sample does not matter.
std::atomic<int64_t> TaskDepthCounts[SpanLedger::TaskDepthBuckets] = {};
uint8_t sat8(uint32_t V) { return V > 0xff ? 0xff : uint8_t(V); }

} // namespace

//===----------------------------------------------------------------------===//
// SpanLedger
//===----------------------------------------------------------------------===//

SpanLedger &SpanLedger::get() {
  static SpanLedger Instance;
  return Instance;
}

void SpanLedger::enable() {
  detail::SpanActiveFlag.store(1, std::memory_order_release);
}

void SpanLedger::disable() {
  detail::SpanActiveFlag.store(0, std::memory_order_release);
}

bool SpanLedger::enabled() const {
  return detail::SpanActiveFlag.load(std::memory_order_acquire) != 0;
}

SpanLedger::Shard *SpanLedger::threadShard() {
  if (SpanTls.S)
    return static_cast<Shard *>(SpanTls.S);
  std::lock_guard<std::mutex> G(Mu);
  auto S = std::make_unique<Shard>();
  S->WorkerId = SpanTlsWorkerId >= 0 ? SpanTlsWorkerId : NextForeignWorker++;
  S->Recs.reserve(1024);
  SpanTls.S = S.get();
  SpanTls.Retired = &S->Retired;
  Shards.push_back(std::move(S));
  return static_cast<Shard *>(SpanTls.S);
}

void SpanLedger::labelThread(int Id) {
  SpanTlsWorkerId = Id;
  if (SpanTls.S)
    static_cast<Shard *>(SpanTls.S)->WorkerId = Id;
}

void SpanLedger::append(const SpanRecord &R) {
  Shard *S = threadShard();
  if (S->Recs.size() >= MaxRecordsPerShard) {
    ++S->Dropped;
    return;
  }
  S->Recs.push_back(R);
}

void SpanLedger::noteLineEvent(uint32_t Loc, bool Pin) {
  Shard *S = threadShard();
  if (S->LineEv.size() >= MaxLineEntriesPerShard &&
      S->LineEv.find(Loc) == S->LineEv.end())
    return;
  SpanLineStat &L = S->LineEv[Loc];
  if (Pin)
    ++L.Pins;
  else
    ++L.EmReads;
}

void SpanLedger::runBegin() {
  std::lock_guard<std::mutex> G(Mu);
  Shards.erase(std::remove_if(Shards.begin(), Shards.end(),
                              [](const std::unique_ptr<Shard> &S) {
                                return S->Retired.load(
                                    std::memory_order_acquire);
                              }),
               Shards.end());
  for (auto &S : Shards) {
    S->Recs.clear();
    S->LineEv.clear();
    S->Dropped = 0;
  }
  detail::NextSpanId.store(1, std::memory_order_relaxed);
  RunBaseNs.store(nowNs(), std::memory_order_relaxed);
}

void SpanLedger::runEnd(double WorkSec, double SpanSec) {
  std::lock_guard<std::mutex> G(Mu);

  SpanRunSummary Sum;
  Sum.SchedWorkSec = WorkSec;
  Sum.SchedSpanSec = SpanSec;

  // Gather (record, worker) across shards and merge the line-event maps.
  struct Rec {
    SpanRecord R;
    int Worker;
  };
  std::vector<Rec> Recs;
  std::unordered_map<uint32_t, SpanLineStat> Lines;
  for (const auto &S : Shards) {
    Sum.Dropped += static_cast<int64_t>(S->Dropped);
    for (const SpanRecord &R : S->Recs)
      Recs.push_back({R, S->WorkerId});
    for (const auto &KV : S->LineEv) {
      SpanLineStat &L = Lines[KV.first];
      L.EmReads += KV.second.EmReads;
      L.Pins += KV.second.Pins;
    }
  }

  Sum.Tasks = static_cast<int64_t>(Recs.size());
  int64_t Base = RunBaseNs.load(std::memory_order_relaxed);

  // Index by id; find the root; collect children per parent.
  std::unordered_map<uint64_t, size_t> ById;
  ById.reserve(Recs.size() * 2);
  for (size_t I = 0; I < Recs.size(); ++I)
    ById.emplace(Recs[I].R.Id, I);

  size_t Root = Recs.size();
  std::vector<std::vector<size_t>> Children(Recs.size());
  bool Broken = Sum.Dropped > 0;
  for (size_t I = 0; I < Recs.size(); ++I) {
    const SpanRecord &R = Recs[I].R;
    if (R.Parent == ~uint64_t(0)) {
      if (Root != Recs.size())
        Broken = true; // Two roots: shards from different runs mixed.
      Root = I;
      continue;
    }
    auto It = ById.find(R.Parent);
    if (It == ById.end()) {
      Broken = true; // Parent record missing (dropped).
      continue;
    }
    Children[It->second].push_back(I);
  }
  for (auto &C : Children)
    std::sort(C.begin(), C.end(),
              [&](size_t A, size_t B) { return Recs[A].R.Id < Recs[B].R.Id; });

  int64_t TotalSelf = 0, TotalEm = 0, TotalPins = 0;
  for (const Rec &R : Recs) {
    TotalSelf += R.R.SelfNs;
    TotalEm += R.R.EmReads;
    TotalPins += R.R.Pins;
  }
  Sum.LedgerWorkSec = static_cast<double>(TotalSelf) * 1e-9;
  Sum.EmReads = TotalEm;
  Sum.PinEvents = TotalPins;

  std::vector<int64_t> Cp(Recs.size(), 0);
  std::vector<char> OnCp(Recs.size(), 0);
  if (Root != Recs.size() && !Broken) {
    // CP(T) = Self(T) + sum over fork pairs max(CP(a), CP(b)), computed
    // with an explicit post-order stack (recursion depth is the DAG depth,
    // which fib-style workloads make thousands deep).
    std::vector<std::pair<size_t, size_t>> Stack; // (node, next child pos)
    Stack.emplace_back(Root, 0);
    while (!Stack.empty()) {
      auto &[N, Pos] = Stack.back();
      if (Pos < Children[N].size()) {
        size_t C = Children[N][Pos++];
        Stack.emplace_back(C, 0);
        continue;
      }
      int64_t V = Recs[N].R.SelfNs;
      const auto &Cs = Children[N];
      for (size_t I = 0; I + 1 < Cs.size(); I += 2)
        V += std::max(Cp[Cs[I]], Cp[Cs[I + 1]]);
      if (Cs.size() % 2 != 0) // Unpaired child: count it (defensive).
        V += Cp[Cs.back()];
      Cp[N] = V;
      Stack.pop_back();
    }
    Sum.CriticalPathSec = static_cast<double>(Cp[Root]) * 1e-9;

    // Winner tree: the root is on the CP; for each fork pair of an on-CP
    // task the child with the larger CP is on it too.
    std::vector<size_t> Mark;
    Mark.push_back(Root);
    while (!Mark.empty()) {
      size_t N = Mark.back();
      Mark.pop_back();
      OnCp[N] = 1;
      const auto &Cs = Children[N];
      for (size_t I = 0; I + 1 < Cs.size(); I += 2)
        Mark.push_back(Cp[Cs[I]] >= Cp[Cs[I + 1]] ? Cs[I] : Cs[I + 1]);
      if (Cs.size() % 2 != 0)
        Mark.push_back(Cs.back());
    }
    Sum.Valid = true;
  }

  // Per-line self/CP-self/task aggregates from the records themselves.
  for (size_t I = 0; I < Recs.size(); ++I) {
    const SpanRecord &R = Recs[I].R;
    uint32_t Loc = (uint32_t(R.SrcLine) << 8) | R.SrcCol;
    SpanLineStat &L = Lines[Loc];
    L.SelfNs += R.SelfNs;
    if (OnCp[I])
      L.CpSelfNs += R.SelfNs;
    ++L.Tasks;
  }

  // Flatten tasks sorted by start time (root first: it started earliest).
  std::vector<size_t> Order(Recs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Recs[A].R.StartNs < Recs[B].R.StartNs;
  });
  Sum.AllTasks.reserve(Recs.size());
  for (size_t I : Order) {
    const SpanRecord &R = Recs[I].R;
    SpanTaskOut T;
    T.Id = R.Id;
    T.Parent = R.Parent;
    T.StartNs = R.StartNs - Base;
    T.StopNs = R.StopNs - Base;
    T.SelfNs = R.SelfNs;
    T.Worker = Recs[I].Worker;
    if (R.Parent != ~uint64_t(0)) {
      auto It = ById.find(R.Parent);
      T.Stolen = It != ById.end() && Recs[It->second].Worker != Recs[I].Worker;
      if (T.Stolen)
        ++Sum.Stolen;
    }
    T.OnCriticalPath = OnCp[I] != 0;
    T.EmReads = R.EmReads;
    T.Pins = R.Pins;
    T.SrcLine = R.SrcLine;
    T.SrcCol = R.SrcCol;
    T.HeapDepth = R.HeapDepth;
    Sum.AllTasks.push_back(T);
    if (T.OnCriticalPath)
      Sum.CriticalPath.push_back(T.Id);
  }

  Sum.Lines.assign(Lines.begin(), Lines.end());
  std::sort(Sum.Lines.begin(), Sum.Lines.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });

  LastRun = std::move(Sum);
}

SpanRunSummary SpanLedger::lastRun() const {
  std::lock_guard<std::mutex> G(Mu);
  return LastRun;
}

void obs::detail::finishTask(const SpanTask &T, int64_t StopNs) {
  SpanRecord R;
  R.Id = T.Id;
  R.Parent = T.Parent;
  R.StartNs = T.StartNs;
  R.StopNs = StopNs;
  R.SelfNs = T.SelfNs;
  R.EmReads = sat16(T.EmReads);
  R.Pins = sat16(T.Pins);
  R.SrcLine = uint16_t(T.Loc >> 8);
  R.SrcCol = uint8_t(T.Loc & 0xff);
  R.HeapDepth = sat8(T.HeapDepth);
  uint32_t B = std::min<uint32_t>(T.HeapDepth, SpanLedger::TaskDepthBuckets - 1);
  TaskDepthCounts[B].fetch_add(1, std::memory_order_relaxed);
  SpanLedger::get().append(R);
}

std::vector<int64_t> SpanLedger::taskDepthHistogram() {
  std::vector<int64_t> H(TaskDepthBuckets, 0);
  int Last = -1;
  for (int B = 0; B < TaskDepthBuckets; ++B) {
    H[static_cast<size_t>(B)] =
        TaskDepthCounts[B].load(std::memory_order_relaxed);
    if (H[static_cast<size_t>(B)] != 0)
      Last = B;
  }
  H.resize(static_cast<size_t>(Last + 1));
  return H;
}

//===----------------------------------------------------------------------===//
// Exports
//===----------------------------------------------------------------------===//

std::string SpanRunSummary::toJson() const {
  json::Writer W;
  W.beginObject()
      .kv("schema", "mpl-spans/1")
      .newline(1)
      .key("sched")
      .beginObject()
      .kv("work_s", SchedWorkSec)
      .kv("span_s", SchedSpanSec)
      .endObject()
      .newline(1)
      .key("ledger")
      .beginObject()
      .kv("valid", Valid ? 1 : 0)
      .kv("tasks", Tasks)
      .kv("stolen", Stolen)
      .kv("dropped", Dropped)
      .kv("work_s", LedgerWorkSec)
      .kv("critical_path_s", CriticalPathSec)
      .kv("agreement_pct", agreementPct())
      .kv("em_reads", EmReads)
      .kv("pins", PinEvents)
      .endObject()
      .newline(1)
      .key("lines")
      .beginArray();
  for (const auto &[Loc, L] : Lines)
    W.newline(2)
        .beginObject()
        .kv("line", Loc >> 8)
        .kv("col", Loc & 0xff)
        .kv("em_reads", L.EmReads)
        .kv("pins", L.Pins)
        .kv("tasks", L.Tasks)
        .kv("self_s", static_cast<double>(L.SelfNs) * 1e-9)
        .kv("cp_self_s", static_cast<double>(L.CpSelfNs) * 1e-9)
        .endObject();
  W.endArray().newline(1).key("critical_path").beginArray();
  for (uint64_t Id : CriticalPath)
    W.value(Id);
  W.endArray().newline(1).key("tasks").beginArray();
  for (const SpanTaskOut &T : AllTasks)
    W.newline(2)
        .beginObject()
        .kv("id", T.Id)
        // ~0 (root) would not survive a double-typed JSON number; use -1.
        .kv("parent", T.Parent == ~uint64_t(0) ? int64_t(-1)
                                               : static_cast<int64_t>(T.Parent))
        .kv("start_s", static_cast<double>(T.StartNs) * 1e-9)
        .kv("stop_s", static_cast<double>(T.StopNs) * 1e-9)
        .kv("self_s", static_cast<double>(T.SelfNs) * 1e-9)
        .kv("worker", T.Worker)
        .kv("stolen", T.Stolen ? 1 : 0)
        .kv("on_cp", T.OnCriticalPath ? 1 : 0)
        .kv("line", T.SrcLine)
        .kv("col", T.SrcCol)
        .kv("depth", T.HeapDepth)
        .kv("em_reads", T.EmReads)
        .kv("pins", T.Pins)
        .endObject();
  W.endArray().endObject().newline();
  return W.take();
}

std::string SpanRunSummary::summaryText() const {
  char Buf[256];
  std::string Out;
  if (!Valid && Tasks == 0) {
    Out = "spans: no run recorded (is the ledger armed? MPL_OBS=spans)\n";
    return Out;
  }
  std::snprintf(Buf, sizeof(Buf),
                "spans: %lld tasks (%lld stolen), ledger work %.3f ms, "
                "critical path %.3f ms (%.1f%% of work)\n",
                static_cast<long long>(Tasks), static_cast<long long>(Stolen),
                LedgerWorkSec * 1e3, CriticalPathSec * 1e3,
                LedgerWorkSec > 0 ? 100.0 * CriticalPathSec / LedgerWorkSec
                                  : 0.0);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "ledger CP vs scheduler S: %+.2f%% (S = %.3f ms)%s\n",
                agreementPct(), SchedSpanSec * 1e3,
                Valid ? "" : "  [DAG incomplete: records dropped]");
  Out += Buf;
  if (EmReads > 0 || PinEvents > 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "em events: %lld entangled reads, %lld pins\n",
                  static_cast<long long>(EmReads),
                  static_cast<long long>(PinEvents));
    Out += Buf;
  }
  // Top lines by entangled reads, then by CP self time.
  std::vector<std::pair<uint32_t, SpanLineStat>> Sorted(Lines.begin(),
                                                        Lines.end());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    if (A.second.EmReads != B.second.EmReads)
      return A.second.EmReads > B.second.EmReads;
    return A.second.CpSelfNs > B.second.CpSelfNs;
  });
  size_t Shown = 0;
  for (const auto &KV : Sorted) {
    if (Shown >= 5)
      break;
    if (KV.first == 0 && KV.second.EmReads == 0 && KV.second.Pins == 0)
      continue; // Skip the "no location" bucket unless it has em events.
    std::snprintf(Buf, sizeof(Buf),
                  "  L%u:%u  em_reads=%lld pins=%lld tasks=%lld "
                  "cp_self=%.3f ms\n",
                  KV.first >> 8, KV.first & 0xff,
                  static_cast<long long>(KV.second.EmReads),
                  static_cast<long long>(KV.second.Pins),
                  static_cast<long long>(KV.second.Tasks),
                  static_cast<double>(KV.second.CpSelfNs) * 1e-6);
    Out += Buf;
    ++Shown;
  }
  return Out;
}
