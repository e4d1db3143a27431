//===- obs/Span.cpp - Causal span ledger for the fork-join DAG ------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Span.h"

#include <algorithm>
#include <cstdio>
#include <map>
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
/// ~56 MB/thread; overflow is counted, and a run with drops reports an
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

  // Start order (root first: it started earliest) is the summary's order.
  std::sort(Recs.begin(), Recs.end(), [](const Rec &A, const Rec &B) {
    return A.R.StartNs < B.R.StartNs;
  });

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

    // Winner tree: the root is on the CP; for each fork pair of an on-CP
    // task the child with the larger CP is on it too. The marked tasks'
    // self times sum to CP(root), which derive() reads back.
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

  Sum.AllTasks.reserve(Recs.size());
  for (size_t I = 0; I < Recs.size(); ++I) {
    const SpanRecord &R = Recs[I].R;
    SpanTaskOut T;
    T.Id = R.Id;
    T.Parent = R.Parent;
    T.StartNs = R.StartNs;
    T.StopNs = R.StopNs;
    T.SelfNs = R.SelfNs;
    T.Worker = Recs[I].Worker;
    T.OnCriticalPath = OnCp[I] != 0;
    T.EmReads = R.EmReads;
    T.Pins = R.Pins;
    T.SrcLine = R.SrcLine;
    T.SrcCol = R.SrcCol;
    T.HeapDepth = R.HeapDepth;
    Sum.AllTasks.push_back(T);
  }

  Sum.Lines.assign(Lines.begin(), Lines.end());
  Sum.derive();
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
  R.EmReads = T.EmReads;
  R.Pins = T.Pins;
  R.SrcLine = uint16_t(T.Loc >> 8);
  R.SrcCol = uint8_t(T.Loc & 0xff);
  R.HeapDepth = sat8(T.HeapDepth);
  SpanLedger::get().append(R);
}

//===----------------------------------------------------------------------===//
// SpanRunSummary and its renderers
//===----------------------------------------------------------------------===//

void SpanRunSummary::derive() {
  std::unordered_map<uint64_t, int> WorkerOf;
  WorkerOf.reserve(AllTasks.size() * 2);
  for (const SpanTaskOut &T : AllTasks)
    WorkerOf.emplace(T.Id, T.Worker);
  std::map<uint32_t, SpanLineStat> ByLoc(Lines.begin(), Lines.end());
  int64_t SelfNs = 0, CpNs = 0;
  Tasks = static_cast<int64_t>(AllTasks.size());
  Stolen = EmReads = PinEvents = 0;
  for (SpanTaskOut &T : AllTasks) {
    auto It = WorkerOf.find(T.Parent);
    T.Stolen = It != WorkerOf.end() && It->second != T.Worker;
    Stolen += T.Stolen;
    SelfNs += T.SelfNs;
    EmReads += T.EmReads;
    PinEvents += T.Pins;
    SpanLineStat &L = ByLoc[(uint32_t(T.SrcLine) << 8) | T.SrcCol];
    L.SelfNs += T.SelfNs;
    ++L.Tasks;
    if (T.OnCriticalPath) {
      CpNs += T.SelfNs;
      L.CpSelfNs += T.SelfNs;
    }
  }
  LedgerWorkSec = static_cast<double>(SelfNs) * 1e-9;
  CriticalPathSec = static_cast<double>(CpNs) * 1e-9;
  Lines.assign(ByLoc.begin(), ByLoc.end());
}

namespace {

std::string locLabel(uint32_t Line, uint32_t Col) {
  if (Line == 0 && Col == 0)
    return "task";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "L%u:%u", Line, Col);
  return Buf;
}

} // namespace

std::string obs::renderSpanSummary(const SpanRunSummary &S) {
  char Buf[256];
  std::string Out;
  std::snprintf(Buf, sizeof(Buf),
                "spans: %lld tasks (%lld stolen, %lld dropped)\n",
                static_cast<long long>(S.Tasks),
                static_cast<long long>(S.Stolen),
                static_cast<long long>(S.Dropped));
  Out += Buf;
  double CpPct =
      S.LedgerWorkSec > 0 ? 100.0 * S.CriticalPathSec / S.LedgerWorkSec : 0;
  std::snprintf(Buf, sizeof(Buf),
                "  ledger work %.3fms   critical path %.3fms (%.1f%% of "
                "work)\n",
                S.LedgerWorkSec * 1e3, S.CriticalPathSec * 1e3, CpPct);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  scheduler  W %.3fms   S %.3fms   ledger CP vs S: %+.2f%%\n",
                S.SchedWorkSec * 1e3, S.SchedSpanSec * 1e3, S.agreementPct());
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "  em events: %lld reads, %lld pins\n",
                static_cast<long long>(S.EmReads),
                static_cast<long long>(S.PinEvents));
  Out += Buf;
  if (!S.Valid)
    Out += "  WARNING: DAG incomplete (dropped records or mixed runs); "
           "critical path not trustworthy\n";
  return Out;
}

std::string obs::renderCriticalPath(const SpanRunSummary &S) {
  std::string Out = renderSpanSummary(S);
  Out += "critical path (start order):\n";
  char Buf[192];
  for (const SpanTaskOut &T : S.AllTasks) {
    if (!T.OnCriticalPath)
      continue;
    bool Root = T.Parent == ~uint64_t(0);
    std::snprintf(Buf, sizeof(Buf),
                  "  #%-6llu %-9s self %10.3fms  w%d%s  depth %d"
                  "  em %lu/%lu\n",
                  static_cast<unsigned long long>(T.Id),
                  Root ? "root" : locLabel(T.SrcLine, T.SrcCol).c_str(),
                  static_cast<double>(T.SelfNs) * 1e-6, T.Worker,
                  T.Stolen ? " (stolen)" : "", T.HeapDepth,
                  static_cast<unsigned long>(T.EmReads),
                  static_cast<unsigned long>(T.Pins));
    Out += Buf;
  }
  return Out;
}

std::string obs::renderTopLines(const SpanRunSummary &S, int TopK) {
  std::vector<std::pair<uint32_t, SpanLineStat>> Sorted = S.Lines;
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    if (A.second.EmReads != B.second.EmReads)
      return A.second.EmReads > B.second.EmReads;
    return A.second.CpSelfNs > B.second.CpSelfNs;
  });
  size_t K = static_cast<size_t>(std::max(TopK, 0));
  Sorted.resize(std::min(Sorted.size(), K));
  std::string Out =
      "line       em_reads      pins     tasks      self_ms   cp_self_ms\n";
  char Buf[160];
  for (const auto &[Loc, L] : Sorted) {
    std::snprintf(Buf, sizeof(Buf), "%-9s %9lld %9lld %9lld %12.3f %12.3f\n",
                  locLabel(Loc >> 8, Loc & 0xff).c_str(),
                  static_cast<long long>(L.EmReads),
                  static_cast<long long>(L.Pins),
                  static_cast<long long>(L.Tasks),
                  static_cast<double>(L.SelfNs) * 1e-6,
                  static_cast<double>(L.CpSelfNs) * 1e-6);
    Out += Buf;
  }
  return Out;
}

std::string obs::foldSpans(const SpanRunSummary &S) {
  // Index tasks by id to walk parent chains; stacks read root -> leaf.
  std::unordered_map<uint64_t, const SpanTaskOut *> ById;
  for (const SpanTaskOut &T : S.AllTasks)
    ById.emplace(T.Id, &T);
  std::string Out;
  std::vector<std::string> Frames;
  for (const SpanTaskOut &T : S.AllTasks) {
    if (T.SelfNs <= 0)
      continue;
    Frames.clear();
    const SpanTaskOut *Cur = &T;
    size_t Guard = 0;
    while (Cur && Guard++ <= ById.size()) {
      bool Root = Cur->Parent == ~uint64_t(0);
      Frames.push_back(Root ? "root" : locLabel(Cur->SrcLine, Cur->SrcCol));
      if (Root)
        break;
      auto It = ById.find(Cur->Parent);
      Cur = It == ById.end() ? nullptr : It->second;
    }
    for (size_t I = Frames.size(); I-- > 0;) {
      Out += Frames[I];
      if (I > 0)
        Out += ";";
    }
    Out += " " + std::to_string(T.SelfNs) + "\n";
  }
  return Out;
}
