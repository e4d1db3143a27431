//===- tests/spans_test.cpp - Causal span ledger tests --------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// The span ledger's two load-bearing claims (DESIGN.md §14):
//
//  1. Consistency: the critical path extracted from the merged fork-join
//     DAG equals the scheduler's online span S. Both accrue the *same*
//     strand quanta (Scheduler::strandPause adds each elapsed strand to
//     SpanAccNs and to the current span task's SelfNs), so the agreement
//     is exact, not approximate — any drift means the DAG is wrong.
//
//  2. Attribution: em events sampled in the read/write barrier slow paths
//     resolve to the pml source line of the expression that caused them,
//     via the compiler's bytecode -> (Line, Col) source map, and each
//     task's counts sum to the run's em counters.
//
// It also checks the one export: the DAG as task slices in trace.json.
//
//===----------------------------------------------------------------------===//

#include "core/Em.h"
#include "core/Runtime.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "pml/Vm.h"
#include "support/Json.h"
#include "workloads/Entangled.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

using namespace mpl;

namespace {

/// Every test arms/disarms the process-wide ledger; serialize the state.
class SpansTest : public ::testing::Test {
protected:
  void SetUp() override { obs::SpanLedger::get().disable(); }
  void TearDown() override { SetUp(); }

  /// Runs \p Body in a fresh runtime (Manage mode, the default) with the
  /// ledger armed and returns the run's merged summary.
  template <typename Fn>
  obs::SpanRunSummary record(int Workers, Fn &&Body) {
    obs::SpanLedger::get().enable();
    {
      rt::Config Cfg;
      Cfg.NumWorkers = Workers;
      rt::Runtime R(Cfg);
      R.run(Body);
    }
    obs::SpanLedger::get().disable();
    return obs::SpanLedger::get().lastRun();
  }
};

} // namespace

TEST_F(SpansTest, SingleTaskRunIsJustTheRoot) {
  obs::SpanRunSummary Sum = record(1, [] {
    volatile int64_t Acc = 0;
    for (int I = 0; I < 1000; ++I)
      Acc = Acc + I;
  });
  ASSERT_TRUE(Sum.Valid);
  EXPECT_EQ(Sum.Tasks, 1);
  EXPECT_EQ(Sum.Stolen, 0);
  ASSERT_EQ(Sum.AllTasks.size(), 1u);
  EXPECT_EQ(Sum.AllTasks[0].Parent, ~uint64_t(0));
  EXPECT_TRUE(Sum.AllTasks[0].OnCriticalPath);
  // A serial run's critical path IS its work.
  EXPECT_DOUBLE_EQ(Sum.CriticalPathSec, Sum.LedgerWorkSec);
}

TEST_F(SpansTest, CriticalPathMatchesSchedulerSpan) {
  // At one worker and at four, where stolen tasks add cross-worker edges.
  for (int Workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    obs::SpanRunSummary Sum = record(Workers, [] { (void)wl::fib(18, 5); });
    ASSERT_TRUE(Sum.Valid);
    EXPECT_GT(Sum.Tasks, 3);
    if (Workers == 1) {
      EXPECT_EQ(Sum.Stolen, 0); // One worker: nothing to steal.
    }
    ASSERT_GT(Sum.SchedSpanSec, 0.0);
    // Same-quanta design: ledger CP and scheduler S are built from the
    // same strand measurements, so they agree exactly — 5% is the CI
    // oracle's slack, not an expected error.
    EXPECT_LT(std::fabs(Sum.agreementPct()), 5.0);
    EXPECT_NEAR(Sum.LedgerWorkSec, Sum.SchedWorkSec,
                1e-9 + 1e-6 * Sum.SchedWorkSec);
    EXPECT_NEAR(Sum.CriticalPathSec, Sum.SchedSpanSec,
                1e-9 + 1e-6 * Sum.SchedSpanSec);
  }
}

TEST_F(SpansTest, DagShapeIsAWellFormedForkJoinTree) {
  obs::SpanRunSummary Sum = record(2, [] { (void)wl::fib(18, 5); });
  ASSERT_TRUE(Sum.Valid);

  // Exactly one root; every other task's parent is a recorded task.
  std::vector<uint64_t> Ids;
  int Roots = 0;
  for (const obs::SpanTaskOut &T : Sum.AllTasks) {
    Ids.push_back(T.Id);
    if (T.Parent == ~uint64_t(0))
      ++Roots;
  }
  EXPECT_EQ(Roots, 1);
  std::sort(Ids.begin(), Ids.end());
  for (const obs::SpanTaskOut &T : Sum.AllTasks)
    if (T.Parent != ~uint64_t(0)) {
      EXPECT_TRUE(std::binary_search(Ids.begin(), Ids.end(), T.Parent))
          << "task " << T.Id << " has unknown parent " << T.Parent;
    }

  // Fork pairs: children are allocated in (A=n, B=n+1) pairs, so every
  // parent has an even child count.
  std::vector<std::pair<uint64_t, int>> ChildCount;
  for (const obs::SpanTaskOut &T : Sum.AllTasks) {
    if (T.Parent == ~uint64_t(0))
      continue;
    bool Hit = false;
    for (auto &[P, N] : ChildCount)
      if (P == T.Parent) {
        ++N;
        Hit = true;
        break;
      }
    if (!Hit)
      ChildCount.emplace_back(T.Parent, 1);
  }
  for (const auto &[P, N] : ChildCount)
    EXPECT_EQ(N % 2, 0) << "parent " << P << " has unpaired children";

  // The critical path starts at the root and descends through on-path
  // parents only.
  std::map<uint64_t, bool> OnCp;
  for (const obs::SpanTaskOut &T : Sum.AllTasks)
    OnCp[T.Id] = T.OnCriticalPath;
  EXPECT_TRUE(Sum.AllTasks[0].OnCriticalPath) << "the root leads the path";
  for (const obs::SpanTaskOut &T : Sum.AllTasks)
    if (T.OnCriticalPath && T.Parent != ~uint64_t(0)) {
      EXPECT_TRUE(OnCp[T.Parent]) << "task " << T.Id << " hangs off the path";
    }
}

TEST_F(SpansTest, AttributesEmEventsToPmlSourceLines) {
  // Deterministic entangling program: task A publishes a fresh ref through
  // a shared ref cell (line 5: the := becomes a pin), task B chases it
  // (line 6: the inner ! is an entangled read). On one worker A runs to
  // completion first, so the schedule — and the attribution — is fixed.
  const std::string Src = "let\n"
                          "  val r = ref (ref 0)\n"
                          "in\n"
                          "  par (\n"
                          "    (r := ref 7; 0),\n"
                          "    !(!r))\n"
                          "end";
  std::string Output, Rendered, TypeStr;
  std::vector<std::string> Errors;
  bool Ok = false;
  obs::SpanRunSummary Sum = record(1, [&] {
    Ok = pml::evalSource(Src, Output, Rendered, TypeStr, Errors);
  });
  ASSERT_TRUE(Ok) << (Errors.empty() ? "" : Errors[0]);
  EXPECT_EQ(Rendered, "(0, 7)");

  ASSERT_TRUE(Sum.Valid);
  EXPECT_EQ(Sum.Tasks, 3); // Root + the two par arms.
  EXPECT_EQ(Sum.EmReads, 1);
  EXPECT_GE(Sum.PinEvents, 1);

  // Per-line aggregates are keyed by packed (Line << 8) | Col.
  auto lineOf = [&](uint32_t Loc) -> const obs::SpanLineStat * {
    for (const auto &[L, S] : Sum.Lines)
      if (L == Loc)
        return &S;
    return nullptr;
  };
  int ReadLine = 0, PinLine = 0;
  for (const auto &[L, S] : Sum.Lines) {
    if (S.EmReads > 0)
      ReadLine = static_cast<int>(L >> 8);
    if (S.Pins > 0)
      PinLine = static_cast<int>(L >> 8);
  }
  EXPECT_EQ(ReadLine, 6) << "entangled read must attribute to `!(!r)`";
  EXPECT_EQ(PinLine, 5) << "pin must attribute to `r := ref 7`";

  // The par arms carry the fork site (line 4, the `par`).
  const obs::SpanLineStat *ParSite = nullptr;
  for (const auto &[L, S] : Sum.Lines)
    if (S.Tasks == 2)
      ParSite = lineOf(L);
  ASSERT_NE(ParSite, nullptr) << "no line owns the two par tasks";
}

TEST_F(SpansTest, DisabledLedgerRecordsNothing) {
  // A run without the ledger armed must leave lastRun() untouched and add
  // zero overhead records.
  obs::SpanRunSummary Before = obs::SpanLedger::get().lastRun();
  {
    rt::Config Cfg;
    Cfg.NumWorkers = 1;
    rt::Runtime R(Cfg);
    R.run([] { (void)wl::fib(14, 5); });
  }
  obs::SpanRunSummary After = obs::SpanLedger::get().lastRun();
  EXPECT_EQ(Before.Tasks, After.Tasks);
  EXPECT_EQ(Before.Valid, After.Valid);
}

TEST_F(SpansTest, PerTaskEmCountsSumToTheRunsCounters) {
  // At one worker the channel's producer publishes every cell it builds (a
  // down-pointer pin each), then its consumer drains them with two
  // entangled reads per cell: at 70,000 cells both tasks pass 65,535
  // events. Each task holds its counts whole, so the per-task sums are the
  // run's counter deltas; continuation capture pins are no barrier's.
  em::CounterSnapshot Before = em::Counts.snapshot();
  obs::SpanRunSummary Sum =
      record(1, [] { (void)wl::channelPipeline(70000); });
  em::CounterSnapshot After = em::Counts.snapshot();
  ASSERT_TRUE(Sum.Valid);
  uint32_t MaxReads = 0, MaxPins = 0;
  for (const obs::SpanTaskOut &T : Sum.AllTasks) {
    MaxReads = std::max(MaxReads, T.EmReads);
    MaxPins = std::max(MaxPins, T.Pins);
  }
  EXPECT_GT(MaxReads, 65535u);
  EXPECT_GT(MaxPins, 65535u);
  EXPECT_EQ(Sum.EmReads, After.EntangledReads - Before.EntangledReads);
  EXPECT_EQ(Sum.PinEvents, (After.PinnedObjects - Before.PinnedObjects) -
                               (After.ContPins - Before.ContPins));
}

TEST_F(SpansTest, TraceExportParsesBackAndIsSelfConsistent) {
  // Armed, the trace carries the last run: one "X" task slice per task on
  // the track of the worker that ran it, with the record as args; a
  // task_flow pair per fork edge; and otherData.spans with the scheduler's
  // W and S and the DAG's validity.
  obs::SpanRunSummary Sum = record(2, [] { (void)wl::fib(16, 5); });
  ASSERT_TRUE(Sum.Valid);
  obs::SpanLedger::get().enable();
  std::string Text = obs::Tracer::get().chromeTraceJson();
  obs::SpanLedger::get().disable();
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(Text, Doc, Err)) << Err;

  std::map<uint64_t, const obs::SpanTaskOut *> ById;
  for (const obs::SpanTaskOut &T : Sum.AllTasks)
    ById[T.Id] = &T;
  size_t Slices = 0, OnCp = 0, Out = 0, In = 0, WantOnCp = 0;
  for (const obs::SpanTaskOut &T : Sum.AllTasks)
    WantOnCp += T.OnCriticalPath;
  for (const json::Value &E : Doc.field("traceEvents")->Items) {
    const std::string &Ph = E.field("ph")->StrV;
    if (Ph == "s" || Ph == "f") {
      EXPECT_EQ(E.field("name")->StrV, "task_flow");
      ++(Ph == "s" ? Out : In);
    }
    if (Ph != "X")
      continue;
    ++Slices;
    EXPECT_EQ(E.field("name")->StrV, "task");
    const json::Value *A = E.field("args");
    auto It = ById.find(static_cast<uint64_t>(A->field("id")->NumV));
    ASSERT_NE(It, ById.end());
    const obs::SpanTaskOut &T = *It->second;
    EXPECT_EQ(E.field("tid")->NumV, T.Worker);
    EXPECT_EQ(E.field("dur")->NumV, (T.StopNs - T.StartNs) / 1000.0);
    EXPECT_EQ(A->field("self_ns")->NumV, T.SelfNs);
    EXPECT_EQ(A->field("depth")->NumV, T.HeapDepth);
    EXPECT_EQ(A->field("parent")->NumV,
              T.Parent == ~uint64_t(0) ? -1.0 : double(T.Parent));
    OnCp += A->field("on_cp")->NumV != 0;
  }
  EXPECT_EQ(Slices, Sum.AllTasks.size());
  EXPECT_EQ(OnCp, WantOnCp);
  EXPECT_EQ(Out, Sum.AllTasks.size() - 1); // Every task but the root.
  EXPECT_EQ(In, Out);

  const json::Value *Spans = Doc.field("otherData")->field("spans");
  ASSERT_NE(Spans, nullptr);
  EXPECT_EQ(Spans->field("work_s")->NumV, Sum.SchedWorkSec);
  EXPECT_EQ(Spans->field("span_s")->NumV, Sum.SchedSpanSec);
  EXPECT_EQ(Spans->field("valid")->NumV, 1);
  EXPECT_EQ(Spans->field("dropped")->NumV, 0);
}
