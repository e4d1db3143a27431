//===- perfbench/test/perfbench_test.cpp - The benchmark's own tests ------===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
// Statistics, derived ratios, the open-loop lateness accounting, span self
// time, and a tiny-scale smoke run of every workload whose metric names
// must match BENCHMARK.json exactly.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "OpenLoop.h"
#include "Stats.h"
#include "Trace.h"

#include "support/Json.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

using namespace pb;

TEST(StatsTest, QuantilesInterpolateBetweenExactSamples) {
  std::vector<double> Xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(Xs, 0.5), 3);
  EXPECT_DOUBLE_EQ(quantile(Xs, 0), 1);
  EXPECT_DOUBLE_EQ(quantile(Xs, 1), 5);
  EXPECT_DOUBLE_EQ(quantile(Xs, 0.99), 4.96);
  EXPECT_DOUBLE_EQ(quantile({10, 20}, 0.25), 12.5);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0);
}

TEST(StatsTest, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::array<double, 3> Q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(Q[0], 2.75);
  EXPECT_DOUBLE_EQ(Q[1], 5.5);
  EXPECT_DOUBLE_EQ(Q[2], 8.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  Q = quartiles({1, 2, 4, 8, 16});
  EXPECT_DOUBLE_EQ(Q[0], 1.5);
  EXPECT_DOUBLE_EQ(Q[1], 4.0);
  EXPECT_DOUBLE_EQ(Q[2], 12.0);
  EXPECT_DOUBLE_EQ(relativeSpread({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}),
                   (8.25 - 2.75) / 5.5);
}

TEST(StatsTest, DerivedRatios) {
  // T_P equal to the Brent bound W/P + S reads 0; twice the bound reads 1.
  EXPECT_DOUBLE_EQ(brentError(1.5, 4, 0.5, 4), 0);
  EXPECT_DOUBLE_EQ(brentError(3.0, 4, 0.5, 4), 1);
  EXPECT_DOUBLE_EQ(idleFraction(4, 2, 4), 0.5);
  EXPECT_DOUBLE_EQ(idleFraction(8, 2, 4), 0);
  EXPECT_DOUBLE_EQ(stealRatio(5, 10), 0.5);
  EXPECT_DOUBLE_EQ(gcSurvival(1, 3), 0.25);
  EXPECT_DOUBLE_EQ(chunkReuse(3, 1), 0.75);
  // A bypassed layer reads 0, not NaN.
  EXPECT_DOUBLE_EQ(stealRatio(0, 0), 0);
  EXPECT_DOUBLE_EQ(gcSurvival(0, 0), 0);
  EXPECT_DOUBLE_EQ(chunkReuse(0, 0), 0);
  EXPECT_DOUBLE_EQ(brentError(1, 0, 0, 4), 0);
  EXPECT_DOUBLE_EQ(idleFraction(1, 0, 4), 0);
}

TEST(OpenLoopTest, LatenessCountsSendsBehindSchedule) {
  const int64_t Ms = 1'000'000;
  std::vector<SendRecord> Rs = {{0, 0, 3 * Ms, true},
                                {10 * Ms, 10 * Ms + Ms / 2, 12 * Ms, true},
                                {20 * Ms, 22 * Ms, 23 * Ms, true},
                                {30 * Ms, 35 * Ms, 36 * Ms, true}};
  Lateness L = lateness(Rs, Ms);
  EXPECT_EQ(L.Late, 2);
  EXPECT_DOUBLE_EQ(L.MaxMs, 5);
  // Latency runs from the due time, not the send time.
  std::vector<double> Lat = latenciesMs(Rs);
  EXPECT_DOUBLE_EQ(Lat[3], 6);
  EXPECT_DOUBLE_EQ(Lat[1], 2);
}

TEST(OpenLoopTest, ScheduleIsFixedRate) {
  std::vector<int64_t> Due = fixedRateSchedule(4, 1000, 5);
  EXPECT_EQ(Due, (std::vector<int64_t>{5, 1'000'005, 2'000'005, 3'000'005}));
}

TEST(OpenLoopTest, StallChargesEveryDelayedRequest) {
  // One connection, a request every 2 ms; the first call stalls 30 ms, so
  // the next sends leave late and their latency includes the stall.
  std::vector<int64_t> Due =
      fixedRateSchedule(6, 500, mpl::nowNs() + 1'000'000);
  std::vector<SendRecord> Rs = runOpenLoop(Due, 1, [](int, size_t I) {
    if (I == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  });
  ASSERT_EQ(Rs.size(), 6u);
  Lateness L = lateness(Rs, 1'000'000);
  EXPECT_GE(L.Late, 5);
  EXPECT_GE(L.MaxMs, 20);
  EXPECT_GE(latenciesMs(Rs)[1], 25);
  for (const SendRecord &R : Rs)
    EXPECT_GE(R.SentNs, R.DueNs);
}

TEST(TraceTest, SelfTimeSubtractsTheUnionOfChildren) {
  EXPECT_EQ(selfTimeNs(0, 100, {}), 100);
  EXPECT_EQ(selfTimeNs(0, 100, {{10, 30}, {20, 40}, {90, 150}}), 60);
  EXPECT_EQ(selfTimeNs(0, 100, {{0, 100}, {10, 20}}), 0);

  SpanLog L(true);
  int Root = L.begin("root");
  L.add("child", 0, 0, Root, 7);
  L.end(Root);
  std::vector<Span> S = L.spans();
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[1].Parent, 0);
  EXPECT_EQ(S[1].ReqId, 7u);

  SpanLog Off(false);
  EXPECT_EQ(Off.begin("x"), -1);
  EXPECT_TRUE(Off.spans().empty());
}

namespace {

std::set<std::string> declaredNames(const char *List) {
  std::ifstream In(PERFBENCH_JSON);
  std::stringstream SS;
  SS << In.rdbuf();
  mpl::json::Value V;
  std::string Err;
  std::set<std::string> Names;
  if (!mpl::json::parse(SS.str(), V, Err) || !V.field(List))
    return Names;
  for (const mpl::json::Value &M : V.field(List)->Items)
    Names.insert(M.field("name")->StrV);
  return Names;
}

} // namespace

class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, TinyRunChecksEveryOutputAndReportsEveryMetric) {
  std::set<std::string> WantEndToEnd = declaredNames("end_to_end");
  std::set<std::string> WantPerLayer = declaredNames("per_layer");
  ASSERT_FALSE(WantEndToEnd.empty());
  ASSERT_FALSE(WantPerLayer.empty());

  for (uint64_t Seed : {7, 8}) {
    Options O;
    O.Workload = GetParam();
    O.Seed = Seed;
    O.Seconds = 0.2;
    O.Trace = true;
    O.Scale = 0.01;
    O.P = 2;
    Result R = runWorkload(O);
    for (const std::string &F : R.Failures)
      ADD_FAILURE() << F;
    EXPECT_TRUE(R.correct());
    EXPECT_GT(R.Attempted, 0);
    EXPECT_EQ(R.Failed, 0);

    auto Names = [](const std::map<std::string, Metric> &Ms) {
      std::set<std::string> S;
      for (const auto &[Name, M] : Ms)
        S.insert(Name);
      return S;
    };
    EXPECT_EQ(Names(R.EndToEnd), WantEndToEnd);
    EXPECT_EQ(Names(R.PerLayer), WantPerLayer);
    // End-to-end metrics are never 0.
    for (const auto &[Name, M] : R.EndToEnd)
      EXPECT_GT(M.Value, 0) << Name;
    EXPECT_EQ(R.PerLayer["core.leaked_pins"].Value, 0);
    if (O.Workload == "fj-pure") {
      EXPECT_EQ(R.PerLayer["core.pins"].Value, 0);
    } else if (O.Workload == "fj-entangled") {
      EXPECT_GT(R.PerLayer["core.pins"].Value, 0);
    } else {
      EXPECT_GT(R.PerLayer["pml.cont_captured"].Value, 0);
      EXPECT_GT(R.PerLayer["net.ok"].Value, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });
