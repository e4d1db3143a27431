//===- tests/report_test.cpp - Statistical regression-gate tests ----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Unit tests for the extracted gate library (tools/GateLib.h) that backs
// the CI perf-smoke stage, driven with synthetic mpl-bench/2 fixtures:
// stddev-aware pass/fail with noise classes, floor behaviour, missing
// rows, leaked pins, checksum mismatches (same- and cross-scale),
// counter/residency gates, and malformed/empty input
// rejected with a diagnostic instead of a crash. Also round-trips the
// BenchJson writer (bench/Common.h) through src/support/Json.h to pin the
// schema the gate consumes, checks bench::measure, the timed-rep loop
// that produces every row, and drives the trace-event checker and the
// span-DAG reader behind `mpl_report trace` and `mpl_report spans`,
// including a round trip through a real run's trace.json.
//
//===----------------------------------------------------------------------===//

#include "GateLib.h"

#include "bench/Common.h"
#include "core/Runtime.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "pml/Vm.h"
#include "support/File.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace mpl;
using gate::BenchFile;
using gate::Finding;
using gate::GateOptions;
using gate::GateResult;
using gate::Noise;

namespace {

/// One synthetic mpl-bench/2 row. Defaults describe a healthy 20ms row
/// with a moderate (5% cv) spread.
struct RowSpec {
  std::string Name = "bench";
  std::string Config = "par-w1";
  bool Entangled = false;
  double MedianS = 0.020;
  std::vector<double> RepS = {0.019, 0.020, 0.021}; // sigma = 1ms
  int64_t EntangledReads = 0;
  int64_t PinsDown = 0;
  int64_t PinsCross = 0;
  int64_t PinnedObjects = 0;
  int64_t PinnedBytes = 0;
  int64_t Unpins = 0;
  int64_t ContCaptured = 0;
  int64_t ContResumed = 0;
  int64_t JitCompiled = 0; ///< >0 emits the pml.jit.* counters.
  int64_t JitEntries = 0;
  int64_t JitCodeBytes = 0;
  int64_t Residency = 0;
  int64_t Checksum = 1234;
};

std::string rowJson(const RowSpec &S) {
  std::string Reps;
  for (size_t I = 0; I < S.RepS.size(); ++I)
    Reps += (I ? "," : "") + std::to_string(S.RepS[I]);
  // Counters by registry name, as BenchJson writes them. The pml.jit.*
  // names are left out unless the row compiled something, so absent
  // names (reading as 0) are exercised too.
  std::vector<std::pair<std::string, int64_t>> Ctrs = {
      {"em.cont.captured", S.ContCaptured},
      {"em.cont.resumed", S.ContResumed},
      {"em.pinned.bytes", S.PinnedBytes},
      {"em.pins.cross", S.PinsCross},
      {"em.pins.down", S.PinsDown},
      {"em.pins.holder", 0},
      {"em.pins.objects", S.PinnedObjects},
      {"em.reads.entangled", S.EntangledReads},
      {"em.unpins", S.Unpins},
      {"gc.collections", 1},
      {"mm.bytes.peak", S.Residency}};
  if (S.JitCompiled > 0)
    Ctrs.insert(Ctrs.end(), {{"pml.jit.code_bytes", S.JitCodeBytes},
                             {"pml.jit.compiled", S.JitCompiled},
                             {"pml.jit.entries", S.JitEntries}});
  std::string Counters;
  for (const auto &[Name, V] : Ctrs)
    Counters += (Counters.empty() ? "\"" : ",\"") + Name +
                "\":" + std::to_string(V);
  char Buf[2048];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"name\":\"%s\",\"config\":\"%s\",\"entangled\":%s,"
      "\"time\":{\"median_s\":%.9g,\"min_s\":%.9g,\"stddev_s\":0,"
      "\"rep_s\":[%s]},"
      "\"work_span\":{\"work_s\":0.05,\"span_s\":0.01},"
      "\"counters\":{%s},\"checksum\":%lld}",
      S.Name.c_str(), S.Config.c_str(), S.Entangled ? "true" : "false",
      S.MedianS, S.MedianS, Reps.c_str(), Counters.c_str(),
      static_cast<long long>(S.Checksum));
  return Buf;
}

std::string fileJson(double Scale, const std::vector<RowSpec> &Rows) {
  std::string S = "{\"schema\":\"mpl-bench/2\",\"bench\":\"synthetic\","
                  "\"scale\":" +
                  std::to_string(Scale) + ",\"reps\":3,\"rows\":[";
  for (size_t I = 0; I < Rows.size(); ++I)
    S += (I ? ",\n" : "") + rowJson(Rows[I]);
  S += "]}";
  return S;
}

BenchFile parseOrDie(const std::string &Text) {
  BenchFile F;
  std::string Err;
  EXPECT_TRUE(gate::parseBenchJson(Text, F, Err)) << Err;
  return F;
}

GateResult gateOne(const RowSpec &Base, const RowSpec &Cur,
                   const GateOptions &Opts = GateOptions{}) {
  BenchFile B = parseOrDie(fileJson(0.05, {Base}));
  BenchFile C = parseOrDie(fileJson(0.05, {Cur}));
  return gate::compare(B, C, Opts);
}

} // namespace

//===----------------------------------------------------------------------===//
// Parsing and validation
//===----------------------------------------------------------------------===//

TEST(ReportParse, EmptyInputRejected) {
  BenchFile F;
  std::string Err;
  EXPECT_FALSE(gate::parseBenchJson("", F, Err));
  EXPECT_NE(Err.find("empty"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseBenchJson("   \n\t", F, Err));
}

TEST(ReportParse, MalformedJsonRejected) {
  BenchFile F;
  std::string Err;
  EXPECT_FALSE(gate::parseBenchJson("{\"schema\":\"mpl-bench/2\",", F, Err));
  EXPECT_NE(Err.find("parse error"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseBenchJson("[1,2,3]", F, Err));
  EXPECT_NE(Err.find("not an object"), std::string::npos) << Err;
}

TEST(ReportParse, WrongSchemaRejected) {
  BenchFile F;
  std::string Err;
  EXPECT_FALSE(gate::parseBenchJson("{\"schema\":\"mpl-trace/1\"}", F, Err));
  EXPECT_NE(Err.find("mpl-trace/1"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseBenchJson("{\"bench\":\"x\"}", F, Err));
  EXPECT_NE(Err.find("schema"), std::string::npos) << Err;
  // A stale mpl-bench/1 baseline fails loudly, naming both schemas,
  // rather than loading with every counter read as 0.
  std::string Stale = fileJson(0.05, {RowSpec{}});
  Stale.replace(Stale.find("mpl-bench/2"), 11, "mpl-bench/1");
  EXPECT_FALSE(gate::parseBenchJson(Stale, F, Err));
  EXPECT_EQ(Err.find('\n'), std::string::npos) << Err;
  EXPECT_NE(Err.find("mpl-bench/1"), std::string::npos) << Err;
  EXPECT_NE(Err.find("mpl-bench/2"), std::string::npos) << Err;
}

TEST(ReportParse, MalformedRowsRejected) {
  BenchFile F;
  std::string Err;
  // No rows array.
  EXPECT_FALSE(
      gate::parseBenchJson("{\"schema\":\"mpl-bench/2\"}", F, Err));
  EXPECT_NE(Err.find("rows"), std::string::npos) << Err;
  // Row without a name.
  EXPECT_FALSE(gate::parseBenchJson(
      "{\"schema\":\"mpl-bench/2\",\"rows\":[{\"config\":\"seq\"}]}", F, Err));
  EXPECT_NE(Err.find("name"), std::string::npos) << Err;
  // Row without a median.
  EXPECT_FALSE(gate::parseBenchJson(
      "{\"schema\":\"mpl-bench/2\",\"rows\":[{\"name\":\"x\"}]}", F, Err));
  EXPECT_NE(Err.find("median"), std::string::npos) << Err;
  // Row that is not an object.
  EXPECT_FALSE(gate::parseBenchJson(
      "{\"schema\":\"mpl-bench/2\",\"rows\":[7]}", F, Err));
}

TEST(ReportParse, GoodFileParses) {
  RowSpec S;
  S.Entangled = true;
  S.PinnedObjects = 9;
  S.PinnedBytes = 512;
  S.Unpins = 9;
  BenchFile F = parseOrDie(fileJson(0.05, {S}));
  ASSERT_EQ(F.Rows.size(), 1u);
  const gate::Row *R = F.find("bench", "par-w1");
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(R->Entangled);
  EXPECT_EQ(R->RepS.size(), 3u);
  EXPECT_EQ(R->counter("em.pinned.bytes"), 512);
  EXPECT_EQ(R->counter("em.pins.objects"), 9);
  EXPECT_EQ(R->leakedPins(), 0);
  EXPECT_EQ(F.find("bench", "no-such-config"), nullptr);
}

//===----------------------------------------------------------------------===//
// Noise classes and sigma
//===----------------------------------------------------------------------===//

TEST(ReportNoise, SigmaRecomputedFromRepTimes) {
  RowSpec S; // reps 19/20/21ms -> sample stddev exactly 1ms
  BenchFile F = parseOrDie(fileJson(0.05, {S}));
  EXPECT_NEAR(F.Rows[0].sigmaS(), 0.001, 1e-9);
  EXPECT_EQ(F.Rows[0].noiseClass(), Noise::Moderate);
}

TEST(ReportNoise, Classes) {
  RowSpec Stable;
  Stable.RepS = {0.0199, 0.020, 0.0201}; // cv 0.5%
  EXPECT_EQ(parseOrDie(fileJson(0.05, {Stable})).Rows[0].noiseClass(),
            Noise::Stable);
  RowSpec Noisy;
  Noisy.RepS = {0.015, 0.020, 0.025}; // cv 25%
  EXPECT_EQ(parseOrDie(fileJson(0.05, {Noisy})).Rows[0].noiseClass(),
            Noise::Noisy);
  RowSpec OneRep;
  OneRep.RepS = {0.020}; // no spread measurable
  EXPECT_EQ(parseOrDie(fileJson(0.05, {OneRep})).Rows[0].noiseClass(),
            Noise::Unknown);
}

//===----------------------------------------------------------------------===//
// Time gate
//===----------------------------------------------------------------------===//

TEST(ReportTimeGate, WithinNoisePasses) {
  RowSpec Base, Cur;
  Cur.MedianS = 0.0209; // +0.9 sigma, allowance is 2 sigma = 2ms
  GateResult R = gateOne(Base, Cur);
  EXPECT_TRUE(R.ok()) << gate::renderFindings(R, GateOptions{});
  EXPECT_EQ(R.ComparedRows, 1);
  EXPECT_EQ(R.TimeGatedRows, 1);
}

TEST(ReportTimeGate, ThreeSigmaRegressionFails) {
  // The acceptance scenario: current median inflated by 3 baseline
  // stddevs must fail while the 1-sigma delta above passes.
  RowSpec Base, Cur;
  Cur.MedianS = 0.023; // +3 sigma > max(2*1ms, 10% floor = 2ms)
  GateResult R = gateOne(Base, Cur);
  EXPECT_FALSE(R.ok());
  ASSERT_NE(R.first(Finding::Kind::TimeRegression), nullptr);
  EXPECT_NE(R.first(Finding::Kind::TimeRegression)->Message.find("sigma"),
            std::string::npos);
}

TEST(ReportTimeGate, FloorAbsorbsTinySigma) {
  // A hyper-stable baseline (cv ~0.5%) must not turn a 5% wobble into a
  // failure: the floor-pct term dominates k*sigma.
  RowSpec Base;
  Base.RepS = {0.0199, 0.020, 0.0201};
  RowSpec Cur = Base;
  Cur.MedianS = 0.021; // +5% < 10% floor
  EXPECT_TRUE(gateOne(Base, Cur).ok());
  Cur.MedianS = 0.023; // +15% > floor
  EXPECT_FALSE(gateOne(Base, Cur).ok());
}

TEST(ReportTimeGate, NoisyRowWidensFloor) {
  RowSpec Base;
  Base.RepS = {0.015, 0.020, 0.025}; // sigma 5ms, noisy
  RowSpec Cur = Base;
  Cur.MedianS = 0.029; // within 2 sigma
  EXPECT_TRUE(gateOne(Base, Cur).ok());
  Cur.MedianS = 0.031; // beyond 2 sigma and the doubled floor
  EXPECT_FALSE(gateOne(Base, Cur).ok());
}

TEST(ReportTimeGate, ImprovementNeverFails) {
  RowSpec Base, Cur;
  Base.PinnedBytes = 4096;
  Base.Residency = 1 << 20;
  Cur.MedianS = 0.002; // 10x faster
  Cur.RepS = {0.002, 0.002, 0.002};
  Cur.PinnedBytes = 0;
  Cur.Residency = 0;
  GateOptions Opts;
  Opts.GateResidency = true;
  Opts.GateCounters = true;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportTimeGate, ShortRowsNotTimeGated) {
  RowSpec Base;
  Base.MedianS = 0.004; // under the 10ms min-time bar
  Base.RepS = {0.004, 0.004, 0.004};
  RowSpec Cur = Base;
  Cur.MedianS = 0.009; // +125%, but too short to gate
  GateResult R = gateOne(Base, Cur);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.TimeGatedRows, 0);
  // ... but its counters/checksums still gate.
  Cur.Checksum = 9999;
  EXPECT_FALSE(gateOne(Base, Cur).ok());
}

//===----------------------------------------------------------------------===//
// Structural gates: missing rows, leaks, checksums, attribution
//===----------------------------------------------------------------------===//

TEST(ReportGate, MissingRowFails) {
  RowSpec A, B;
  B.Name = "other";
  BenchFile Base = parseOrDie(fileJson(0.05, {A, B}));
  BenchFile Cur = parseOrDie(fileJson(0.05, {A}));
  GateResult R = gate::compare(Base, Cur, GateOptions{});
  EXPECT_FALSE(R.ok());
  ASSERT_NE(R.first(Finding::Kind::MissingRow), nullptr);
  EXPECT_EQ(R.first(Finding::Kind::MissingRow)->Name, "other");
  // New rows in the current run are fine (the suite grew).
  EXPECT_TRUE(gate::compare(Cur, Base, GateOptions{}).ok());
}

TEST(ReportGate, LeakedPinsFail) {
  // Leaked pins are read from the row's own counters: pinned objects the
  // joins did not release (em.pins.objects - em.unpins).
  RowSpec Base, Cur;
  Cur.PinnedObjects = 10;
  Cur.Unpins = 7;
  GateResult R = gateOne(Base, Cur);
  EXPECT_FALSE(R.ok());
  const Finding *F = R.first(Finding::Kind::LeakedPins);
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("3 leaked pins"), std::string::npos)
      << F->Message;
  Cur.Unpins = 10;
  EXPECT_TRUE(gateOne(Base, Cur).ok());
}

TEST(ReportGate, ChecksumMismatchSameScaleFails) {
  RowSpec Base, Cur;
  Cur.Checksum = 4321;
  GateResult R = gateOne(Base, Cur);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.first(Finding::Kind::ChecksumMismatch), nullptr);
}

TEST(ReportGate, ChecksumCrossScaleIgnored) {
  // Checksums are a function of the problem size: across scales they are
  // expected to differ, and the gate says so in a non-fatal note.
  RowSpec Base, Cur;
  Cur.Checksum = 4321;
  BenchFile B = parseOrDie(fileJson(0.05, {Base}));
  BenchFile C = parseOrDie(fileJson(0.25, {Cur}));
  GateResult R = gate::compare(B, C, GateOptions{});
  EXPECT_TRUE(R.ok()) << gate::renderFindings(R, GateOptions{});
  EXPECT_FALSE(R.SameScale);
  ASSERT_FALSE(R.Findings.empty());
  EXPECT_FALSE(R.Findings.front().Fatal);
}

//===----------------------------------------------------------------------===//
// Residency and counter gates
//===----------------------------------------------------------------------===//

TEST(ReportSpaceGate, ResidencyGrowthFails) {
  RowSpec Base, Cur;
  Base.Residency = 8 << 20;
  Cur.Residency = 16 << 20; // +100% > 50% tolerance
  GateOptions Opts;
  Opts.GateResidency = true;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.first(Finding::Kind::ResidencyRegression), nullptr);
  // Without the opt-in the same delta passes (time is unchanged).
  EXPECT_TRUE(gateOne(Base, Cur).ok());
  // Within tolerance passes.
  Cur.Residency = 10 << 20;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportSpaceGate, ZeroBaselineUsesAbsSlack) {
  // An allocation-free baseline (fib) must tolerate page-size jitter but
  // fail when the benchmark suddenly allocates for real.
  RowSpec Base, Cur;
  GateOptions Opts;
  Opts.GateResidency = true;
  Cur.Residency = 256 << 10; // under the 1MiB absolute slack
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur.Residency = 8 << 20;
  EXPECT_FALSE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportCounterGate, EntangledReadsJump) {
  RowSpec Base, Cur;
  Base.Entangled = Cur.Entangled = true;
  Base.EntangledReads = 1000;
  GateOptions Opts;
  Opts.GateCounters = true;
  Cur.EntangledReads = 1900; // under 100% tolerance
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur.EntangledReads = 2500;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.first(Finding::Kind::CounterRegression), nullptr);
}

TEST(ReportCounterGate, DisentangledStartsPinning) {
  // A disentangled row (zero baseline counters) that starts pinning
  // objects: the abs slack forgives scheduler jitter, not real pins.
  RowSpec Base, Cur;
  GateOptions Opts;
  Opts.GateCounters = true;
  Cur.PinnedObjects = Cur.Unpins = 64; // within the 64-event slack
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur.PinnedObjects = Cur.Unpins = 5000;
  Cur.PinnedBytes = 1 << 20;
  EXPECT_FALSE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportCounterGate, RelativeBoundIsStrictSlackIsInclusive) {
  // A row passes at cur <= base + slack or cur < base * (1 + pct/100): at
  // the default 100% a counter that exactly doubles fails.
  RowSpec Base, Cur;
  Base.Entangled = Cur.Entangled = true;
  GateOptions Opts;
  Opts.GateCounters = true;
  Base.EntangledReads = 10000;
  Cur.EntangledReads = 20000;
  GateResult R = gateOne(Base, Cur, Opts);
  ASSERT_NE(R.first(Finding::Kind::CounterRegression), nullptr);
  EXPECT_NE(R.first(Finding::Kind::CounterRegression)
                ->Message.find("10000 -> 20000 (limit 19999)"),
            std::string::npos);
  Cur.EntangledReads = 19999;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Base.EntangledReads = 0;
  Cur.EntangledReads = 64; // Exactly the 64-event slack.
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur.EntangledReads = 65;
  EXPECT_FALSE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportCounterGate, DisentangledRowPinningAHundredObjectsFails) {
  // A disentangled BENCH_T4 row that starts pinning 100 objects (16,000
  // bytes, all released at the join): past the 64-event slack, so the
  // counter gate alone fails it, while its time stays within noise.
  RowSpec Base, Cur;
  Cur.MedianS = 0.0205;
  Cur.PinsDown = Cur.PinnedObjects = Cur.Unpins = 100;
  Cur.PinnedBytes = 16000;
  GateOptions Opts;
  Opts.GateCounters = true;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  const Finding *F = R.first(Finding::Kind::CounterRegression);
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("em.pins.down 0 -> 100 (limit 64)"),
            std::string::npos)
      << F->Message;
  // Without the counter opt-in the same row passes.
  EXPECT_TRUE(gateOne(Base, Cur).ok());
}

TEST(ReportCounterGate, ContinuationTrafficJump) {
  // The BENCH_T3 effects row: a pml program whose continuation
  // capture/resume counts are a function of the program alone, so a jump
  // past tolerance means the VM started capturing where it didn't before.
  RowSpec Base, Cur;
  Base.ContCaptured = Base.ContResumed = 4000;
  Cur.ContCaptured = Cur.ContResumed = 4000;
  GateOptions Opts;
  Opts.GateCounters = true;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  // Fewer captures (an optimization) passes: counters gate upward only.
  Cur.ContCaptured = Cur.ContResumed = 100;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  // A 3x capture jump fails, and names the counter.
  Cur.ContCaptured = 12000;
  Cur.ContResumed = 4000;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  const Finding *F = R.first(Finding::Kind::CounterRegression);
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("em.cont.captured"), std::string::npos)
      << F->Message;
  // Without the counter opt-in the same jump passes.
  EXPECT_TRUE(gateOne(Base, Cur).ok());
}

TEST(ReportCounterGate, JitCountersParsedAndGated) {
  // The BENCH_T3 jit ablation rows: tiering at threshold 1 makes the
  // compile count a function of the program, so it gates like the
  // continuation counters — a compile explosion fails, fewer compiles
  // (or absent counters, read as 0) never do.
  RowSpec Base, Cur;
  Base.Config = Cur.Config = "pml-jit-manage";
  Base.JitCompiled = 6;
  Base.JitEntries = 4000;
  Base.JitCodeBytes = 9000;
  BenchFile F = parseOrDie(fileJson(0.05, {Base}));
  EXPECT_EQ(F.Rows[0].counter("pml.jit.compiled"), 6);
  EXPECT_EQ(F.Rows[0].counter("pml.jit.entries"), 4000);
  EXPECT_EQ(F.Rows[0].counter("pml.jit.code_bytes"), 9000);
  // An absent counter reads as 0.
  BenchFile NoJit = parseOrDie(fileJson(0.05, {RowSpec{}}));
  EXPECT_EQ(NoJit.Rows[0].counter("pml.jit.compiled"), 0);

  GateOptions Opts;
  Opts.GateCounters = true;
  Cur = Base;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur.JitCompiled = 0; // interpreter fallback: gates upward only
  Cur.JitEntries = 0;
  Cur.JitCodeBytes = 0;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur = Base;
  Cur.JitCompiled = 600; // past 100% tolerance + 64-event slack
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  const Finding *F2 = R.first(Finding::Kind::CounterRegression);
  ASSERT_NE(F2, nullptr);
  EXPECT_NE(F2->Message.find("pml.jit.compiled"), std::string::npos)
      << F2->Message;
}

TEST(ReportTimeGate, ConfigSubstrArmsTimeGateSelectively) {
  // BENCH_T3 runs counters-only (--no-time-gate) except for the jit
  // ablation rows, which --time-gate-config pml-jit holds to the
  // stddev-aware time rule: losing the JIT's speedup must fail even
  // while the noisier interpreter rows stay exempt.
  RowSpec InterpB, JitB;
  InterpB.Name = JitB.Name = "fib-25";
  InterpB.Config = "pml-interp-manage";
  JitB.Config = "pml-jit-manage";
  RowSpec InterpC = InterpB, JitC = JitB;
  InterpC.MedianS = JitC.MedianS = 0.060; // 3x regression on both rows
  GateOptions Opts;
  Opts.GateTimes = false;
  Opts.TimeGateConfigSubstr = "pml-jit";
  BenchFile B = parseOrDie(fileJson(0.05, {InterpB, JitB}));
  BenchFile C = parseOrDie(fileJson(0.05, {InterpC, JitC}));
  GateResult R = gate::compare(B, C, Opts);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.TimeGatedRows, 1); // only the jit row was held to the rule
  const Finding *F = R.first(Finding::Kind::TimeRegression);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Config, "pml-jit-manage");
  // A jit row within noise passes with the substring armed.
  JitC.MedianS = 0.0205;
  InterpC.MedianS = 0.060; // interp row still 3x: never time-gated
  C = parseOrDie(fileJson(0.05, {InterpC, JitC}));
  EXPECT_TRUE(gate::compare(B, C, Opts).ok());
}

//===----------------------------------------------------------------------===//
// Counter gate on the inputs the site-drift gate used to judge
//===----------------------------------------------------------------------===//

TEST(ReportCounterGate, NewPinsFailEvenWithinTimeNoise) {
  // A disentangled benchmark starts pinning: its time stays within
  // noise, but its pin counters leave a zero baseline — the counter gate
  // alone must catch it.
  RowSpec Base, Cur;
  Cur.MedianS = 0.0205; // well within noise
  Cur.PinsDown = Cur.PinnedObjects = Cur.Unpins = 4000;
  Cur.PinnedBytes = 2000000;
  GateOptions Opts;
  Opts.GateCounters = true;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  const Finding *F = R.first(Finding::Kind::CounterRegression);
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("em.pins.down 0 -> 4000"), std::string::npos)
      << F->Message;
  // Without --gate-counters the same row passes (time within noise).
  EXPECT_TRUE(gateOne(Base, Cur).ok());
}

TEST(ReportCounterGate, PinGrowthGatedShrinkIsNot) {
  RowSpec Base, Cur;
  Base.PinsCross = Base.PinnedObjects = Base.Unpins = 1000;
  Base.PinnedBytes = 100000;
  GateOptions Opts;
  Opts.GateCounters = true;
  // Growth within 100% tolerance passes.
  Cur = Base;
  Cur.PinsCross = Cur.PinnedObjects = Cur.Unpins = 1800;
  Cur.PinnedBytes = 180000;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  // 4x bytes fails.
  Cur = Base;
  Cur.PinnedBytes = 400000;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  const Finding *F = R.first(Finding::Kind::CounterRegression);
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("em.pinned.bytes"), std::string::npos)
      << F->Message;
  // Shrink/disappearance is an improvement.
  Cur = Base;
  Cur.PinsCross = Cur.PinnedObjects = Cur.Unpins = 0;
  Cur.PinnedBytes = 0;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportCounterGate, EveryGatedCounterIsJudged) {
  // The pins are unchanged but entangled reads jump from 0 to 90,000:
  // every gated counter is judged, not only the largest, so the row fails.
  RowSpec Base, Cur;
  Base.PinsDown = Base.PinnedObjects = Base.Unpins = 1000;
  Base.PinnedBytes = 500000;
  Cur = Base;
  Cur.EntangledReads = 90000;
  GateOptions Opts;
  Opts.GateCounters = true;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  const Finding *F = R.first(Finding::Kind::CounterRegression);
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("em.reads.entangled 0 -> 90000"),
            std::string::npos)
      << F->Message;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

TEST(ReportRender, TableCarriesNoiseClass) {
  RowSpec S;
  BenchFile F = parseOrDie(fileJson(0.05, {S}));
  std::string T = gate::renderTable(F);
  EXPECT_NE(T.find("moderate"), std::string::npos) << T;
  EXPECT_NE(T.find("bench"), std::string::npos);
}

TEST(ReportRender, FindingsSummaryLine) {
  RowSpec Base, Cur;
  Cur.MedianS = 0.023;
  GateResult R = gateOne(Base, Cur);
  std::string S = gate::renderFindings(R, GateOptions{});
  EXPECT_NE(S.find("FAIL [time] bench/par-w1"), std::string::npos) << S;
  EXPECT_NE(S.find("compared 1 rows"), std::string::npos) << S;
}

//===----------------------------------------------------------------------===//
// BenchJson writer round-trip (bench/Common.h -> support/Json.h -> gate)
//===----------------------------------------------------------------------===//

TEST(BenchJsonRoundTrip, SchemaFieldsSurvive) {
  bench::RunResult R;
  R.Seconds = 0.020;
  R.MinSeconds = 0.019;
  R.StddevSeconds = 0.001;
  R.RepSeconds = {0.019, 0.020, 0.021};
  R.WS.WorkSec = 0.05;
  R.WS.SpanSec = 0.01;
  R.Checksum = 42;
  R.Counters = {{"em.pinned.bytes", 1024}, {"em.pins.down", 3},
                {"em.pins.objects", 3},    {"em.reads.entangled", 7},
                {"em.unpins", 3},          {"gc.collections", 2},
                {"mm.bytes.peak", 1 << 20}};

  bench::BenchJson J("roundtrip", 0.25, 3);
  J.addMeta("note", "quotes \"and\" backslash \\ survive");
  J.addMetaInt("workers", 2);
  J.addRow("bench \"x\"", "par-w2", /*Entangled=*/true, R);
  std::string Doc = J.dump();

  // Raw parse with src/support/Json.h: every schema field survives.
  json::Value Root;
  std::string Err;
  ASSERT_TRUE(json::parse(Doc, Root, Err)) << Err;
  EXPECT_EQ(Root.field("schema")->StrV, "mpl-bench/2");
  EXPECT_EQ(Root.field("reps")->NumV, 3);
  EXPECT_EQ(Root.field("workers")->NumV, 2);
  EXPECT_NE(Root.field("note")->StrV.find("\"and\""), std::string::npos);
  const json::Value *Row0 = &Root.field("rows")->Items.at(0);
  EXPECT_EQ(Row0->field("name")->StrV, "bench \"x\"");
  EXPECT_TRUE(Row0->field("entangled")->BoolV);
  EXPECT_EQ(Row0->field("time")->field("rep_s")->Items.size(), 3u);
  EXPECT_EQ(Row0->field("checksum")->NumV, 42);
  // Leaked pins are the row's em.pins.objects - em.unpins: no second block.
  EXPECT_EQ(Row0->field("profile"), nullptr);

  // And the gate's own loader accepts the writer's output wholesale.
  BenchFile F;
  ASSERT_TRUE(gate::parseBenchJson(Doc, F, Err)) << Err;
  ASSERT_EQ(F.Rows.size(), 1u);
  const gate::Row &G = F.Rows[0];
  EXPECT_EQ(G.Name, "bench \"x\"");
  EXPECT_NEAR(G.sigmaS(), 0.001, 1e-9);
  EXPECT_EQ(G.counter("em.pinned.bytes"), 1024);
  EXPECT_EQ(G.counter("mm.bytes.peak"), 1 << 20);
  EXPECT_EQ(G.leakedPins(), 0);
  // A self-compare of the round-tripped file is clean under every gate.
  GateOptions Opts;
  Opts.GateResidency = Opts.GateCounters = true;
  EXPECT_TRUE(gate::compare(F, F, Opts).ok());
}

TEST(BenchJsonRoundTrip, RowCarriesEveryEmCounterByRegistryName) {
  // A measured row's counters are the median rep's snapshotAll(), under
  // the registry's own names: every em.* counter, with the value the
  // registry reports, read back alike by a JSON parser and by the gate.
  bench::RunResult R = bench::measure(
      [] {
        int64_t V = 1;
        for (Stat *S :
             {&em::Counts.EntangledReads, &em::Counts.DownPointerPins,
              &em::Counts.CrossPointerPins, &em::Counts.PinnedHolderPins,
              &em::Counts.UnpinnedObjects, &em::Counts.UnpinnedBytes,
              &em::Counts.PinnedObjects, &em::Counts.PinnedBytes,
              &em::Counts.ContCaptured, &em::Counts.ContResumed})
          S->add(V++);
        return int64_t(0);
      },
      rt::Config{}, /*Reps=*/1);
  auto Snap = StatRegistry::get().snapshotAll();
  bench::BenchJson J("counters", 0.05, 1);
  J.addRow("bench", "par-w1", /*Entangled=*/true, R);
  std::string Doc = J.dump();
  json::Value Root;
  std::string Err;
  ASSERT_TRUE(json::parse(Doc, Root, Err)) << Err;
  const json::Value *Ctr = Root.field("rows")->Items.at(0).field("counters");
  ASSERT_NE(Ctr, nullptr);
  BenchFile F = parseOrDie(Doc);
  int EmNames = 0;
  for (const auto &[Name, V] : Snap) {
    if (!Name.starts_with("em."))
      continue;
    ++EmNames;
    const json::Value *Field = Ctr->field(Name);
    ASSERT_NE(Field, nullptr) << Name;
    EXPECT_EQ(Field->NumV, V) << Name;
    EXPECT_EQ(F.Rows.at(0).counter(Name), V) << Name;
  }
  EXPECT_GE(EmNames, 10);
  EXPECT_EQ(R.counter("em.pins.holder"), 4);
  StatRegistry::get().resetAll();
}

TEST(BenchJsonRoundTrip, WarmupRepsAreTheOnesTheBenchTook) {
  // measure()'s tables take one untimed warmup rep; the server's open
  // loop and the space-time figure's one sampled run take none.
  json::Value Measured, Untimed;
  std::string Err;
  ASSERT_TRUE(json::parse(bench::BenchJson("table_time", 0.05, 2).dump(),
                          Measured, Err))
      << Err;
  ASSERT_TRUE(json::parse(
      bench::BenchJson("server", 1.0, 1, /*WarmupReps=*/0).dump(), Untimed,
      Err))
      << Err;
  EXPECT_EQ(Measured.field("warmup_reps")->NumV, 1);
  EXPECT_EQ(Untimed.field("warmup_reps")->NumV, 0);
}

//===----------------------------------------------------------------------===//
// bench::measure, the one timed-rep loop behind every row
//===----------------------------------------------------------------------===//

TEST(Measure, WarmupRepIsNotInRepTimes) {
  // The warmup rep sleeps far longer than any timed rep runs, so a
  // warmup time leaking into rep_s (or the median) would stand out.
  int Calls = 0;
  bench::RunResult R = bench::measure(
      [&] {
        if (Calls++ == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return int64_t(7);
      },
      std::nullopt, /*Reps=*/3);
  EXPECT_EQ(Calls, 4);
  ASSERT_EQ(R.RepSeconds.size(), 3u);
  for (double S : R.RepSeconds)
    EXPECT_LT(S, 0.1);
  EXPECT_LT(R.Seconds, 0.1);
  EXPECT_EQ(R.Checksum, 7);
}

TEST(Measure, CountersComeFromTheMedianRep) {
  // Timed rep I sleeps SleepsMs[I] ms and captures I+1 continuations;
  // the warmup captures 100. Sorted by time the reps are 0, 2, 3, 4, 1,
  // so the lower median is rep 3 — neither the first, the last, nor the
  // middle index.
  const int SleepsMs[] = {0, 80, 20, 40, 60};
  int Rep = -1;
  bench::RunResult R = bench::measure(
      [&] {
        if (Rep >= 0)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(SleepsMs[Rep]));
        em::Counts.ContCaptured.add(Rep < 0 ? 100 : Rep + 1);
        ++Rep;
        return int64_t(1);
      },
      rt::Config{}, /*Reps=*/5);
  ASSERT_EQ(R.RepSeconds.size(), 5u);
  EXPECT_EQ(R.Seconds, R.RepSeconds[3]);
  EXPECT_EQ(R.counter("em.cont.captured"), 4);
  EXPECT_EQ(R.leakedPins(), 0);
}

TEST(MeasureDeathTest, VaryingChecksumFails) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        int64_t N = 0;
        bench::measure([&] { return N++; }, std::nullopt, /*Reps=*/2);
      },
      "checksum varies across repetitions");
}

//===----------------------------------------------------------------------===//
// Chrome trace-event files (mpl_report trace)
//===----------------------------------------------------------------------===//

namespace {

/// A trace in the exporter's shape: one thread_name record, then
/// \p Events (each with a leading comma), then otherData.
std::string traceDoc(const std::string &Events, const std::string &Dropped,
                     const std::string &Counters) {
  return "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\","
         "\"pid\":0,\"tid\":0,\"args\":{\"name\":\"worker 0\"}}" +
         Events + "],\"otherData\":{\"dropped_events\":\"" + Dropped +
         "\",\"counters\":" + Counters + "}}";
}

/// One event on track \p Tid; \p Tail adds fields after ts.
std::string event(const char *Name, const char *Ph, int Tid,
                  const std::string &Tail = "") {
  return std::string(",{\"name\":\"") + Name + "\",\"ph\":\"" + Ph +
         "\",\"pid\":0,\"tid\":" + std::to_string(Tid) + ",\"ts\":1" +
         Tail + "}";
}

/// A slice, a counter sample and one request's enqueue/execute flow pair.
const std::string CleanEvents =
    event("fork", "B", 0) + event("fork", "E", 0) +
    event("em", "C", 0, ",\"args\":{\"pins\":2}") +
    event("net.request_flow", "s", 1000, ",\"cat\":\"net\",\"id\":7") +
    event("net.request_flow", "f", 1, ",\"cat\":\"net\",\"id\":7");
const std::string Balanced =
    "{\"net.requests\":3,\"net.resp.ok\":2,\"net.resp.shed\":1}";

gate::TraceCheckOptions everyCheck() {
  gate::TraceCheckOptions O;
  O.RequiredEvents = {"fork", "em"};
  O.CheckFlowPairs = O.CheckNetBalance = true;
  return O;
}

/// checkTrace's diagnostic for \p Doc, or "" when it passes.
std::string traceError(const std::string &Doc,
                       const gate::TraceCheckOptions &O) {
  std::string Summary, Err;
  return gate::checkTrace(Doc, O, Summary, Err) ? "" : Err;
}

} // namespace

TEST(TraceCheck, CleanTracePassesEveryCheck) {
  std::string Summary, Err;
  ASSERT_TRUE(gate::checkTrace(traceDoc(CleanEvents, "0", Balanced),
                               everyCheck(), Summary, Err))
      << Err;
  EXPECT_NE(Summary.find("net balance ok: 3 requests == 3 responses"),
            std::string::npos)
      << Summary;
  EXPECT_NE(Summary.find("trace ok: 5 events (1 slices, 0 instants, 2 flows, "
                         "1 counters, 1 metadata), 3 distinct names, 0 "
                         "dropped"),
            std::string::npos)
      << Summary;
  gate::TraceCheckOptions MoreRequired = everyCheck();
  MoreRequired.RequiredEvents.push_back("gc");
  EXPECT_NE(traceError(traceDoc(CleanEvents, "0", Balanced), MoreRequired)
                .find("required event 'gc' absent"),
            std::string::npos);
}

TEST(TraceCheck, UnbalancedSliceFails) {
  // Balance is per track: a B on worker 0 does not open a slice that an E
  // on worker 1 may close.
  EXPECT_NE(traceError(traceDoc(event("fork", "B", 0) + event("fork", "E", 1),
                                "0", "{}"),
                       {})
                .find("E without matching B on track tid=1"),
            std::string::npos);
  EXPECT_NE(traceError(traceDoc(event("fork", "B", 0), "0", "{}"), {})
                .find("unclosed B slice on track tid=0"),
            std::string::npos);
}

TEST(TraceCheck, NonNumericCounterArgFails) {
  std::string Doc =
      traceDoc(event("em", "C", 0, ",\"args\":{\"pins\":\"2\"}"), "0", "{}");
  EXPECT_NE(traceError(Doc, {}).find("counter event 'em' arg 'pins' is not "
                                     "a number"),
            std::string::npos);
}

TEST(TraceCheck, DroppedEventsFailUnlessAllowed) {
  std::string Doc = traceDoc(CleanEvents, "12", Balanced);
  EXPECT_NE(traceError(Doc, everyCheck()).find("12 events dropped"),
            std::string::npos);
  gate::TraceCheckOptions Allow = everyCheck();
  Allow.AllowDrops = true;
  std::string Summary, Err;
  ASSERT_TRUE(gate::checkTrace(Doc, Allow, Summary, Err)) << Err;
  EXPECT_NE(Summary.find("12 dropped"), std::string::npos) << Summary;
}

TEST(TraceCheck, UnpairedFlowFailsUnderFlowPairs) {
  std::string Doc = traceDoc(
      event("net.request_flow", "s", 1000, ",\"cat\":\"net\",\"id\":9"), "0",
      "{}");
  EXPECT_EQ(traceError(Doc, {}), "");
  gate::TraceCheckOptions Pairs;
  Pairs.CheckFlowPairs = true;
  EXPECT_NE(traceError(Doc, Pairs).find("flow 'net|net.request_flow|9' has "
                                        "only its start ('s') half"),
            std::string::npos);
}

TEST(TraceCheck, NetBalanceFailsOnImbalanceAndOnZeroRequests) {
  gate::TraceCheckOptions Net;
  Net.CheckNetBalance = true;
  std::string Lost =
      "{\"net.requests\":4,\"net.resp.ok\":2,\"net.resp.shed\":1}";
  EXPECT_NE(traceError(traceDoc(CleanEvents, "0", Lost), Net)
                .find("net counter imbalance: net.requests=4 but "
                      "ok+shed+deadline+error+draining=3"),
            std::string::npos);
  // Without the net.* family the balance would hold vacuously (0 == 0).
  EXPECT_NE(traceError(traceDoc(CleanEvents, "0", "{}"), Net)
                .find("net.requests is 0/absent"),
            std::string::npos);
  EXPECT_EQ(traceError(traceDoc(CleanEvents, "0", Lost), {}), "");
}

TEST(TraceCheck, CompleteSlicesNeedANonNegativeDur) {
  EXPECT_EQ(traceError(traceDoc(event("task", "X", 0, ",\"dur\":0"), "0",
                                "{}"),
                       {}),
            "");
  for (const char *Bad : {"", ",\"dur\":-1", ",\"dur\":\"5\""})
    EXPECT_NE(traceError(traceDoc(event("task", "X", 0, Bad), "0", "{}"), {})
                  .find("X slice 'task' without a numeric dur >= 0"),
              std::string::npos)
        << Bad;
}

//===----------------------------------------------------------------------===//
// The span ledger's DAG in a trace (mpl_report spans)
//===----------------------------------------------------------------------===//

namespace {

/// One task slice in the exporter's shape; ts and dur in us.
std::string taskSlice(int Id, int Parent, int Tid, int Ts, int Dur,
                      int SelfUs, int OnCp, int Line, int Col, int Depth,
                      int EmReads, int Pins) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                ",{\"name\":\"task\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                "\"ts\":%d,\"dur\":%d,\"args\":{\"id\":%d,\"parent\":%d,"
                "\"self_ns\":%d,\"line\":%d,\"col\":%d,\"depth\":%d,"
                "\"em_reads\":%d,\"pins\":%d,\"on_cp\":%d}}",
                Tid, Ts, Dur, Id, Parent, SelfUs * 1000, Line, Col, Depth,
                EmReads, Pins, OnCp);
  return Buf;
}

/// A three-task run: the root forks two tasks at L4:3 and the second is
/// stolen by worker 1. L6:7 made the entangled read and L4:3 the pin.
const std::string SpanEvents =
    event("fork", "i", 0) +
    taskSlice(1, -1, 0, 0, 8000, 4000, 1, 0, 0, 0, 0, 0) +
    taskSlice(2, 1, 0, 1000, 2000, 2000, 0, 4, 3, 1, 0, 1) +
    taskSlice(3, 1, 1, 1000, 4000, 4000, 1, 4, 3, 1, 1, 0) +
    event("task_flow", "s", 0, ",\"cat\":\"spans\",\"id\":3") +
    event("task_flow", "f", 1, ",\"cat\":\"spans\",\"id\":3,\"bp\":\"e\"");
const char *SpanData =
    "\"spans\":{\"work_s\":0.010,\"span_s\":0.008,\"valid\":1,"
    "\"dropped\":0,\"lines\":[{\"line\":6,\"col\":7,\"em_reads\":1,"
    "\"pins\":0},{\"line\":4,\"col\":3,\"em_reads\":0,\"pins\":1}]}";

/// A trace holding \p Events and, under otherData, \p Data.
std::string spanTrace(const std::string &Events, const std::string &Data) {
  return "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\","
         "\"pid\":0,\"tid\":0,\"args\":{\"name\":\"worker 0\"}}" +
         Events + "],\"otherData\":{\"dropped_events\":\"0\"" +
         (Data.empty() ? "" : "," + Data) + "}}";
}

obs::SpanRunSummary parseSpansOrDie(const std::string &Text) {
  obs::SpanRunSummary S;
  std::string Err;
  EXPECT_TRUE(obs::readSpanTrace(Text, S, Err)) << Err;
  return S;
}

/// readSpanTrace's diagnostic for \p Text, or "" when it reads.
std::string spanError(const std::string &Text) {
  obs::SpanRunSummary S;
  std::string Err;
  return obs::readSpanTrace(Text, S, Err) ? "" : Err;
}

} // namespace

TEST(SpansParse, GoodFileParses) {
  obs::SpanRunSummary S = parseSpansOrDie(spanTrace(SpanEvents, SpanData));
  EXPECT_TRUE(S.Valid);
  EXPECT_EQ(S.Tasks, 3);
  EXPECT_EQ(S.Stolen, 1); // Task 3 ran on worker 1, its parent on 0.
  EXPECT_EQ(S.Dropped, 0);
  EXPECT_DOUBLE_EQ(S.SchedWorkSec, 0.010);
  EXPECT_DOUBLE_EQ(S.SchedSpanSec, 0.008);
  EXPECT_DOUBLE_EQ(S.LedgerWorkSec, 0.010);
  EXPECT_DOUBLE_EQ(S.CriticalPathSec, 0.008);
  EXPECT_DOUBLE_EQ(S.agreementPct(), 0);
  EXPECT_EQ(S.EmReads, 1);
  EXPECT_EQ(S.PinEvents, 1);
  ASSERT_EQ(S.AllTasks.size(), 3u);
  EXPECT_EQ(S.AllTasks[0].Parent, ~uint64_t(0));
  EXPECT_EQ(S.AllTasks[1].Id, 2u);
  EXPECT_EQ(S.AllTasks[2].StopNs - S.AllTasks[2].StartNs, 4000000);
  EXPECT_TRUE(S.AllTasks[2].Stolen);
  EXPECT_TRUE(S.AllTasks[2].OnCriticalPath);
  EXPECT_EQ(S.AllTasks[2].HeapDepth, 1);
  EXPECT_FALSE(S.AllTasks[1].OnCriticalPath);
  // Lines: the root's "no location" bucket, the fork site with its pin
  // and both tasks, and the read's line.
  ASSERT_EQ(S.Lines.size(), 3u);
  EXPECT_EQ(S.Lines[1].first, obs::spanPackLoc(4, 3));
  EXPECT_EQ(S.Lines[1].second.Pins, 1);
  EXPECT_EQ(S.Lines[1].second.Tasks, 2);
  EXPECT_EQ(S.Lines[1].second.CpSelfNs, 4000000);
  EXPECT_EQ(S.Lines[2].first, obs::spanPackLoc(6, 7));
  EXPECT_EQ(S.Lines[2].second.EmReads, 1);
}

TEST(SpansParse, MalformedRejected) {
  EXPECT_NE(spanError("").find("parse error"), std::string::npos);
  EXPECT_NE(spanError("[1]").find("no traceEvents array"), std::string::npos);
  // A trace recorded without the spans plane.
  EXPECT_NE(spanError(spanTrace(CleanEvents, "")).find(
                "no otherData.spans (record the run with MPL_OBS=spans)"),
            std::string::npos);
  EXPECT_NE(spanError(spanTrace(",{\"name\":\"task\",\"ph\":\"X\",\"pid\":0,"
                                "\"tid\":0,\"ts\":0,\"dur\":1,"
                                "\"args\":{\"id\":\"7\"}}",
                                SpanData))
                .find("task slice 0: no numeric id"),
            std::string::npos);
  EXPECT_NE(spanError(spanTrace(taskSlice(7, -1, 0, 0, -1, 0, 1, 0, 0, 0, 0,
                                          0),
                                SpanData))
                .find("task slice 0: no numeric dur >= 0"),
            std::string::npos);
}

TEST(SpansRender, SummaryPathLinesAndFold) {
  obs::SpanRunSummary S = parseSpansOrDie(spanTrace(SpanEvents, SpanData));

  std::string Sum = obs::renderSpanSummary(S);
  EXPECT_NE(Sum.find("3 tasks (1 stolen, 0 dropped)"), std::string::npos)
      << Sum;
  EXPECT_NE(Sum.find("critical path 8.000ms"), std::string::npos) << Sum;
  EXPECT_NE(Sum.find("em events: 1 reads, 1 pins"), std::string::npos) << Sum;

  // Critical path render lists exactly the on_cp tasks, root labelled.
  std::string Cp = obs::renderCriticalPath(S);
  EXPECT_NE(Cp.find("#1"), std::string::npos) << Cp;
  EXPECT_NE(Cp.find("root"), std::string::npos) << Cp;
  EXPECT_NE(Cp.find("(stolen)"), std::string::npos) << Cp;
  EXPECT_EQ(Cp.find("#2"), std::string::npos) << "off-CP task listed:\n"
                                              << Cp;

  // Top lines sorted by em reads first: the read line leads.
  std::string Top = obs::renderTopLines(S, 10);
  size_t P6 = Top.find("L6:7");
  size_t P4 = Top.find("L4:3");
  ASSERT_NE(P6, std::string::npos) << Top;
  ASSERT_NE(P4, std::string::npos) << Top;
  EXPECT_LT(P6, P4) << "em-read line must sort first:\n" << Top;
  EXPECT_EQ(obs::renderTopLines(S, 1).find("L4:3"), std::string::npos);

  // Folded stacks: child frames chain through the parent's fork site to
  // the root; values are self time in ns.
  std::string Fold = obs::foldSpans(S);
  EXPECT_NE(Fold.find("root 4000000\n"), std::string::npos) << Fold;
  EXPECT_NE(Fold.find("root;L4:3 2000000\n"), std::string::npos) << Fold;
  EXPECT_NE(Fold.find("root;L4:3 4000000\n"), std::string::npos) << Fold;
}

TEST(SpansRoundTrip, TraceReadBackRendersAsTheRun) {
  // A pml run at four workers with the ledger armed: its in-memory summary
  // and the one read back from the trace.json it wrote print the same four
  // `mpl_report spans` outputs.
  const std::string Src =
      "fun fib n =\n"
      "  if n < 2 then n\n"
      "  else let val p = par (fib (n - 1), fib (n - 2)) in fst p + snd p "
      "end\n"
      "let val r = ref (ref 0)\n"
      "in par ((r := ref 7; fib 12), !(!r) + fib 11) end\n";
  obs::SpanLedger::get().enable();
  rt::Config Cfg;
  Cfg.NumWorkers = 4;
  obs::SpanRunSummary Run;
  std::string Path = ::testing::TempDir() + "report_test_spans_trace.json";
  {
    rt::Runtime R(Cfg);
    std::string Output, Rendered, Type;
    std::vector<std::string> Errors;
    R.run([&] {
      ASSERT_TRUE(pml::evalSource(Src, Output, Rendered, Type, Errors))
          << (Errors.empty() ? "" : Errors[0]);
    });
    Run = obs::SpanLedger::get().lastRun();
    ASSERT_TRUE(obs::Tracer::get().writeChromeTrace(Path));
  }
  obs::SpanLedger::get().disable();
  ASSERT_TRUE(Run.Valid);
  ASSERT_GT(Run.Tasks, 3);

  std::optional<std::string> Text = readFile(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(Text);
  obs::SpanRunSummary Back;
  std::string Err;
  ASSERT_TRUE(obs::readSpanTrace(*Text, Back, Err)) << Err;
  EXPECT_EQ(obs::renderSpanSummary(Back), obs::renderSpanSummary(Run));
  EXPECT_EQ(obs::renderCriticalPath(Back), obs::renderCriticalPath(Run));
  EXPECT_EQ(obs::renderTopLines(Back, 10), obs::renderTopLines(Run, 10));
  EXPECT_EQ(obs::foldSpans(Back), obs::foldSpans(Run));
}
