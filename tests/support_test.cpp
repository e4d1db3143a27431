//===- tests/support_test.cpp - Unit tests for src/support ---------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"
#include "support/File.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

using namespace mpl;

TEST(RandomTest, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(RandomTest, BoundedStaysInBounds) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBounded(17), 17u);
}

TEST(RandomTest, ForkIsScheduleIndependent) {
  Rng Base(99);
  // Forking the same index twice gives the same stream regardless of what
  // happened to the parent in between.
  Rng F1 = Base.fork(5);
  Base.next();
  Base.next();
  Rng F2 = Rng(99).fork(5);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(F1.next(), F2.next());
}

TEST(RandomTest, DoubleInUnitInterval) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, Hash64Injective) {
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I < 10000; ++I)
    Seen.insert(hash64(I));
  EXPECT_EQ(Seen.size(), 10000u);
}

TEST(StatsTest, AddAndReport) {
  static Stat S("test.counter");
  S.set(0);
  S.add(5);
  S.inc();
  EXPECT_EQ(S.get(), 6);
  EXPECT_EQ(StatRegistry::get().valueOf("test.counter"), 6);
  EXPECT_NE(StatRegistry::get().report().find("test.counter"),
            std::string::npos);
}

TEST(StatsTest, NoteMaxKeepsMaximum) {
  static Stat S("test.max");
  S.set(0);
  S.noteMax(10);
  S.noteMax(3);
  S.noteMax(12);
  EXPECT_EQ(S.get(), 12);
}

TEST(StatsTest, ConcurrentAdds) {
  static Stat S("test.concurrent");
  S.set(0);
  std::vector<std::thread> Ts;
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([] {
      for (int I = 0; I < 10000; ++I)
        S.inc();
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(S.get(), 40000);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer T;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(T.elapsedNs(), 5'000'000);
  EXPECT_LT(T.elapsedSec(), 5.0);
}

TEST(CliTest, ParsesFlagsAndPositional) {
  // A bare flag followed by a non-flag token consumes it as a value, so
  // positional arguments are listed first (documented in Cli.h).
  const char *Argv[] = {"prog", "input.txt", "-n", "42", "-name=msort",
                        "-verbose"};
  Cli C(6, const_cast<char **>(Argv));
  EXPECT_EQ(C.getInt("n", 0), 42);
  EXPECT_EQ(C.getString("name", ""), "msort");
  EXPECT_TRUE(C.getBool("verbose"));
  EXPECT_FALSE(C.getBool("quiet"));
  EXPECT_EQ(C.getInt("missing", 7), 7);
  ASSERT_EQ(C.positional().size(), 1u);
  EXPECT_EQ(C.positional()[0], "input.txt");
}

TEST(CliTest, DoubleFlags) {
  const char *Argv[] = {"prog", "-factor", "2.5"};
  Cli C(3, const_cast<char **>(Argv));
  EXPECT_DOUBLE_EQ(C.getDouble("factor", 0.0), 2.5);
}

TEST(CliTest, RepeatedFlagKeepsEveryValue) {
  const char *Argv[] = {"prog", "trace.json", "--require-event", "fork", "-n",
                        "3",    "--require-event=em", "--allow-drops"};
  Cli C(8, const_cast<char **>(Argv));
  EXPECT_EQ(C.getAll("require-event"),
            (std::vector<std::string>{"fork", "em"}));
  EXPECT_TRUE(C.getAll("missing").empty());
  // The single-value lookups still read the first occurrence.
  EXPECT_EQ(C.getString("require-event", ""), "fork");
  // flags() lists every flag as given, so a tool can reject unknown ones.
  ASSERT_EQ(C.flags().size(), 4u);
  EXPECT_EQ(C.flags()[1].first, "n");
  EXPECT_EQ(C.flags()[3].first, "allow-drops");
  EXPECT_TRUE(C.flags()[3].second.empty());
  ASSERT_EQ(C.positional().size(), 1u);
}

TEST(TableTest, AlignsColumns) {
  Table T({"name", "time"});
  T.addRow({"fib", "1.5s"});
  T.addRow({"mergesort", "0.3s"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("mergesort"), std::string::npos);
  // Column 2 aligned: both time cells start at the same offset.
  size_t Line1 = Out.find("fib");
  size_t Line2 = Out.find("mergesort");
  EXPECT_NE(Line1, std::string::npos);
  EXPECT_NE(Line2, std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::fmtRatio(2.0), "2.00x");
  EXPECT_EQ(Table::fmtInt(42), "42");
  EXPECT_EQ(Table::fmtBytes(512), "512B");
  EXPECT_EQ(Table::fmtBytes(2048), "2.0K");
  EXPECT_NE(Table::fmtSec(0.5).find("ms"), std::string::npos);
  EXPECT_NE(Table::fmtSec(2.0).find("s"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Histogram percentiles
//===----------------------------------------------------------------------===//

TEST(HistogramTest, PercentilesMatchBucketBounds) {
  Histogram H("test.percentiles");
  // 90 samples land in bucket 4 (values in [8, 16), upper bound 15) and 10
  // in bucket 10 (values in [512, 1024), upper bound 1023).
  for (int I = 0; I < 90; ++I)
    H.record(10);
  for (int I = 0; I < 10; ++I)
    H.record(1000);
  Histogram::Percentiles P = H.percentiles();
  EXPECT_EQ(P.P50, 15);   // Cumulative 90 > 50.
  EXPECT_EQ(P.P95, 1023); // Cumulative 90 <= 95 < 100.
  EXPECT_EQ(P.P99, 1023);
  EXPECT_EQ(P.P999, 1023);
  // One-pass percentiles agree with the per-quantile walk.
  EXPECT_EQ(P.P50, H.approxQuantile(0.50));
  EXPECT_EQ(P.P95, H.approxQuantile(0.95));
  EXPECT_EQ(P.P99, H.approxQuantile(0.99));
  EXPECT_EQ(P.P999, H.approxQuantile(0.999));
}

TEST(HistogramTest, P999SeparatesFromP99InLongTail) {
  Histogram H("test.percentiles.tail");
  // 9990 fast samples, 10 slow outliers: P99 stays in the fast bucket
  // while P999 lands on the outliers.
  for (int I = 0; I < 9990; ++I)
    H.record(10); // Bucket 4, upper bound 15.
  for (int I = 0; I < 10; ++I)
    H.record(1'000'000); // Bucket 20: [2^19, 2^20), upper bound 2^20-1.
  Histogram::Percentiles P = H.percentiles();
  EXPECT_EQ(P.P99, 15);
  EXPECT_EQ(P.P999, (1 << 20) - 1);
}

TEST(HistogramTest, PercentilesOfEmptyAndSingleton) {
  Histogram H("test.percentiles.edge");
  Histogram::Percentiles P = H.percentiles();
  EXPECT_EQ(P.P50, 0);
  EXPECT_EQ(P.P95, 0);
  EXPECT_EQ(P.P99, 0);
  // A lone sample is every percentile (bucket upper-bound semantics).
  H.record(100); // Bucket 7: [64, 128), upper bound 127.
  P = H.percentiles();
  EXPECT_EQ(P.P50, 127);
  EXPECT_EQ(P.P95, 127);
  EXPECT_EQ(P.P99, 127);
  EXPECT_EQ(P.P999, 127);
}

TEST(HistogramTest, PercentilesZeroValuedSamplesUseBucketZero) {
  Histogram H("test.percentiles.zero");
  for (int I = 0; I < 10; ++I)
    H.record(0);
  Histogram::Percentiles P = H.percentiles();
  EXPECT_EQ(P.P50, 0);
  EXPECT_EQ(P.P99, 0);
}

//===----------------------------------------------------------------------===//
// json::Writer and writeFile
//===----------------------------------------------------------------------===//

namespace {
json::Value parseOrFail(const std::string &Text) {
  json::Value V;
  std::string Err;
  EXPECT_TRUE(json::parse(Text, V, Err)) << Err << "\n" << Text;
  return V;
}
} // namespace

TEST(JsonWriterTest, EscapesKeysAndStrings) {
  const std::string Key = "k\"\\";
  const std::string Str = "a\"b\\c\x01" "d\n";
  json::Writer W;
  W.beginObject().kv(Key, Str).endObject();
  std::string Text = W.take();
  EXPECT_EQ(Text, R"({"k\"\\":"a\"b\\c\u0001d\n"})");
  json::Value V = parseOrFail(Text);
  ASSERT_EQ(V.Fields.size(), 1u);
  EXPECT_EQ(V.Fields[0].first, Key);
  EXPECT_EQ(V.Fields[0].second.StrV, Str);
}

TEST(JsonWriterTest, NestsAndWritesEmptyContainers) {
  json::Writer W;
  W.beginObject()
      .key("a")
      .beginArray()
      .endArray()
      .key("o")
      .beginObject()
      .endObject()
      .key("n")
      .beginArray()
      .beginObject()
      .kv("x", 1)
      .endObject()
      .beginArray()
      .value(true)
      .value(false)
      .endArray()
      .endArray()
      .endObject();
  EXPECT_EQ(W.take(), R"({"a":[],"o":{},"n":[{"x":1},[true,false]]})");
  json::Writer E;
  E.beginArray().endArray();
  EXPECT_EQ(E.take(), "[]");
}

TEST(JsonWriterTest, WritesIntegersExactly) {
  json::Writer W;
  W.beginArray()
      .value(std::numeric_limits<int64_t>::min())
      .value(std::numeric_limits<int64_t>::max())
      .value(std::numeric_limits<uint64_t>::max())
      .value(0)
      .endArray();
  EXPECT_EQ(W.take(), "[-9223372036854775808,9223372036854775807,"
                      "18446744073709551615,0]");
}

TEST(JsonWriterTest, DoublesRoundTripBitExact) {
  const double Values[] = {0.1,     1.0 / 3.0,   -2.5e-7,
                           1e-300,  5e-324,      1.7976931348623157e308,
                           1e21,    0.015486678, 123456.789};
  json::Writer W;
  W.beginArray();
  for (double D : Values)
    W.value(D);
  W.endArray();
  json::Value V = parseOrFail(W.take());
  ASSERT_EQ(V.Items.size(), std::size(Values));
  for (size_t I = 0; I < std::size(Values); ++I)
    EXPECT_EQ(std::bit_cast<uint64_t>(V.Items[I].NumV),
              std::bit_cast<uint64_t>(Values[I]))
        << "value " << I;
  // JSON has no NaN or infinity; the document stays parseable.
  json::Writer N;
  N.beginArray().value(std::nan("")).value(HUGE_VAL).endArray();
  EXPECT_EQ(N.take(), "[null,null]");
}

TEST(JsonWriterTest, KeepsKeyOrder) {
  json::Writer W;
  W.beginObject().kv("zeta", 1).kv("alpha", 2).kv("mid", "3").endObject();
  json::Value V = parseOrFail(W.take());
  ASSERT_EQ(V.Fields.size(), 3u);
  EXPECT_EQ(V.Fields[0].first, "zeta");
  EXPECT_EQ(V.Fields[1].first, "alpha");
  EXPECT_EQ(V.Fields[2].first, "mid");
}

TEST(JsonWriterTest, NewlineBreaksAfterTheComma) {
  json::Writer W;
  W.beginArray()
      .newline()
      .value(1)
      .newline(2)
      .value(2)
      .newline()
      .endArray()
      .newline();
  EXPECT_EQ(W.take(), "[\n1,\n  2\n]\n");
}

TEST(WriteFileTest, WritesWholeText) {
  std::string Path = testing::TempDir() + "support_test_write_file.json";
  ASSERT_TRUE(writeFile(Path, "{\"a\":1}\n"));
  std::ifstream In(Path);
  std::stringstream Ss;
  Ss << In.rdbuf();
  EXPECT_EQ(Ss.str(), "{\"a\":1}\n");
  std::remove(Path.c_str());
  EXPECT_FALSE(writeFile(testing::TempDir() + "no/such/dir/x.json", "{}"));
}

TEST(ReadFileTest, ReadsBackWhatWriteFileWrote) {
  std::string Path = testing::TempDir() + "support_test_read_file.json";
  ASSERT_TRUE(writeFile(Path, "{\"a\":1}\n"));
  std::optional<std::string> Text = readFile(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(Text.has_value());
  EXPECT_EQ(*Text, "{\"a\":1}\n");
}

TEST(ReadFileTest, MissingPathIsNullopt) {
  EXPECT_FALSE(readFile(testing::TempDir() + "no/such/dir/x.json"));
}

TEST(WriteFileTest, FullDeviceFails) {
  // The write itself fits in the stdio buffer and succeeds; only the
  // flush in fclose hits ENOSPC.
  EXPECT_FALSE(writeFile("/dev/full", std::string(2000, ' ')));
}
