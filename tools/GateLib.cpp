//===- tools/GateLib.cpp - Deterministic bench regression gate ------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "GateLib.h"

#include "support/File.h"
#include "support/Json.h"
#include "support/Table.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

namespace mpl {
namespace gate {

namespace {

double numField(const json::Value *V, const char *Name, double Default = 0) {
  if (!V)
    return Default;
  const json::Value *F = V->field(Name);
  return F && F->isNumber() ? F->NumV : Default;
}

std::string strField(const json::Value *V, const char *Name) {
  if (!V)
    return "";
  const json::Value *F = V->field(Name);
  return F && F->isString() ? F->StrV : "";
}

/// A JSON number from a file as an integer label, printed rather than
/// cast so an out-of-range value cannot overflow an integer type.
std::string intLabel(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  return Buf;
}

} // namespace

const char *findingKindName(Finding::Kind K) {
  switch (K) {
  case Finding::Kind::MissingRow:
    return "missing-row";
  case Finding::Kind::LeakedPins:
    return "leaked-pins";
  case Finding::Kind::ChecksumMismatch:
    return "checksum";
  case Finding::Kind::ResidencyRegression:
    return "residency";
  case Finding::Kind::CounterRegression:
    return "counter";
  case Finding::Kind::Note:
    return "note";
  }
  return "?";
}

int64_t Row::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It != Counters.end() ? It->second : 0;
}

const Row *BenchFile::find(const std::string &Name,
                           const std::string &Config) const {
  for (const Row &R : Rows)
    if (R.Name == Name && R.Config == Config)
      return &R;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

bool parseBenchJson(const std::string &Text, BenchFile &Out, std::string &Err) {
  if (Text.find_first_not_of(" \t\r\n") == std::string::npos) {
    Err = "empty input (expected an mpl-bench/2 document)";
    return false;
  }
  json::Value Root;
  if (!json::parse(Text, Root, Err)) {
    Err = "parse error: " + Err;
    return false;
  }
  if (!Root.isObject()) {
    Err = "top-level value is not an object";
    return false;
  }
  std::string Schema = strField(&Root, "schema");
  if (Schema != "mpl-bench/2") {
    Err = Schema.empty() ? "missing schema field (not an mpl-bench file)"
                         : "unsupported schema '" + Schema +
                               "' (this reader loads mpl-bench/2 only)";
    return false;
  }
  Out.Bench = strField(&Root, "bench");
  Out.Scale = numField(&Root, "scale");
  const json::Value *Rows = Root.field("rows");
  if (!Rows || !Rows->isArray()) {
    Err = "missing rows array";
    return false;
  }
  Out.Rows.clear();
  for (size_t I = 0; I < Rows->Items.size(); ++I) {
    const json::Value &RV = Rows->Items[I];
    std::string RowId = "row " + std::to_string(I);
    if (!RV.isObject()) {
      Err = RowId + ": not an object";
      return false;
    }
    Row R;
    R.Name = strField(&RV, "name");
    if (R.Name.empty()) {
      Err = RowId + ": missing name";
      return false;
    }
    R.Config = strField(&RV, "config");
    if (const json::Value *E = RV.field("entangled"))
      R.Entangled = E->BoolV;
    const json::Value *Time = RV.field("time");
    if (!Time || !Time->field("median_s") ||
        !Time->field("median_s")->isNumber()) {
      Err = RowId + " ('" + R.Name + "'): missing time.median_s";
      return false;
    }
    R.MedianS = numField(Time, "median_s");
    R.StddevS = numField(Time, "stddev_s");
    const json::Value *WS = RV.field("work_span");
    R.WorkS = numField(WS, "work_s");
    R.SpanS = numField(WS, "span_s");
    // Checksums and counters are compared exactly, so each must be an
    // integer in int64 range: casting any other double is undefined.
    auto IntField = [&](const std::string &Field, double V, int64_t &Dst) {
      if (V >= -0x1p63 && V < 0x1p63 && V == std::trunc(V)) {
        Dst = static_cast<int64_t>(V);
        return true;
      }
      char Num[32];
      *std::to_chars(Num, Num + sizeof(Num) - 1, V).ptr = '\0';
      Err = RowId + " ('" + R.Name + "'): " + Field + " " + Num +
            " is not an int64";
      return false;
    };
    if (const json::Value *Ctr = RV.field("counters"); Ctr && Ctr->isObject())
      for (const auto &[Name, V] : Ctr->Fields)
        if (V.isNumber() &&
            !IntField("counters." + Name, V.NumV, R.Counters[Name]))
          return false;
    if (const json::Value *Ck = RV.field("checksum"); Ck && Ck->isNumber()) {
      if (!IntField("checksum", Ck->NumV, R.Checksum))
        return false;
      R.HasChecksum = true;
    }
    Out.Rows.push_back(std::move(R));
  }
  return true;
}

bool loadBenchFile(const std::string &Path, BenchFile &Out, std::string &Err) {
  std::optional<std::string> Text = readFile(Path);
  if (!Text) {
    Err = Path + ": cannot open";
    return false;
  }
  if (!parseBenchJson(*Text, Out, Err)) {
    Err = Path + ": " + Err;
    return false;
  }
  Out.Path = Path;
  return true;
}

//===----------------------------------------------------------------------===//
// Gate
//===----------------------------------------------------------------------===//

namespace {

/// Upward-only counter limit, inclusive: a row passes at cur <= base +
/// AbsSlack (zero/near-zero baselines would otherwise flag scheduler
/// jitter) or at cur < base grown by Pct percent. The relative bound is
/// strict, so at 100% a counter that doubles fails.
int64_t counterLimit(int64_t Base, double Pct, int64_t AbsSlack) {
  double Rel = static_cast<double>(Base) * (1.0 + Pct / 100.0);
  return std::max(static_cast<int64_t>(std::ceil(Rel)) - 1, Base + AbsSlack);
}

/// One counter an opt-in gate holds upward: its registry name, the gate
/// whose finding it raises, and the GateOptions field with its absolute
/// slack.
struct GatedCounter {
  const char *Name;
  Finding::Kind K;
  int64_t GateOptions::*Slack;
};

constexpr Finding::Kind Residency = Finding::Kind::ResidencyRegression;
constexpr Finding::Kind Counter = Finding::Kind::CounterRegression;

/// The counters --gate-residency and --gate-counters hold, in finding
/// order. The residency gate is T2's space claim on T1's rows. The counter
/// gate holds the entanglement counters, the pml effect-handler traffic
/// (capture/resume counts are a function of the program, so a jump means
/// the VM started capturing where it didn't before) and the pml.jit.*
/// counters of BENCH_T3's jit rows (deterministic at one worker: growth
/// means a function recompiling or the dispatcher bouncing in and out of
/// native code; bench_table_pml itself fails a jit cell that tiered
/// nothing).
constexpr GatedCounter GatedCounters[] = {
    {"mm.bytes.peak", Residency, &GateOptions::ResidencyAbsSlackBytes},
    {"em.pinned.bytes", Residency, &GateOptions::CounterAbsSlackBytes},
    {"em.reads.entangled", Counter, &GateOptions::CounterAbsSlackEvents},
    {"em.pins.down", Counter, &GateOptions::CounterAbsSlackEvents},
    {"em.pins.cross", Counter, &GateOptions::CounterAbsSlackEvents},
    {"em.pins.holder", Counter, &GateOptions::CounterAbsSlackEvents},
    {"em.pins.objects", Counter, &GateOptions::CounterAbsSlackEvents},
    {"em.pinned.bytes", Counter, &GateOptions::CounterAbsSlackBytes},
    {"em.cont.captured", Counter, &GateOptions::CounterAbsSlackEvents},
    {"em.cont.resumed", Counter, &GateOptions::CounterAbsSlackEvents},
    {"pml.jit.compiled", Counter, &GateOptions::CounterAbsSlackEvents},
    {"pml.jit.entries", Counter, &GateOptions::CounterAbsSlackEvents},
    {"pml.jit.code_bytes", Counter, &GateOptions::CounterAbsSlackBytes},
};

struct RowGate {
  const GateOptions &Opts;
  const Row &B;
  const Row &C;
  std::vector<Finding> &Out;

  void fail(Finding::Kind K, std::string Msg) {
    Out.push_back(Finding{K, /*Fatal=*/true, B.Name, B.Config,
                          std::move(Msg)});
  }

  void counter(const char *What, int64_t Base, int64_t Cur, double Pct,
               int64_t AbsSlack, Finding::Kind K) {
    int64_t Limit = counterLimit(Base, Pct, AbsSlack);
    if (Cur <= Limit)
      return;
    fail(K, std::string(What) + " " + std::to_string(Base) + " -> " +
                std::to_string(Cur) + " (limit " + std::to_string(Limit) +
                ")");
  }

  /// Holds every counter of \p K's gate (GatedCounters) to \p Pct.
  void gateCounters(Finding::Kind K, double Pct) {
    for (const GatedCounter &G : GatedCounters)
      if (G.K == K)
        counter(G.Name, B.counter(G.Name), C.counter(G.Name), Pct,
                Opts.*G.Slack, K);
  }
};

} // namespace

int GateResult::failures() const {
  int N = 0;
  for (const Finding &F : Findings)
    N += F.Fatal ? 1 : 0;
  return N;
}

const Finding *GateResult::first(Finding::Kind K) const {
  for (const Finding &F : Findings)
    if (F.K == K && F.Fatal)
      return &F;
  return nullptr;
}

GateResult compare(const BenchFile &Base, const BenchFile &Cur,
                   const GateOptions &Opts) {
  GateResult R;
  R.SameScale = Base.Scale == Cur.Scale;
  if (!R.SameScale) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "scales differ (%.3g vs %.3g); checksums not compared",
                  Base.Scale, Cur.Scale);
    R.Findings.push_back(
        Finding{Finding::Kind::Note, /*Fatal=*/false, "", "", Buf});
  }

  for (const Row &B : Base.Rows) {
    const Row *C = Cur.find(B.Name, B.Config);
    if (!C) {
      R.Findings.push_back(Finding{Finding::Kind::MissingRow, true, B.Name,
                                   B.Config, "row missing from current run"});
      continue;
    }
    ++R.ComparedRows;
    RowGate G{Opts, B, *C, R.Findings};
    if (int64_t Leaked = C->leakedPins(); Leaked > 0)
      G.fail(Finding::Kind::LeakedPins,
             std::to_string(Leaked) +
                 " leaked pins (joins must release every pin)");
    if (R.SameScale && B.HasChecksum && C->HasChecksum &&
        B.Checksum != C->Checksum)
      G.fail(Finding::Kind::ChecksumMismatch,
             std::to_string(B.Checksum) + " vs " +
                 std::to_string(C->Checksum));
    if (Opts.GateResidency)
      G.gateCounters(Residency, Opts.ResidencyTolerancePct);
    if (Opts.GateCounters)
      G.gateCounters(Counter, Opts.CounterTolerancePct);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string renderTable(const BenchFile &F) {
  char Head[160];
  std::snprintf(Head, sizeof(Head), "== %s (scale=%.2f, %zu rows) — %s ==\n",
                F.Bench.c_str(), F.Scale, F.Rows.size(), F.Path.c_str());
  Table T({"benchmark", "config", "median", "+-", "work/span", "pinned",
           "gc", "residency", "leaked"});
  for (const Row &R : F.Rows) {
    std::string Par =
        R.SpanS > 0 ? Table::fmtRatio(R.WorkS / R.SpanS) : std::string("-");
    T.addRow({R.Name, R.Config, Table::fmtSec(R.MedianS),
              R.StddevS > 0 ? Table::fmtSec(R.StddevS) : std::string("-"),
              Par,
              Table::fmtBytes(R.counter("em.pinned.bytes")),
              Table::fmtInt(R.counter("gc.collections")),
              Table::fmtBytes(R.counter("mm.bytes.peak")),
              R.leakedPins() > 0 ? "LEAK:" + Table::fmtInt(R.leakedPins())
                                 : std::string("-")});
  }
  return std::string(Head) + T.render();
}

std::string renderFindings(const GateResult &R, const GateOptions &Opts) {
  std::string Out;
  for (const Finding &F : R.Findings) {
    if (F.Fatal)
      Out += "FAIL";
    else
      Out += "note";
    Out += " [";
    Out += findingKindName(F.K);
    Out += "]";
    if (!F.Name.empty())
      Out += " " + F.Name + "/" + F.Config;
    Out += ": " + F.Message + "\n";
  }
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "mpl_report: compared %d rows (pins, checksums%s%s): %s\n",
                R.ComparedRows, Opts.GateResidency ? ", residency" : "",
                Opts.GateCounters ? ", counters" : "",
                R.ok() ? "ok" : "FAIL");
  Out += Buf;
  return Out;
}

//===----------------------------------------------------------------------===//
// Chrome trace-event files
//===----------------------------------------------------------------------===//

bool checkTrace(const std::string &Text, const TraceCheckOptions &Opts,
                std::string &Summary, std::string &Err) {
  auto Fail = [&Err](std::string Msg) {
    Err = std::move(Msg);
    return false;
  };
  json::Value Doc;
  std::string ParseErr;
  if (!json::parse(Text, Doc, ParseErr))
    return Fail("JSON parse error: " + ParseErr);
  if (!Doc.isObject())
    return Fail("top-level value is not an object");

  const json::Value *Evs = Doc.field("traceEvents");
  if (!Evs || !Evs->isArray())
    return Fail("missing traceEvents array");

  // Per-(pid,tid) B/E nesting depth; Perfetto rejects unbalanced tracks.
  std::map<std::pair<double, double>, long> Depth;
  std::set<std::string> Names;
  // Flow binding key (cat + name + id) -> bit 0: 's' seen, bit 1: 'f' seen.
  std::map<std::string, int> FlowHalves;
  long NEvents = 0, NMeta = 0, NSlices = 0, NInstants = 0, NFlows = 0,
       NCounters = 0;

  for (const json::Value &E : Evs->Items) {
    if (!E.isObject())
      return Fail("traceEvents entry is not an object");
    const json::Value *Ph = E.field("ph");
    const json::Value *Pid = E.field("pid");
    const json::Value *Tid = E.field("tid");
    if (!Ph || !Ph->isString())
      return Fail("event without a ph phase");
    if (!Pid || !Pid->isNumber() || !Tid || !Tid->isNumber())
      return Fail("event without numeric pid/tid");
    const std::string &P = Ph->StrV;
    if (P == "M") {
      ++NMeta;
      continue;
    }
    ++NEvents;
    const json::Value *Ts = E.field("ts");
    const json::Value *Name = E.field("name");
    if (!Ts || !Ts->isNumber())
      return Fail("non-metadata event without numeric ts");
    if (Ts->NumV < 0)
      return Fail("negative timestamp");
    if (!Name || !Name->isString() || Name->StrV.empty())
      return Fail("non-metadata event without a name");
    Names.insert(Name->StrV);
    auto Track = std::make_pair(Pid->NumV, Tid->NumV);
    if (P == "B") {
      ++Depth[Track];
      ++NSlices;
    } else if (P == "E") {
      if (--Depth[Track] < 0)
        return Fail("E without matching B on track tid=" + intLabel(Tid->NumV));
    } else if (P == "X") {
      // Complete slices (the span ledger's tasks) carry their duration.
      const json::Value *Dur = E.field("dur");
      if (!Dur || !Dur->isNumber() || Dur->NumV < 0)
        return Fail("X slice '" + Name->StrV +
                    "' without a numeric dur >= 0");
      ++NSlices;
    } else if (P == "i") {
      ++NInstants;
    } else if (P == "C") {
      // Counter samples (the metrics series): each arg is one counter
      // track, so every arg must be a number.
      const json::Value *Args = E.field("args");
      if (!Args || !Args->isObject())
        return Fail("counter event '" + Name->StrV + "' without args");
      for (const auto &[Key, V] : Args->Fields)
        if (!V.isNumber())
          return Fail("counter event '" + Name->StrV + "' arg '" + Key +
                      "' is not a number");
      ++NCounters;
    } else if (P == "s" || P == "f") {
      // Flow events (task and request edges) carry a binding id; Perfetto
      // drops flows without one.
      const json::Value *Id = E.field("id");
      if (!Id || !Id->isNumber())
        return Fail("flow event without numeric id");
      ++NFlows;
      if (Opts.CheckFlowPairs) {
        std::string Key = strField(&E, "cat") + "|" + Name->StrV + "|" +
                          intLabel(Id->NumV);
        FlowHalves[Key] |= P == "s" ? 1 : 2;
      }
    } else {
      return Fail("unexpected phase '" + P + "'");
    }
  }

  for (const auto &[Track, D] : Depth)
    if (D != 0)
      return Fail("unclosed B slice on track tid=" + intLabel(Track.second));

  for (const std::string &R : Opts.RequiredEvents)
    if (!Names.count(R))
      return Fail("required event '" + R + "' absent from trace");

  // Diagnose drops before flow pairing: a wrapped ring overwrites the
  // oldest events, so a missing flow half on a gappy trace means "trace
  // incomplete", not "pairing broken" — report the actionable cause.
  const json::Value *Other = Doc.field("otherData");
  std::string Dropped = "0";
  if (const json::Value *D = Other ? Other->field("dropped_events") : nullptr)
    Dropped = D->StrV;
  if (Dropped != "0" && !Opts.AllowDrops)
    return Fail(Dropped + " events dropped (ring buffer overflow); the "
                          "trace is incomplete — pass --allow-drops to "
                          "accept a gappy trace");

  if (Opts.CheckFlowPairs)
    for (const auto &[Key, Halves] : FlowHalves)
      if (Halves != 3)
        return Fail("flow '" + Key + "' has only its " +
                    (Halves == 1 ? std::string("start ('s')")
                                 : std::string("finish ('f')")) +
                    " half — enqueue/execute pairing broken");

  Summary.clear();
  if (Opts.CheckNetBalance) {
    const json::Value *Ctr = Other ? Other->field("counters") : nullptr;
    if (!Ctr || !Ctr->isObject())
      return Fail("--check-net-balance: trace has no otherData.counters "
                  "block (exporter too old?)");
    auto Counter = [&](const char *Name) -> double {
      const json::Value *V = Ctr->field(Name);
      if (V && !V->isNumber())
        return -1; // malformed; caught below
      return V ? V->NumV : 0;
    };
    double Requests = Counter("net.requests");
    double Parts[] = {Counter("net.resp.ok"), Counter("net.resp.shed"),
                      Counter("net.resp.deadline_expired"),
                      Counter("net.resp.error"),
                      Counter("net.resp.draining")};
    double Sum = 0;
    for (double Part : Parts) {
      if (Part < 0)
        return Fail("--check-net-balance: non-numeric net.resp.* counter");
      Sum += Part;
    }
    if (Requests < 0)
      return Fail("--check-net-balance: non-numeric net.requests");
    // The flag is only passed for traces from a request-serving run, so a
    // zero count means the counters block lost the net.* family (e.g. the
    // exporter snapshotted after the server unregistered its Stats) — the
    // balance would hold vacuously and hide exactly the bugs this check
    // exists to catch.
    if (Requests == 0)
      return Fail("--check-net-balance: net.requests is 0/absent — counters "
                  "block has no net.* family, balance would be vacuous");
    char Msg[256];
    if (Requests != Sum) {
      std::snprintf(Msg, sizeof(Msg),
                    "net counter imbalance: net.requests=%.0f but "
                    "ok+shed+deadline+error+draining=%.0f — a request "
                    "was silently dropped or double-counted",
                    Requests, Sum);
      return Fail(Msg);
    }
    std::snprintf(Msg, sizeof(Msg),
                  "net balance ok: %.0f requests == %.0f responses\n",
                  Requests, Sum);
    Summary += Msg;
  }

  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "trace ok: %ld events (%ld slices, %ld instants, %ld flows, "
                "%ld counters, %ld metadata), %zu distinct names, %s "
                "dropped\n",
                NEvents, NSlices, NInstants, NFlows, NCounters, NMeta,
                Names.size(), Dropped.c_str());
  Summary += Buf;
  return true;
}

} // namespace gate
} // namespace mpl
