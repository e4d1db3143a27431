//===- tools/trace_check.cpp - Chrome trace-event file validator ----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Validates the trace.json that MPL_OBS=trace writes to MPL_OBS_DIR
// (src/obs): parses the JSON, checks the Chrome trace-event shape
// (ph/pid/tid/ts on every event, B/E balance per track, thread_name
// metadata, all-numeric args on counter events), and prints a one-line
// summary. CI runs it over the smoke workload's trace; exits non-zero on
// any malformation so a broken exporter fails the pipeline. A counter
// event's name counts for --require-event like any other.
//
// Usage: mpl_trace_check <trace.json> [--require-event NAME]...
//                        [--allow-drops] [--check-flow-pairs]
//                        [--check-net-balance]
//
// --check-flow-pairs additionally validates flow binding: every flow id
// (grouped by cat+name, the Chrome binding key) must carry both its start
// ('s') and finish ('f') half. The request server's net.request_flow
// events bind enqueue (connection thread) to execution (worker strand);
// an unpaired id means a request was enqueued but never ran, or vice
// versa.
//
// --check-net-balance asserts the request-counter balance invariant from
// the otherData.counters block: every request decoded off the wire got
// exactly one counted response —
//   net.requests == net.resp.ok + net.resp.shed
//                 + net.resp.deadline_expired + net.resp.error
//                 + net.resp.draining
// An imbalance means the server silently dropped (or double-counted) a
// request. Stats ('I') frames are deliberately outside this balance. The
// check refuses net.requests == 0: the flag is only used on serving runs,
// so zero means the counters block lost the net.* family and the balance
// would pass vacuously.
//
// A trace that dropped events (otherData.dropped_events != 0) fails the
// check — a gappy trace silently lies about the schedule — unless
// --allow-drops is given for runs known to outgrow the ring.
//
//===----------------------------------------------------------------------===//

#include "support/File.h"
#include "support/Json.h"

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace mpl;

namespace {

int fail(const std::string &What) {
  std::fprintf(stderr, "trace_check: FAIL: %s\n", What.c_str());
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return fail("usage: mpl_trace_check <trace.json> [--require-event N]...");

  std::vector<std::string> Required;
  bool AllowDrops = false;
  bool CheckFlowPairs = false;
  bool CheckNetBalance = false;
  for (int I = 2; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--require-event" && I + 1 < argc)
      Required.emplace_back(argv[++I]);
    else if (A == "--allow-drops")
      AllowDrops = true;
    else if (A == "--check-flow-pairs")
      CheckFlowPairs = true;
    else if (A == "--check-net-balance")
      CheckNetBalance = true;
    else
      return fail("unknown argument: " + A);
  }

  std::optional<std::string> Text = readFile(argv[1]);
  if (!Text)
    return fail(std::string("cannot open ") + argv[1]);

  json::Value Doc;
  std::string Err;
  if (!json::parse(*Text, Doc, Err))
    return fail("JSON parse error: " + Err);
  if (!Doc.isObject())
    return fail("top-level value is not an object");

  const json::Value *Evs = Doc.field("traceEvents");
  if (!Evs || !Evs->isArray())
    return fail("missing traceEvents array");

  // Per-(pid,tid) B/E nesting depth; Perfetto rejects unbalanced tracks.
  std::map<std::pair<double, double>, long> Depth;
  std::set<std::string> Names;
  // Flow binding key (cat + name + id) -> bit 0: 's' seen, bit 1: 'f' seen.
  std::map<std::string, int> FlowHalves;
  long NEvents = 0, NMeta = 0, NSlices = 0, NInstants = 0, NFlows = 0,
       NCounters = 0;

  for (const json::Value &E : Evs->Items) {
    if (!E.isObject())
      return fail("traceEvents entry is not an object");
    const json::Value *Ph = E.field("ph");
    const json::Value *Pid = E.field("pid");
    const json::Value *Tid = E.field("tid");
    if (!Ph || !Ph->isString())
      return fail("event without a ph phase");
    if (!Pid || !Pid->isNumber() || !Tid || !Tid->isNumber())
      return fail("event without numeric pid/tid");
    const std::string &P = Ph->StrV;
    if (P == "M") {
      ++NMeta;
      continue;
    }
    ++NEvents;
    const json::Value *Ts = E.field("ts");
    const json::Value *Name = E.field("name");
    if (!Ts || !Ts->isNumber())
      return fail("non-metadata event without numeric ts");
    if (Ts->NumV < 0)
      return fail("negative timestamp");
    if (!Name || !Name->isString() || Name->StrV.empty())
      return fail("non-metadata event without a name");
    Names.insert(Name->StrV);
    auto Track = std::make_pair(Pid->NumV, Tid->NumV);
    if (P == "B") {
      ++Depth[Track];
      ++NSlices;
    } else if (P == "E") {
      if (--Depth[Track] < 0)
        return fail("E without matching B on track tid=" +
                    std::to_string(static_cast<long>(Tid->NumV)));
    } else if (P == "i") {
      ++NInstants;
    } else if (P == "C") {
      // Counter samples (the metrics series): each arg is one counter
      // track, so every arg must be a number.
      const json::Value *Args = E.field("args");
      if (!Args || !Args->isObject())
        return fail("counter event '" + Name->StrV + "' without args");
      for (const auto &[Key, V] : Args->Fields)
        if (!V.isNumber())
          return fail("counter event '" + Name->StrV + "' arg '" + Key +
                      "' is not a number");
      ++NCounters;
    } else if (P == "s" || P == "f") {
      // Flow events (span ledger task edges) carry a binding id; Perfetto
      // drops flows without one.
      const json::Value *Id = E.field("id");
      if (!Id || !Id->isNumber())
        return fail("flow event without numeric id");
      ++NFlows;
      if (CheckFlowPairs) {
        std::string Cat;
        if (const json::Value *C = E.field("cat"); C && C->isString())
          Cat = C->StrV;
        std::string Key = Cat + "|" + Name->StrV + "|" +
                          std::to_string(static_cast<long long>(Id->NumV));
        FlowHalves[Key] |= P == "s" ? 1 : 2;
      }
    } else {
      return fail("unexpected phase '" + P + "'");
    }
  }

  for (const auto &[Track, D] : Depth)
    if (D != 0)
      return fail("unclosed B slice on track tid=" +
                  std::to_string(static_cast<long>(Track.second)));

  for (const std::string &R : Required)
    if (!Names.count(R))
      return fail("required event '" + R + "' absent from trace");

  // Diagnose drops before flow pairing: a wrapped ring overwrites the
  // oldest events, so a missing flow half on a gappy trace means "trace
  // incomplete", not "pairing broken" — report the actionable cause.
  std::string Dropped = "0";
  if (const json::Value *Other = Doc.field("otherData"))
    if (const json::Value *D = Other->field("dropped_events"))
      Dropped = D->StrV;
  if (Dropped != "0" && !AllowDrops)
    return fail(Dropped + " events dropped (ring buffer overflow); the "
                          "trace is incomplete — pass --allow-drops to "
                          "accept a gappy trace");

  if (CheckFlowPairs)
    for (const auto &[Key, Halves] : FlowHalves)
      if (Halves != 3)
        return fail("flow '" + Key + "' has only its " +
                    (Halves == 1 ? std::string("start ('s')")
                                 : std::string("finish ('f')")) +
                    " half — enqueue/execute pairing broken");

  if (CheckNetBalance) {
    const json::Value *Other = Doc.field("otherData");
    const json::Value *Ctr = Other ? Other->field("counters") : nullptr;
    if (!Ctr || !Ctr->isObject())
      return fail("--check-net-balance: trace has no otherData.counters "
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
    for (double P : Parts) {
      if (P < 0)
        return fail("--check-net-balance: non-numeric net.resp.* counter");
      Sum += P;
    }
    if (Requests < 0)
      return fail("--check-net-balance: non-numeric net.requests");
    // The flag is only passed for traces from a request-serving run, so a
    // zero count means the counters block lost the net.* family (e.g. the
    // exporter snapshotted after the server unregistered its Stats) — the
    // balance would hold vacuously and hide exactly the bugs this check
    // exists to catch.
    if (Requests == 0)
      return fail("--check-net-balance: net.requests is 0/absent — counters "
                  "block has no net.* family, balance would be vacuous");
    if (Requests != Sum) {
      char Msg[256];
      std::snprintf(Msg, sizeof(Msg),
                    "net counter imbalance: net.requests=%.0f but "
                    "ok+shed+deadline+error+draining=%.0f — a request "
                    "was silently dropped or double-counted",
                    Requests, Sum);
      return fail(Msg);
    }
    std::printf("trace_check: net balance ok: %.0f requests == "
                "%.0f responses\n",
                Requests, Sum);
  }

  std::printf("trace_check: OK: %ld events (%ld slices, %ld instants, "
              "%ld flows, %ld counters, %ld metadata), %zu distinct names, "
              "%s dropped\n",
              NEvents, NSlices, NInstants, NFlows, NCounters, NMeta,
              Names.size(), Dropped.c_str());
  return 0;
}
