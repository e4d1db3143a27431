//===- tools/mpl_server.cpp - Request-server daemon -----------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mpl request server as a process: binds, prints the bound port (so
/// harnesses using -port 0 can scrape it), serves until SIGTERM/SIGINT or
/// -run-for-ms elapses, drains, then prints an `mpl-server/1` JSON summary
/// (every registry counter under its own name, the chaos fault count and
/// the leaked pins) and exits 0 iff the drain was clean and no pins leaked.
///
/// Chaos arming (flags, with MPL_CHAOS_* env fallbacks) makes the process
/// the target of the robustness smoke: seeded wire faults plus every-N
/// allocation faults, replayable from the printed seed.
///
///   mpl_server -port 0 -workers 4 -queue-cap 64
///       -chaos-seed 7 -wire-permille 30 -fault-every-n 5
///
//===----------------------------------------------------------------------===//

#include "chaos/ChaosSchedule.h"
#include "net/Server.h"
#include "support/Cli.h"
#include "support/EmCounters.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace mpl;

namespace {

net::Server *GlobalServer = nullptr;

void onSignal(int) {
  if (GlobalServer)
    GlobalServer->requestDrain(); // one atomic store: async-signal-safe
}

int64_t envOrInt(const char *Name, int64_t Flag) {
  if (Flag != 0)
    return Flag;
  if (const char *V = std::getenv(Name))
    return std::atoll(V);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli Cli(Argc, Argv);

  net::ServerConfig SC;
  SC.Port = static_cast<uint16_t>(Cli.getInt("port", 0));
  SC.NumWorkers = static_cast<int>(Cli.getInt("workers", 2));
  SC.QueueCap = static_cast<int>(Cli.getInt("queue-cap", 64));
  SC.BatchMax = static_cast<int>(Cli.getInt("batch-max", 8));
  SC.MaxConns = static_cast<int>(Cli.getInt("max-conns", 128));
  SC.DrainTimeoutMs = static_cast<int>(Cli.getInt("drain-timeout-ms", 5000));
  int64_t RunForMs = Cli.getInt("run-for-ms", 0);

  // Chaos: flags first, MPL_CHAOS_* env as fallback so CI can arm a whole
  // pipeline stage without touching each command line.
  uint64_t Seed =
      static_cast<uint64_t>(envOrInt("MPL_CHAOS_SEED", Cli.getInt("chaos-seed", 0)));
  int64_t WirePermille =
      envOrInt("MPL_CHAOS_WIRE_PERMILLE", Cli.getInt("wire-permille", 0));
  int64_t FaultEveryN =
      envOrInt("MPL_CHAOS_FAULT_EVERY_N", Cli.getInt("fault-every-n", 0));
  if (Seed != 0 || WirePermille > 0 || FaultEveryN > 0) {
    chaos::Config CC;
    CC.Seed = Seed != 0 ? Seed : 1;
    if (WirePermille > 0)
      CC.WirePermille = static_cast<uint32_t>(WirePermille);
    if (FaultEveryN > 0) {
      CC.InjectFault = chaos::Fault::FailChunkAlloc;
      CC.FaultEveryN = static_cast<uint32_t>(FaultEveryN);
    }
    chaos::enable(CC);
    std::fprintf(stderr,
                 "mpl_server: chaos armed seed=%llu wire-permille=%lld "
                 "fault-every-n=%lld\n",
                 static_cast<unsigned long long>(CC.Seed),
                 static_cast<long long>(WirePermille),
                 static_cast<long long>(FaultEveryN));
  }

  net::Server Srv(SC);
  if (!Srv.start()) {
    std::fprintf(stderr, "mpl_server: bind failed (port %u)\n", SC.Port);
    return 2;
  }
  GlobalServer = &Srv;
  struct sigaction SA = {};
  SA.sa_handler = onSignal;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);

  std::printf("mpl_server: listening port=%u\n", Srv.port());
  std::fflush(stdout);

  int64_t StartNs = nowNs();
  while (!Srv.draining()) {
    if (RunForMs > 0 && nowNs() - StartNs > RunForMs * 1000000)
      Srv.requestDrain();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Srv.waitUntilDrained();

  // The exit code asserts every pin was released (em's live pin count).
  int64_t LeakedPins = em::Counts.snapshot().livePinnedObjects();
  json::Writer W;
  W.beginObject().key("mpl-server/1").beginObject();
  writeJson(W.key("counters"), StatRegistry::get().snapshotAll());
  W.kv("chaos_faults", chaos::totals().FaultsInjected)
      .kv("leaked_pins", LeakedPins)
      .endObject()
      .endObject();
  std::puts(W.take().c_str());
  std::fflush(stdout);
  if (chaos::active())
    chaos::disable();
  return LeakedPins == 0 ? 0 : 1;
}
