//===- perfbench/src/OpenLoop.h - Open-loop load generator ------*- C++ -*-===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-loop arrival schedule and the client that follows it. Request I
/// is due at a fixed time and goes out on connection I % Conns. A
/// connection carries one request at a time (net::Client::call blocks), so
/// when an earlier request on it is still outstanding at the due time the
/// send leaves late. Latency is always timed from the *due* time, so a
/// stall is charged to every request it delays (no coordinated omission),
/// and the lateness of the sends themselves is reported beside it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_OPENLOOP_H
#define PERFBENCH_OPENLOOP_H

#include <cstdint>
#include <functional>
#include <vector>

namespace pb {

struct SendRecord {
  int64_t DueNs = 0;  ///< When the schedule says the request is sent.
  int64_t SentNs = 0; ///< When it actually left.
  int64_t DoneNs = 0; ///< When its reply arrived (or the call failed).
  bool Ok = false;
};

/// Due times of \p N requests at \p Rps per second, starting at \p StartNs.
std::vector<int64_t> fixedRateSchedule(size_t N, double Rps, int64_t StartNs);

/// Sends every scheduled request and waits for its reply. \p Call(Conn, I)
/// performs request I on connection Conn and returns whether it succeeded;
/// each connection runs on its own thread, all joined before returning.
std::vector<SendRecord>
runOpenLoop(const std::vector<int64_t> &DueNs, int Conns,
            const std::function<bool(int Conn, size_t I)> &Call);

/// Sends that left more than \p ToleranceNs after they were due, and the
/// largest delay of any send.
struct Lateness {
  int64_t Late = 0;
  double MaxMs = 0;
};
Lateness lateness(const std::vector<SendRecord> &Rs, int64_t ToleranceNs);

/// Latency of every request in milliseconds, from due time to reply.
std::vector<double> latenciesMs(const std::vector<SendRecord> &Rs);

} // namespace pb

#endif // PERFBENCH_OPENLOOP_H
