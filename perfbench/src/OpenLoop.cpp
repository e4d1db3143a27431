//===- perfbench/src/OpenLoop.cpp - Open-loop load generator --------------===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "OpenLoop.h"

#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace pb {

std::vector<int64_t> fixedRateSchedule(size_t N, double Rps, int64_t StartNs) {
  std::vector<int64_t> Due(N);
  for (size_t I = 0; I < N; ++I)
    Due[I] = StartNs + static_cast<int64_t>(
                           std::llround(1e9 * static_cast<double>(I) / Rps));
  return Due;
}

std::vector<SendRecord>
runOpenLoop(const std::vector<int64_t> &DueNs, int Conns,
            const std::function<bool(int Conn, size_t I)> &Call) {
  std::vector<SendRecord> Rs(DueNs.size());
  std::vector<std::thread> Threads;
  for (int C = 0; C < Conns; ++C)
    Threads.emplace_back([&, C] {
      for (size_t I = static_cast<size_t>(C); I < DueNs.size();
           I += static_cast<size_t>(Conns)) {
        SendRecord &R = Rs[I];
        R.DueNs = DueNs[I];
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(R.DueNs)));
        R.SentNs = mpl::nowNs();
        R.Ok = Call(C, I);
        R.DoneNs = mpl::nowNs();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  return Rs;
}

Lateness lateness(const std::vector<SendRecord> &Rs, int64_t ToleranceNs) {
  Lateness L;
  for (const SendRecord &R : Rs) {
    int64_t Behind = R.SentNs - R.DueNs;
    if (Behind > ToleranceNs)
      ++L.Late;
    L.MaxMs = std::max(L.MaxMs, 1e-6 * static_cast<double>(Behind));
  }
  return L;
}

std::vector<double> latenciesMs(const std::vector<SendRecord> &Rs) {
  std::vector<double> Ms;
  Ms.reserve(Rs.size());
  for (const SendRecord &R : Rs)
    Ms.push_back(1e-6 * static_cast<double>(R.DoneNs - R.DueNs));
  return Ms;
}

} // namespace pb
