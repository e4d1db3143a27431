//===- support/Histogram.cpp - Log2-bucketed latency histograms -----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Histogram.h"

#include "support/Stats.h"

using namespace mpl;

Histogram::Histogram(const char *Name) : HistName(Name) {
  StatRegistry::get().add(this);
}

Histogram::~Histogram() { StatRegistry::get().remove(this); }

int64_t Histogram::quantileFrom(const int64_t Counts[NumBuckets], double Q,
                                int64_t FallbackTail) {
  int64_t Total = 0;
  for (int B = 0; B < NumBuckets; ++B)
    Total += Counts[B];
  if (Total == 0)
    return 0;
  int64_t Target = static_cast<int64_t>(Q * static_cast<double>(Total));
  int64_t Seen = 0;
  for (int B = 0; B < NumBuckets; ++B) {
    Seen += Counts[B];
    if (Seen > Target)
      return bucketHi(B);
  }
  return FallbackTail;
}

Histogram::Percentiles Histogram::percentilesFrom(
    const int64_t Counts[NumBuckets], int64_t FallbackTail) {
  Percentiles P;
  P.P50 = quantileFrom(Counts, 0.50, FallbackTail);
  P.P95 = quantileFrom(Counts, 0.95, FallbackTail);
  P.P99 = quantileFrom(Counts, 0.99, FallbackTail);
  P.P999 = quantileFrom(Counts, 0.999, FallbackTail);
  return P;
}

int64_t Histogram::approxQuantile(double Q) const {
  Snapshot S = snapshot();
  return quantileFrom(S.Counts, Q, S.Sum);
}

Histogram::Percentiles Histogram::percentiles() const {
  return snapshot().percentiles();
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot S;
  S.Name = HistName;
  snapshotCounts(S.Counts);
  S.Sum = sum();
  return S;
}

int64_t Histogram::Snapshot::count() const {
  int64_t Total = 0;
  for (int64_t C : Counts)
    Total += C;
  return Total;
}

//===----------------------------------------------------------------------===//
// RollingWindow
//===----------------------------------------------------------------------===//

RollingWindow::RollingWindow(const Histogram &H, int Slots, int64_t SlotNanos)
    : Hist(H), NumSlots(static_cast<size_t>(Slots > 1 ? Slots : 2)),
      SlotNs(SlotNanos > 0 ? SlotNanos : 1) {
  Ring.resize(NumSlots);
  Ring[0].TimeNs = 0; // stamped on the first maybeRotate
  Hist.snapshotCounts(Ring[0].Counts);
  Ring[0].Sum = Hist.sum();
}

void RollingWindow::maybeRotate(int64_t NowNs) {
  std::lock_guard<std::mutex> G(Mu);
  if (Ring[Head].TimeNs == 0) {
    // First rotation stamps the construction-time baseline so WindowNs is
    // measured from real time, not from 0.
    Ring[Head].TimeNs = NowNs;
    return;
  }
  // Catch up if the driver stalled: rotate once per elapsed slot so a long
  // gap retires stale snapshots instead of stretching the window.
  while (NowNs - Ring[Head].TimeNs >= SlotNs) {
    int64_t SnapTime = Ring[Head].TimeNs + SlotNs;
    if (NowNs - SnapTime >= SlotNs)
      SnapTime = NowNs; // collapse a multi-slot stall into one snapshot
    Head = (Head + 1) % NumSlots;
    if (Filled < NumSlots)
      ++Filled;
    Ring[Head].TimeNs = SnapTime;
    Hist.snapshotCounts(Ring[Head].Counts);
    Ring[Head].Sum = Hist.sum();
  }
}

RollingWindow::WindowStats RollingWindow::window(int64_t NowNs) const {
  std::lock_guard<std::mutex> G(Mu);
  const Snap &Base =
      Filled < NumSlots ? Ring[0] : Ring[(Head + 1) % NumSlots];
  WindowStats W;
  W.WindowNs = Base.TimeNs > 0 ? NowNs - Base.TimeNs : 0;
  W.Hist = Hist.snapshot();
  for (int B = 0; B < Histogram::NumBuckets; ++B)
    W.Hist.Counts[B] -= Base.Counts[B];
  W.Hist.Sum -= Base.Sum;
  return W;
}
