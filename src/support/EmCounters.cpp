//===- support/EmCounters.cpp - Entanglement cost counters ----------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/EmCounters.h"

#include "support/Json.h"

namespace mpl {
namespace em {

Counters Counts;

namespace {
// The live pinned footprint (cumulative pinned minus unpinned) is the space
// cost operators watch, so it is published as two gauges.
Gauge LivePinnedObjects("em.live.pinned.objects",
                        [] { return Counts.snapshot().livePinnedObjects(); });
Gauge LivePinnedBytes("em.live.pinned.bytes",
                      [] { return Counts.snapshot().livePinnedBytes(); });
} // namespace

void writeJson(json::Writer &W, const CounterSnapshot &S) {
  W.beginObject()
      .kv("entangled_reads", S.EntangledReads)
      .kv("entangled_reads_unpinned", S.EntangledReadsUnpinned)
      .kv("pins_down", S.DownPointerPins)
      .kv("pins_cross", S.CrossPointerPins)
      .kv("pins_holder", S.PinnedHolderPins)
      .kv("pinned_objects", S.PinnedObjects)
      .kv("pinned_bytes", S.PinnedBytes)
      .kv("unpinned_objects", S.UnpinnedObjects)
      .kv("unpinned_bytes", S.UnpinnedBytes)
      .kv("live_pinned_objects", S.livePinnedObjects())
      .kv("live_pinned_bytes", S.livePinnedBytes())
      .kv("cont_captured", S.ContCaptured)
      .kv("cont_resumed", S.ContResumed)
      .endObject();
}

} // namespace em
} // namespace mpl
