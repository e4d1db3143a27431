//===- support/EmCounters.cpp - Entanglement cost counters ----------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/EmCounters.h"

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

} // namespace em
} // namespace mpl
