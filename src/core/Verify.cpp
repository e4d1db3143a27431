//===- core/Verify.cpp - Runtime invariant cross-checking -----------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// em::verifyInvariants: walks every heap the current run has created and
/// cross-checks the entanglement bookkeeping against the heap structure.
/// The checks are deliberately redundant with what the barriers and joins
/// maintain — that redundancy is the point: a lost pin, a leaked release,
/// or a miscounted byte shows up as a disagreement between two independent
/// records of the same fact.
///
//===----------------------------------------------------------------------===//

#include "core/Em.h"

#include "hh/Heap.h"
#include "mm/Chunk.h"
#include "core/Runtime.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_set>

using namespace mpl;

namespace mpl {
namespace em {

namespace {

void violation(InvariantReport &R, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  R.Violations.emplace_back(Buf);
}

} // namespace

std::string InvariantReport::str() const {
  std::string Out;
  for (const std::string &V : Violations) {
    Out += V;
    Out += '\n';
  }
  return Out;
}

InvariantReport verifyInvariants(HeapManager &HM, bool ExpectFullyJoined) {
  InvariantReport R;
  // Pinned entries can appear in at most one live heap's set (joins move
  // them), but be defensive: dedup before summing bytes.
  std::unordered_set<const Object *> SeenPinned;
  int64_t LivePinnedBytes = 0;
  int64_t LivePinnedObjects = 0;

  HM.forEachHeap([&](Heap *H) {
    // Structural checks that need no lock (atomics / immutable fields).
    if (H->parent() && H->depth() != H->parent()->depth() + 1)
      violation(R, "heap depth %u is not parent depth %u + 1", H->depth(),
                H->parent()->depth());
    int Forks = H->activeForks();
    if (Forks < 0 || Forks > 2)
      violation(R, "heap at depth %u has ActiveForks %d (expected 0..2)",
                H->depth(), Forks);

    std::lock_guard<std::mutex> G(H->PinLock);

    if (H->isDead()) {
      // A joined heap has been emptied into its parent: owning chunks or
      // pinned entries afterwards means the join lost track of them.
      if (H->Chunks)
        violation(R, "dead heap at depth %u still owns chunks", H->depth());
      if (!H->Pinned.empty())
        violation(R, "dead heap at depth %u still holds %zu pinned entries",
                  H->depth(), H->Pinned.size());
      if (Forks != 0)
        violation(R, "dead heap at depth %u has ActiveForks %d", H->depth(),
                  Forks);
      return;
    }

    for (Chunk *C = H->Chunks; C; C = C->Next)
      if (C->Owner.load(std::memory_order_acquire) != H)
        violation(R, "chunk in depth-%u heap's list has a different owner",
                  H->depth());

    for (Object *O : H->Pinned) {
      if (!O->isPinned())
        continue; // Stale duplicate already released by a join.
      // A pin's unpin depth names the join that releases it; an entry
      // deeper than its heap could never be released by any join of that
      // heap — the pin would leak.
      if (O->unpinDepth() > H->depth())
        violation(R,
                  "pinned object has unpin depth %u above its heap depth %u",
                  O->unpinDepth(), H->depth());
      if (!SeenPinned.insert(O).second)
        continue;
      LivePinnedBytes += static_cast<int64_t>(O->sizeBytes());
      ++LivePinnedObjects;
    }
  });

  // The counters and the pinned sets are independent records of the same
  // events; they must agree byte for byte.
  CounterSnapshot S = Counts.snapshot();
  if (S.livePinnedBytes() != LivePinnedBytes)
    violation(R,
              "counter live pinned bytes %" PRId64
              " != %" PRId64 " bytes found in live pinned sets",
              S.livePinnedBytes(), LivePinnedBytes);
  if (S.livePinnedObjects() != LivePinnedObjects)
    violation(R,
              "counter live pinned objects %" PRId64
              " != %" PRId64 " found in live pinned sets",
              S.livePinnedObjects(), LivePinnedObjects);

  // Monotonicity: cumulative counts never go negative, and nothing can be
  // released more often than it was pinned.
  if (S.PinnedBytes < 0 || S.UnpinnedBytes < 0 || S.PinnedObjects < 0 ||
      S.UnpinnedObjects < 0 || S.EntangledReads < 0)
    violation(R, "negative cumulative counter");
  if (S.UnpinnedObjects > S.PinnedObjects)
    violation(R, "more unpins (%" PRId64 ") than pins (%" PRId64 ")",
              S.UnpinnedObjects, S.PinnedObjects);
  if (S.UnpinnedBytes > S.PinnedBytes)
    violation(R, "more unpinned bytes (%" PRId64 ") than pinned (%" PRId64 ")",
              S.UnpinnedBytes, S.PinnedBytes);

  // Pin-before-publish: an entangled read must never find its target
  // unpinned (see Counters::EntangledReadsUnpinned).
  if (S.EntangledReadsUnpinned != 0)
    violation(R,
              "%" PRId64 " entangled read(s) found their target unpinned "
              "(pin-before-publish violated)",
              S.EntangledReadsUnpinned);

  if (ExpectFullyJoined && LivePinnedObjects != 0)
    violation(R,
              "%" PRId64 " object(s) (%" PRId64 " bytes) still pinned after "
              "the task tree fully joined",
              LivePinnedObjects, LivePinnedBytes);

  return R;
}

InvariantReport verifyInvariants(bool ExpectFullyJoined) {
  rt::Runtime *R = rt::Runtime::current();
  MPL_CHECK(R, "verifyInvariants outside a Runtime");
  return verifyInvariants(R->heaps(), ExpectFullyJoined);
}

} // namespace em
} // namespace mpl
