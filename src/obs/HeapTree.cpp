//===- obs/HeapTree.cpp - Live heap-tree introspection --------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/HeapTree.h"

#include "support/Json.h"
#include "support/Timer.h"

#include <mutex>

namespace mpl {
namespace obs {

namespace {
std::mutex HeapTreeMu;
std::function<void(HeapTree &)> HeapTreeProvider;
} // namespace

void setHeapTreeProvider(std::function<void(HeapTree &)> Provider) {
  std::lock_guard<std::mutex> G(HeapTreeMu);
  HeapTreeProvider = std::move(Provider);
}

bool readHeapTree(HeapTree &Out) {
  // The lock is held across the provider call so a Runtime being destroyed
  // (which uninstalls the provider) blocks until an in-flight read
  // finishes instead of racing it.
  std::lock_guard<std::mutex> G(HeapTreeMu);
  if (!HeapTreeProvider)
    return false;
  Out.TimeNs = nowNs();
  HeapTreeProvider(Out);
  return true;
}

void writeHeapTree(json::Writer &W, const HeapTree &T) {
  W.beginObject().kv("schema", "mpl-heap-tree/1");
  if (T.TimeNs >= 0)
    W.kv("t_ns", T.TimeNs)
        .kv("pressure_level", T.PressureLevel)
        .kv("pressure", T.Pressure);
  std::vector<std::vector<int>> Children(T.Heaps.size());
  for (const HeapRecord &H : T.Heaps)
    if (H.Parent >= 0)
      Children[static_cast<size_t>(H.Parent)].push_back(H.Id);
  W.kv("live_heaps", T.Heaps.size()).key("heaps").beginArray();
  for (const HeapRecord &H : T.Heaps) {
    W.beginObject()
        .kv("id", H.Id)
        .kv("parent", H.Parent)
        .kv("depth", H.Depth)
        .kv("chunk_bytes", H.ChunkBytes)
        .kv("pinned_objects", H.PinnedObjects)
        .kv("pinned_bytes", H.PinnedBytes)
        .kv("active_forks", H.ActiveForks)
        .key("children")
        .beginArray();
    for (int C : Children[static_cast<size_t>(H.Id)])
      W.value(C);
    W.endArray().endObject();
  }
  W.endArray().endObject();
}

std::string snapshotHeapTree() {
  HeapTree T;
  readHeapTree(T);
  json::Writer W;
  writeHeapTree(W, T);
  return W.take();
}

} // namespace obs
} // namespace mpl
