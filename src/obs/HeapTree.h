//===- obs/HeapTree.h - Live heap-tree introspection -----------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap-tree reader of the observability layer: readHeapTree() returns
/// the live heap hierarchy as plain records (depth, chunk/pinned bytes,
/// active forks, governor pressure level) and writeHeapTree() renders them
/// as mpl-heap-tree/1 JSON. The obs layer depends only on support, so the
/// walker that fills the records is registered by rt::Runtime as a
/// provider callback (the same inversion the registry's gauges use); it is
/// thread-safe and is called from the MetricsSampler thread (each sample
/// counts heaps per depth), by the trace exporter (a final tree under
/// otherData) and by the MemoryGovernor on OutOfMemoryError
/// (MPL_OBS_DIR/oom-heap-tree.json).
///
//===----------------------------------------------------------------------===//

#ifndef MPL_OBS_HEAPTREE_H
#define MPL_OBS_HEAPTREE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mpl {
namespace json {
class Writer;
} // namespace json

namespace obs {

/// One live heap at the instant of a heap-tree read. Ids are dense
/// (0..n-1) within one read; Parent is -1 for a root.
struct HeapRecord {
  int Id = 0;
  int Parent = -1;
  int64_t Depth = 0;
  int64_t ChunkBytes = 0;
  int64_t PinnedObjects = 0;
  int64_t PinnedBytes = 0;
  int64_t ActiveForks = 0;
};

/// The live heap hierarchy plus the governor's pressure level, as the
/// runtime's provider fills it.
struct HeapTree {
  int64_t TimeNs = -1; ///< Read instant; -1 when no runtime was alive.
  int PressureLevel = 0;
  const char *Pressure = "none";
  std::vector<HeapRecord> Heaps;
};

/// Installs the live-heap-tree walker (rt::Runtime's constructor; pass an
/// empty function to uninstall on destruction). The provider fills one
/// HeapTree and must be callable from any thread.
void setHeapTreeProvider(std::function<void(HeapTree &)> Provider);

/// Reads the live heap hierarchy through the registered provider into
/// \p Out. Thread-safe (the provider cannot be uninstalled mid-call);
/// returns false, leaving \p Out empty, when no runtime is alive.
bool readHeapTree(HeapTree &Out);

/// Writes \p T into \p W as one mpl-heap-tree/1 object (a valid empty tree
/// when no runtime was alive).
void writeHeapTree(json::Writer &W, const HeapTree &T);

/// readHeapTree() as a standalone mpl-heap-tree/1 document.
std::string snapshotHeapTree();

} // namespace obs
} // namespace mpl

#endif // MPL_OBS_HEAPTREE_H
