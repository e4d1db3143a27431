//===- workloads/Graph.h - Graph workloads ---------------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CSR graphs over raw arrays and a frontier-based parallel BFS with CAS on
/// a parents array — the irregular-parallel representative of the paper's
/// benchmark suite (bfs / centrality class).
///
//===----------------------------------------------------------------------===//

#ifndef MPL_WORKLOADS_GRAPH_H
#define MPL_WORKLOADS_GRAPH_H

#include "core/Handles.h"
#include "core/Ops.h"

#include <cstdint>

namespace mpl {
namespace wl {

/// A graph is a record {n:int, m:int, offsets:RawArray, edges:RawArray}
/// in CSR form; offsets has n+1 int64 entries into edges.
struct GraphView {
  int64_t NumVertices;
  int64_t NumEdges;
  const int64_t *Offsets;
  const int64_t *Edges;

  /// Unpacks a graph record (no allocation; pointers are valid until the
  /// next allocation point).
  static GraphView of(Object *G);
};

/// Builds a deterministic random graph: \p N vertices, about \p AvgDeg
/// out-edges per vertex, plus a Hamiltonian path i -> i+1 so BFS from 0
/// reaches everything.
Object *buildRandomGraph(int64_t N, int64_t AvgDeg, uint64_t Seed);

/// Parallel frontier BFS from \p Src; returns a RawArray of int64 parents
/// (-1 for the root's parent; unreached is impossible by construction).
/// \p Grain controls the frontier-expansion grain; pass a huge value for a
/// fully sequential run.
Object *bfs(Object *G, int64_t Src, int64_t Grain = 64);

/// Number of vertices whose parent is set (reachability check).
int64_t countReached(Object *Parents);

} // namespace wl
} // namespace mpl

#endif // MPL_WORKLOADS_GRAPH_H
