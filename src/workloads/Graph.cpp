//===- workloads/Graph.cpp - Graph workloads -------------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/Graph.h"

#include "core/Runtime.h"
#include "support/Random.h"

#include <atomic>
#include <vector>

using namespace mpl;
using namespace mpl::ops;

namespace mpl {
namespace wl {

GraphView GraphView::of(Object *G) {
  GraphView V;
  V.NumVertices = unboxInt(recGet(G, 0));
  V.NumEdges = unboxInt(recGet(G, 1));
  Object *Off = Object::asPointer(recGet(G, 2));
  Object *Edg = Object::asPointer(recGet(G, 3));
  V.Offsets = reinterpret_cast<const int64_t *>(Off->slots());
  V.Edges = reinterpret_cast<const int64_t *>(Edg->slots());
  return V;
}

Object *buildRandomGraph(int64_t N, int64_t AvgDeg, uint64_t Seed) {
  MPL_CHECK(N >= 2, "graph needs at least two vertices");
  // Degree per vertex: AvgDeg random targets + 1 path edge.
  std::vector<int64_t> Deg(static_cast<size_t>(N), 0);
  for (int64_t U = 0; U < N; ++U)
    Deg[static_cast<size_t>(U)] =
        AvgDeg + (U + 1 < N ? 1 : 0);

  Local Offsets(newRawArray(static_cast<size_t>(N + 1) * 8));
  int64_t *Off = reinterpret_cast<int64_t *>(Offsets.get()->slots());
  Off[0] = 0;
  for (int64_t U = 0; U < N; ++U)
    Off[U + 1] = Off[U] + Deg[static_cast<size_t>(U)];
  int64_t M = Off[N];

  Local Edges(newRawArray(static_cast<size_t>(M) * 8));
  // Re-read offsets after the allocation above (it may have collected).
  Off = reinterpret_cast<int64_t *>(Offsets.get()->slots());
  int64_t *Edg = reinterpret_cast<int64_t *>(Edges.get()->slots());
  for (int64_t U = 0; U < N; ++U) {
    Rng R(hash64(Seed ^ static_cast<uint64_t>(U)));
    int64_t At = Off[U];
    for (int64_t K = 0; K < AvgDeg; ++K)
      Edg[At++] = static_cast<int64_t>(R.nextBounded(
          static_cast<uint64_t>(N)));
    if (U + 1 < N)
      Edg[At++] = U + 1; // Path edge guarantees reachability.
  }

  return newRecord(0b1100, {boxInt(N), boxInt(M),
                            Object::fromPointer(Offsets.get()),
                            Object::fromPointer(Edges.get())});
}

Object *bfs(Object *G, int64_t Src, int64_t Grain) {
  Local LG(G);
  GraphView V = GraphView::of(LG.get());
  int64_t N = V.NumVertices;

  Local Parents(newRawArray(static_cast<size_t>(N) * 8));
  {
    int64_t *P = reinterpret_cast<int64_t *>(Parents.get()->slots());
    rt::parFor(0, N, 1 << 14, [P](int64_t I) { P[I] = -2; });
    P[Src] = -1;
  }

  // Frontier as a host-side vector of vertex ids; per-round expansion is
  // a parallel loop with CAS claims on the parents array.
  std::vector<int64_t> Frontier{Src};
  while (!Frontier.empty()) {
    // Next-frontier segments per frontier slot, merged after the round.
    std::vector<std::vector<int64_t>> Next(Frontier.size());
    GraphView GV = GraphView::of(LG.get());
    int64_t *P = reinterpret_cast<int64_t *>(Parents.get()->slots());
    const int64_t *FrontierData = Frontier.data();
    std::vector<int64_t> *NextData = Next.data();
    rt::parFor(0, static_cast<int64_t>(Frontier.size()), Grain,
               [GV, P, FrontierData, NextData](int64_t I) {
                 int64_t U = FrontierData[I];
                 for (int64_t E = GV.Offsets[U]; E < GV.Offsets[U + 1]; ++E) {
                   int64_t W = GV.Edges[E];
                   int64_t Expected = -2;
                   if (std::atomic_ref<int64_t>(P[W]).compare_exchange_strong(
                           Expected, U, std::memory_order_acq_rel))
                     NextData[I].push_back(W);
                 }
               });
    Frontier.clear();
    for (auto &Seg : Next)
      Frontier.insert(Frontier.end(), Seg.begin(), Seg.end());
  }
  return Parents.get();
}

int64_t countReached(Object *Parents) {
  const int64_t *P = reinterpret_cast<const int64_t *>(Parents->slots());
  int64_t N = static_cast<int64_t>(Parents->length());
  int64_t C = 0;
  for (int64_t I = 0; I < N; ++I)
    C += P[I] != -2;
  return C;
}

} // namespace wl
} // namespace mpl
