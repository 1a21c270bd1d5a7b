//===- support/Graph.h - Generic directed-graph algorithms -----*- C++ -*-===//
///
/// \file
/// Directed-graph utilities shared by the dependence-graph analyses:
/// topological ordering and a Bellman-Ford style positive-cycle probe
/// (the inner loop of the minimum-initiation-interval computation).
/// The SCC pass works on the DDG's CSR directly (computeComponents in
/// ir/RecurrenceAnalysis).
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SUPPORT_GRAPH_H
#define HCVLIW_SUPPORT_GRAPH_H

#include <cstdint>
#include <optional>
#include <vector>

namespace hcvliw {

/// A weighted directed edge used by the generic algorithms.
template <typename WeightT> struct WeightedEdge {
  unsigned Src;
  unsigned Dst;
  WeightT Weight;
};

/// Topological order of a DAG; std::nullopt when a cycle exists.
std::optional<std::vector<unsigned>>
topologicalOrder(unsigned NumNodes,
                 const std::vector<std::vector<unsigned>> &Adj);

/// Returns true iff the graph contains a cycle of strictly positive total
/// weight. Longest-path Bellman-Ford: relax up to NumNodes rounds; any
/// relaxation in round NumNodes proves a positive cycle. Exact when
/// WeightT is exact (int64_t / Rational).
template <typename WeightT>
bool hasPositiveCycle(unsigned NumNodes,
                      const std::vector<WeightedEdge<WeightT>> &Edges) {
  if (NumNodes == 0)
    return false;
  // Distances start at zero for every node (acts as a super-source), so
  // any positive-weight cycle is reachable by construction.
  std::vector<WeightT> Dist(NumNodes, WeightT(0));
  for (unsigned Round = 0; Round < NumNodes; ++Round) {
    bool Changed = false;
    for (const auto &E : Edges) {
      WeightT Cand = Dist[E.Src] + E.Weight;
      if (Dist[E.Dst] < Cand) {
        Dist[E.Dst] = Cand;
        Changed = true;
      }
    }
    if (!Changed)
      return false;
  }
  return true;
}

/// Longest path lengths from every node to any sink in a DAG given in a
/// valid reverse-usable topological order; used for scheduling heights.
/// Weight of a node's height is max over out-edges of weight + height(dst).
template <typename WeightT>
std::vector<WeightT>
dagHeights(unsigned NumNodes, const std::vector<WeightedEdge<WeightT>> &Edges,
           const std::vector<unsigned> &TopoOrder) {
  std::vector<std::vector<const WeightedEdge<WeightT> *>> Out(NumNodes);
  for (const auto &E : Edges)
    Out[E.Src].push_back(&E);
  std::vector<WeightT> Height(NumNodes, WeightT(0));
  for (auto It = TopoOrder.rbegin(); It != TopoOrder.rend(); ++It) {
    unsigned N = *It;
    for (const auto *E : Out[N]) {
      WeightT Cand = E->Weight + Height[E->Dst];
      if (Height[N] < Cand)
        Height[N] = Cand;
    }
  }
  return Height;
}

} // namespace hcvliw

#endif // HCVLIW_SUPPORT_GRAPH_H
