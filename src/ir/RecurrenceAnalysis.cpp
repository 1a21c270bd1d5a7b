//===- ir/RecurrenceAnalysis.cpp - Recurrences and recMII ------------------===//

#include "ir/RecurrenceAnalysis.h"
#include "support/Graph.h"

#include <algorithm>
#include <cassert>

using namespace hcvliw;

// True iff some cycle of Edges has positive weight under latency - II*dist.
static bool
positiveCycleAt(int64_t II, unsigned NumNodes,
                const std::vector<DDG::Edge> &Edges,
                const std::vector<unsigned> &NodeLatency) {
  std::vector<WeightedEdge<int64_t>> W;
  W.reserve(Edges.size());
  for (const auto &E : Edges)
    W.push_back({E.Src, E.Dst,
                 static_cast<int64_t>(edgeLatency(E, NodeLatency)) -
                     II * static_cast<int64_t>(E.Distance)});
  return hasPositiveCycle<int64_t>(NumNodes, W);
}

// recMII of an edge subset over NumNodes nodes (node ids must be dense).
static int64_t recMIIOfEdges(unsigned NumNodes,
                             const std::vector<DDG::Edge> &Edges,
                             const std::vector<unsigned> &NodeLatency) {
  if (Edges.empty())
    return 0;
  int64_t SumLat = 0;
  for (const auto &E : Edges)
    SumLat += edgeLatency(E, NodeLatency);
  if (!positiveCycleAt(0, NumNodes, Edges, NodeLatency))
    return 0; // acyclic (or only non-positive cycles)

  // Binary search the least II in [1, SumLat] with no positive cycle.
  // Any cycle has distance >= 1, so II = SumLat is always sufficient.
  int64_t Lo = 1, Hi = SumLat;
  while (Lo < Hi) {
    int64_t Mid = Lo + (Hi - Lo) / 2;
    if (positiveCycleAt(Mid, NumNodes, Edges, NodeLatency))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

int64_t hcvliw::computeRecMII(const DDG &G,
                              const std::vector<unsigned> &NodeLatency) {
  return recMIIOfEdges(G.size(), G.edges(), NodeLatency);
}

void hcvliw::computeComponents(const DDG &G, DDGComponents &C) {
  constexpr unsigned Unset = ~0u;
  unsigned N = G.size();
  // Tarjan completes components in reverse topological order; CompOf
  // holds the completion number until the count is known. A visited
  // node is on the stack exactly while its CompOf is still unset.
  C.Index.assign(N, Unset);
  C.Low.resize(N);
  C.Stack.clear();
  C.Stack.reserve(N);
  C.DFS.clear();
  C.DFS.reserve(N);
  C.CompOf.assign(N, Unset);
  unsigned NextIndex = 0, NumComps = 0;
  auto visit = [&](unsigned V) {
    C.Index[V] = C.Low[V] = NextIndex++;
    C.Stack.push_back(V);
    C.DFS.push_back({V, 0});
  };
  for (unsigned Root = 0; Root < N; ++Root) {
    if (C.Index[Root] != Unset)
      continue;
    visit(Root);
    while (!C.DFS.empty()) {
      unsigned V = C.DFS.back().Node;
      EdgeIxSpan Out = G.outEdges(V);
      if (C.DFS.back().Next < Out.size()) {
        unsigned W = G.edge(Out.begin()[C.DFS.back().Next++]).Dst;
        if (C.Index[W] == Unset)
          visit(W);
        else if (C.CompOf[W] == Unset)
          C.Low[V] = std::min(C.Low[V], C.Index[W]);
        continue;
      }
      if (C.Low[V] == C.Index[V]) {
        unsigned M;
        do {
          M = C.Stack.back();
          C.Stack.pop_back();
          C.CompOf[M] = NumComps;
        } while (M != V);
        ++NumComps;
      }
      C.DFS.pop_back();
      if (!C.DFS.empty()) {
        unsigned P = C.DFS.back().Node;
        C.Low[P] = std::min(C.Low[P], C.Low[V]);
      }
    }
  }

  // Topological numbering, then a counting sort of the nodes into
  // Members (Start is the fill cursor, shifted back afterwards).
  C.Start.assign(NumComps + 1, 0);
  for (unsigned V = 0; V < N; ++V) {
    C.CompOf[V] = NumComps - 1 - C.CompOf[V];
    ++C.Start[C.CompOf[V] + 1];
  }
  for (unsigned K = 0; K < NumComps; ++K)
    C.Start[K + 1] += C.Start[K];
  C.Members.resize(N);
  for (unsigned V = 0; V < N; ++V)
    C.Members[C.Start[C.CompOf[V]]++] = V;
  for (unsigned K = NumComps; K > 0; --K)
    C.Start[K] = C.Start[K - 1];
  C.Start[0] = 0;

  C.Cyclic.assign(NumComps, 0);
  for (unsigned K = 0; K < NumComps; ++K)
    C.Cyclic[K] = C.Start[K + 1] - C.Start[K] > 1;
  for (const DDG::Edge &E : G.edges())
    if (E.Src == E.Dst)
      C.Cyclic[C.CompOf[E.Src]] = 1;
}

RecurrenceInfo
hcvliw::analyzeRecurrences(const DDG &G,
                           const std::vector<unsigned> &NodeLatency) {
  assert(NodeLatency.size() == G.size() && "latency vector size mismatch");
  RecurrenceInfo Info;
  Info.RecurrenceOf.assign(G.size(), -1);

  DDGComponents SCC;
  computeComponents(G, SCC);
  const std::vector<unsigned> &Start = SCC.Start, &Members = SCC.Members;
  std::vector<int> Local(G.size(), -1);
  for (unsigned C = 0; C < SCC.count(); ++C) {
    if (!SCC.Cyclic[C])
      continue;
    std::vector<unsigned> Nodes(Members.begin() + Start[C],
                                Members.begin() + Start[C + 1]);

    // Re-index the SCC's nodes densely and collect internal edges.
    for (unsigned I = 0; I < Nodes.size(); ++I)
      Local[Nodes[I]] = static_cast<int>(I);
    std::vector<DDG::Edge> Internal;
    std::vector<unsigned> LocalLat(Nodes.size());
    for (unsigned I = 0; I < Nodes.size(); ++I)
      LocalLat[I] = NodeLatency[Nodes[I]];
    for (unsigned N : Nodes)
      for (unsigned EIx : G.outEdges(N)) {
        const DDG::Edge &E = G.edge(EIx);
        if (Local[E.Dst] < 0)
          continue;
        Internal.push_back({static_cast<unsigned>(Local[E.Src]),
                            static_cast<unsigned>(Local[E.Dst]), E.Distance,
                            E.Kind});
      }
    for (unsigned N : Nodes)
      Local[N] = -1;

    Recurrence R;
    R.Nodes = std::move(Nodes);
    R.RecMII = recMIIOfEdges(static_cast<unsigned>(R.Nodes.size()),
                             Internal, LocalLat);
    assert(R.RecMII >= 1 && "SCC with a cycle must have recMII >= 1");
    Info.Recurrences.push_back(std::move(R));
  }

  // Sort recurrences by criticality (descending recMII) and fill the
  // per-node map afterwards so ids match the sorted order.
  std::sort(Info.Recurrences.begin(), Info.Recurrences.end(),
            [](const Recurrence &A, const Recurrence &B) {
              if (A.RecMII != B.RecMII)
                return A.RecMII > B.RecMII;
              return A.Nodes.front() < B.Nodes.front();
            });
  for (unsigned R = 0; R < Info.Recurrences.size(); ++R)
    for (unsigned N : Info.Recurrences[R].Nodes)
      Info.RecurrenceOf[N] = static_cast<int>(R);
  for (const auto &R : Info.Recurrences)
    Info.RecMII = std::max(Info.RecMII, R.RecMII);
  return Info;
}
