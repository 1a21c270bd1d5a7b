//===- ir/RecurrenceAnalysis.cpp - Recurrences and recMII ------------------===//

#include "ir/RecurrenceAnalysis.h"
#include "ir/MinDist.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

using namespace hcvliw;

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
  LongestPathScratch Scratch;
  return analyzeRecurrences(G, NodeLatency, Scratch);
}

std::vector<LoopComponent>
hcvliw::computeLoopComponents(const Loop &L, const DDG &G,
                              const RecurrenceInfo &Recs) {
  if (G.size() != L.size())
    throw std::invalid_argument(
        "computeLoopComponents: a " + std::to_string(G.size()) +
        "-node DDG for a " + std::to_string(L.size()) + "-op loop");
  // Union-find over the edges, ignoring direction. Every link points to
  // a lower node (a union hangs the higher root under the lower), so a
  // set's root is its lowest node.
  std::vector<unsigned> Up(L.size());
  std::iota(Up.begin(), Up.end(), 0u);
  auto Find = [&Up](unsigned X) {
    while (Up[X] != X)
      X = Up[X] = Up[Up[X]];
    return X;
  };
  for (const DDG::Edge &E : G.edges()) {
    unsigned A = Find(E.Src), B = Find(E.Dst);
    if (A != B)
      Up[std::max(A, B)] = std::min(A, B);
  }
  // Number the components by their lowest node in one ascending pass:
  // a root takes the next number; any other node takes the number its
  // lower link already holds (that link's own, earlier step wrote it).
  unsigned Count = 0;
  for (unsigned N = 0; N < L.size(); ++N)
    Up[N] = Up[N] == N ? Count++ : Up[Up[N]];
  std::vector<LoopComponent> Comps(Count);
  for (unsigned N = 0; N < L.size(); ++N) {
    LoopComponent &C = Comps[Up[N]];
    ++C.FUCounts[static_cast<unsigned>(fuKindOf(L.Ops[N].Op))];
    int RecId = Recs.RecurrenceOf[N];
    if (RecId >= 0)
      C.RecMII = std::max(
          C.RecMII, Recs.Recurrences[static_cast<size_t>(RecId)].RecMII);
  }
  return Comps;
}
