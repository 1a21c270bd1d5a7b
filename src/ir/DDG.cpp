//===- ir/DDG.cpp - Data dependence graph ----------------------------------===//

#include "ir/DDG.h"

#include <cassert>
#include <cstdlib>

using namespace hcvliw;

void DDG::addEdge(unsigned Src, unsigned Dst, unsigned Distance,
                  DepKind Kind) {
  assert(Src < NumNodes && Dst < NumNodes && "edge endpoint out of range");
  Edges.push_back({Src, Dst, Distance, Kind});
}

/// Counting sort of the edge list into the CSR rows. Stable: within one
/// node's row, edge indices stay in insertion order — exactly the
/// iteration order of the per-node push_back rows this replaces.
void DDG::finalizeAdjacency() {
  const unsigned N = NumNodes;
  const unsigned E = static_cast<unsigned>(Edges.size());
  OutStart.assign(N + 1, 0);
  InStart.assign(N + 1, 0);
  for (const Edge &Ed : Edges) {
    ++OutStart[Ed.Src + 1];
    ++InStart[Ed.Dst + 1];
  }
  for (unsigned I = 0; I < N; ++I) {
    OutStart[I + 1] += OutStart[I];
    InStart[I + 1] += InStart[I];
  }
  OutIx.resize(E);
  InIx.resize(E);
  // Fill using the start arrays as cursors, then shift them back.
  for (unsigned Ix = 0; Ix < E; ++Ix) {
    OutIx[OutStart[Edges[Ix].Src]++] = Ix;
    InIx[InStart[Edges[Ix].Dst]++] = Ix;
  }
  for (unsigned I = N; I > 0; --I) {
    OutStart[I] = OutStart[I - 1];
    InStart[I] = InStart[I - 1];
  }
  OutStart[0] = 0;
  InStart[0] = 0;
}

unsigned hcvliw::edgeLatency(const DDG::Edge &E,
                             const std::vector<unsigned> &NodeLatency) {
  switch (E.Kind) {
  case DepKind::Flow:
  case DepKind::MemFlow:
    return NodeLatency[E.Src];
  case DepKind::MemAnti:
  case DepKind::MemOutput:
    return 1;
  }
  assert(false && "unknown dep kind");
  return 1;
}

// Adds the memory-ordering edge between accesses A (op IxA) and B (op
// IxB) on the same array, where A precedes B in program order. With a
// shared index scale S the accesses of iterations n (A) and m (B)
// collide iff S*n + OffA == S*m + OffB, i.e. m - n == (OffA - OffB) / S
// when divisible; the dependence direction follows the sign.
void DDG::addAliasEdges(DDG &G, const Loop &L, unsigned IxA, unsigned IxB) {
  const Operation &A = L.Ops[IxA];
  const Operation &B = L.Ops[IxB];
  bool AStore = isStoreOpcode(A.Op);
  bool BStore = isStoreOpcode(B.Op);
  if (!AStore && !BStore)
    return; // load-load: no constraint

  auto kindFor = [&](bool SrcIsStore, bool DstIsStore) {
    if (SrcIsStore && DstIsStore)
      return DepKind::MemOutput;
    return SrcIsStore ? DepKind::MemFlow : DepKind::MemAnti;
  };

  if (A.IndexScale != B.IndexScale) {
    // Conservative serialization for incomparable affine accesses:
    // program order within the iteration, plus the loop-carried reverse.
    G.addEdge(IxA, IxB, 0, kindFor(AStore, BStore));
    G.addEdge(IxB, IxA, 1, kindFor(BStore, AStore));
    return;
  }

  int64_t Delta = A.Offset - B.Offset;
  int64_t S = A.IndexScale;
  if (Delta % S != 0)
    return; // never alias
  int64_t D = Delta / S; // B of iteration n+D hits A of iteration n
  if (D > 0) {
    G.addEdge(IxA, IxB, static_cast<unsigned>(D), kindFor(AStore, BStore));
  } else if (D < 0) {
    G.addEdge(IxB, IxA, static_cast<unsigned>(-D), kindFor(BStore, AStore));
  } else {
    // Same address every iteration pair (n, n): program order wins.
    G.addEdge(IxA, IxB, 0, kindFor(AStore, BStore));
    // And across iterations, the earlier op of iteration n+1 follows the
    // later op of iteration n.
    G.addEdge(IxB, IxA, 1, kindFor(BStore, AStore));
  }
}

DDG DDG::build(const Loop &L) {
  DDG G;
  buildInto(G, L);
  return G;
}

void DDG::buildInto(DDG &G, const Loop &L) {
  assert(L.validate().empty() && "building DDG of an invalid loop");
  G.Edges.clear();
  G.NumNodes = L.size();

  // Register flow edges.
  for (unsigned I = 0; I < L.size(); ++I)
    for (const Operand &U : L.Ops[I].Operands)
      if (U.Kind == OperandKind::Def)
        G.addEdge(U.Index, I, U.Distance, DepKind::Flow);

  // Memory edges, per array, over ordered access pairs.
  for (unsigned A = 0; A < L.Arrays.size(); ++A) {
    std::vector<unsigned> Accesses;
    for (unsigned I = 0; I < L.size(); ++I)
      if (isMemoryOpcode(L.Ops[I].Op) &&
          L.Ops[I].Array == static_cast<int>(A))
        Accesses.push_back(I);
    for (size_t X = 0; X < Accesses.size(); ++X)
      for (size_t Y = X + 1; Y < Accesses.size(); ++Y)
        addAliasEdges(G, L, Accesses[X], Accesses[Y]);
  }

  G.finalizeAdjacency();
}
