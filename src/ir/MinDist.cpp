//===- ir/MinDist.cpp - Modulo-scheduling longest paths --------------------===//

#include "ir/MinDist.h"

#include <algorithm>
#include <stdexcept>
#include <string>

using namespace hcvliw;

namespace {

constexpr int64_t NegInf = MinDistMatrix::NegInf;

/// Fills \p S for \p G at \p II: the SCC condensation with its
/// position numbering, and the weighted out-arcs in position space.
void prepare(LongestPathScratch &S, const DDG &G,
             const std::vector<unsigned> &NodeLatency, int64_t II) {
  unsigned N = G.size();
  computeComponents(G, S.SCC);
  unsigned NumComps = S.SCC.count();
  S.PosOf.resize(N);
  S.CompOf.resize(N);
  for (unsigned P = 0; P < N; ++P) {
    S.PosOf[S.SCC.Members[P]] = P;
    S.CompOf[P] = S.SCC.CompOf[S.SCC.Members[P]];
  }
  S.ArcStart.resize(N + 1);
  S.ArcDst.resize(G.numEdges());
  S.ArcWeight.resize(G.numEdges());
  unsigned A = 0;
  for (unsigned P = 0; P < N; ++P) {
    S.ArcStart[P] = A;
    for (unsigned E : G.outEdges(S.SCC.Members[P])) {
      const DDG::Edge &Ed = G.edge(E);
      S.ArcDst[A] = S.PosOf[Ed.Dst];
      S.ArcWeight[A] = static_cast<int64_t>(edgeLatency(Ed, NodeLatency)) -
                       II * static_cast<int64_t>(Ed.Distance);
      ++A;
    }
  }
  S.ArcStart[N] = A;
  S.Dist.assign(N, NegInf);
  S.Reached.assign((NumComps + 63) / 64, 0);
  S.Visited.clear();
  S.Visited.reserve(NumComps);
}

/// The first component >= \p From marked in S.Reached, or ~0u.
unsigned nextReached(const LongestPathScratch &S, unsigned From) {
  size_t W = From / 64;
  if (W >= S.Reached.size())
    return ~0u;
  uint64_t Bits = S.Reached[W] & (~uint64_t(0) << (From % 64));
  while (!Bits) {
    if (++W == S.Reached.size())
      return ~0u;
    Bits = S.Reached[W];
  }
  return static_cast<unsigned>(W * 64 + __builtin_ctzll(Bits));
}

/// Longest paths of one or more edges from node \p Src into S.Dist (by
/// position), over the components Src reaches among CompOf[Src] ..
/// \p Last, in topological order; arcs into later components are not
/// followed. Appends the visited components to S.Visited, in order,
/// and leaves S.Reached zero.
void longestFrom(LongestPathScratch &S, unsigned Src, unsigned Last,
                 int64_t II) {
  int64_t *Dist = S.Dist.data();
  const unsigned *ArcDst = S.ArcDst.data();
  const int64_t *ArcW = S.ArcWeight.data();
  const unsigned *CompOf = S.CompOf.data();
  auto reach = [&](unsigned P) {
    S.Reached[CompOf[P] / 64] |= uint64_t(1) << (CompOf[P] % 64);
  };
  unsigned SrcPos = S.PosOf[Src];
  for (unsigned A = S.ArcStart[SrcPos]; A < S.ArcStart[SrcPos + 1]; ++A) {
    Dist[ArcDst[A]] = std::max(Dist[ArcDst[A]], ArcW[A]);
    reach(ArcDst[A]);
  }
  const unsigned *Start = S.SCC.Start.data();
  unsigned LastEnd = Start[Last + 1];
  for (unsigned T = nextReached(S, CompOf[SrcPos]); T <= Last;
       T = nextReached(S, T + 1)) {
    S.Reached[T / 64] &= ~(uint64_t(1) << (T % 64));
    S.Visited.push_back(T);
    unsigned Begin = Start[T], End = Start[T + 1];
    if (S.SCC.Cyclic[T]) {
      // Recurrence: relax its internal arcs to the fixpoint. Longest
      // paths inside it are simple (no positive cycle at II >= recMII),
      // so they settle within |C| - 1 rounds; a change in round |C|
      // proves a positive cycle.
      for (unsigned Round = 1;; ++Round) {
        bool Changed = false;
        for (unsigned P = Begin; P < End; ++P) {
          int64_t DP = Dist[P];
          if (DP == NegInf)
            continue;
          for (unsigned A = S.ArcStart[P]; A < S.ArcStart[P + 1]; ++A)
            if (ArcDst[A] < End && DP + ArcW[A] > Dist[ArcDst[A]]) {
              Dist[ArcDst[A]] = DP + ArcW[A];
              Changed = true;
            }
        }
        if (!Changed)
          break;
        if (Round == End - Begin)
          throw std::invalid_argument(
              "longest paths: II " + std::to_string(II) +
              " is below recMII (positive cycle) on a " +
              std::to_string(S.PosOf.size()) + "-node DDG");
      }
    }
    // Arcs leave a component only forward (topological order).
    for (unsigned P = Begin; P < End; ++P) {
      int64_t DP = Dist[P];
      if (DP == NegInf)
        continue;
      for (unsigned A = S.ArcStart[P]; A < S.ArcStart[P + 1]; ++A) {
        unsigned D = ArcDst[A];
        if (D >= End && D < LastEnd) {
          Dist[D] = std::max(Dist[D], DP + ArcW[A]);
          reach(D);
        }
      }
    }
  }
}

} // namespace

void hcvliw::computeEdgeSlack(std::vector<int64_t> &EdgeSlack, const DDG &G,
                              const std::vector<unsigned> &NodeLatency,
                              int64_t II, LongestPathScratch &S) {
  prepare(S, G, NodeLatency, II);
  EdgeSlack.assign(G.numEdges(), 0);
  for (unsigned Src = 0; Src < G.size(); ++Src) {
    EdgeIxSpan Out = G.outEdges(Src);
    if (Out.empty())
      continue;
    // Walk only as far as the last component holding an out-neighbour
    // (forward terms) or Src's own (reverse terms: a path back into Src
    // exists only from inside its component).
    unsigned T = S.CompOf[S.PosOf[Src]], Last = T;
    for (unsigned E : Out)
      Last = std::max(Last, S.CompOf[S.PosOf[G.edge(E).Dst]]);
    longestFrom(S, Src, Last, II);
    for (unsigned E : Out)
      EdgeSlack[E] -= S.Dist[S.PosOf[G.edge(E).Dst]];
    for (unsigned E : G.inEdges(Src)) {
      unsigned From = S.PosOf[G.edge(E).Src];
      if (S.CompOf[From] == T)
        EdgeSlack[E] -= S.Dist[From];
    }
    for (unsigned C : S.Visited)
      std::fill(S.Dist.begin() + S.SCC.Start[C],
                S.Dist.begin() + S.SCC.Start[C + 1], NegInf);
    S.Visited.clear();
  }
}

MinDistMatrix MinDistMatrix::compute(const DDG &G,
                                     const std::vector<unsigned> &NodeLatency,
                                     int64_t II) {
  MinDistMatrix M;
  computeInto(M, G, NodeLatency, II);
  return M;
}

void MinDistMatrix::computeInto(MinDistMatrix &M, const DDG &G,
                                const std::vector<unsigned> &NodeLatency,
                                int64_t II) {
  M.N = G.size();
  M.Data.assign(static_cast<size_t>(M.N) * M.N, NegInf);
  if (M.N == 0)
    return;
  LongestPathScratch S;
  prepare(S, G, NodeLatency, II);
  unsigned Last = S.SCC.count() - 1;
  for (unsigned Src = 0; Src < M.N; ++Src) {
    if (G.outEdges(Src).empty())
      continue;
    longestFrom(S, Src, Last, II);
    int64_t *Row = &M.Data[static_cast<size_t>(Src) * M.N];
    for (unsigned C : S.Visited)
      for (unsigned P = S.SCC.Start[C]; P < S.SCC.Start[C + 1]; ++P) {
        Row[S.SCC.Members[P]] = S.Dist[P];
        S.Dist[P] = NegInf;
      }
    S.Visited.clear();
  }
}

int64_t MinDistMatrix::height(unsigned I) const {
  int64_t H = 0;
  for (unsigned J = 0; J < N; ++J)
    if (at(I, J) != NegInf)
      H = std::max(H, at(I, J));
  return H;
}

int64_t MinDistMatrix::slack(unsigned I, unsigned J, int64_t II) const {
  int64_t Forward = at(I, J) == NegInf ? 0 : at(I, J);
  int64_t Backward = at(J, I) == NegInf ? 0 : at(J, I);
  return II - Forward - Backward;
}
