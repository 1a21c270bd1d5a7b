//===- ir/MinDist.cpp - Modulo-scheduling longest paths --------------------===//

#include "ir/MinDist.h"

#include <algorithm>
#include <stdexcept>
#include <string>

using namespace hcvliw;

namespace {

constexpr int64_t NegInf = MinDistMatrix::NegInf;

/// Weighs the out-arcs of positions [\p Begin, \p End) at \p II.
void weighArcs(LongestPathScratch &S, const DDG &G,
               const std::vector<unsigned> &NodeLatency, int64_t II,
               unsigned Begin, unsigned End) {
  unsigned A = S.ArcStart[Begin];
  for (unsigned P = Begin; P < End; ++P)
    for (unsigned E : G.outEdges(S.SCC.Members[P])) {
      const DDG::Edge &Ed = G.edge(E);
      S.ArcWeight[A++] = static_cast<int64_t>(edgeLatency(Ed, NodeLatency)) -
                         II * static_cast<int64_t>(Ed.Distance);
    }
}

/// Fills \p S for \p G at \p II: the SCC condensation with its
/// position numbering, and the weighted out-arcs in position space.
void prepare(LongestPathScratch &S, const DDG &G,
             const std::vector<unsigned> &NodeLatency, int64_t II) {
  unsigned N = G.size();
  if (NodeLatency.size() != N)
    throw std::invalid_argument(
        "longest paths: " + std::to_string(NodeLatency.size()) +
        " node latencies for a " + std::to_string(N) + "-node DDG");
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
    for (unsigned E : G.outEdges(S.SCC.Members[P]))
      S.ArcDst[A++] = S.PosOf[G.edge(E).Dst];
  }
  S.ArcStart[N] = A;
  weighArcs(S, G, NodeLatency, II, 0, N);
  S.Dist.assign(N, NegInf);
  S.Reached.assign((NumComps + 63) / 64, 0);
  S.Visited.clear();
  S.Visited.reserve(NumComps);
}

/// Relaxes the arcs inside the component at positions [\p Begin,
/// \p End) to their fixpoint, from whatever S.Dist holds (NegInf:
/// unreached). Without a positive cycle, longest paths are simple, so
/// they settle within |C| - 1 rounds in any visit order. Returns false
/// when round |C| still changes a distance, which proves a positive
/// cycle.
bool relaxComponent(LongestPathScratch &S, unsigned Begin, unsigned End) {
  int64_t *Dist = S.Dist.data();
  const unsigned *ArcDst = S.ArcDst.data();
  const int64_t *ArcW = S.ArcWeight.data();
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
      return true;
    if (Round == End - Begin)
      return false;
  }
}

/// The recMII of cyclic component \p C of a prepared \p S: the least
/// II >= 1 at which relaxing it from all-zero starts (every member
/// reachable, so every cycle is seen) settles. II = the latency sum of
/// its arcs always settles, as every cycle has distance >= 1.
int64_t componentRecMII(LongestPathScratch &S, const DDG &G,
                        const std::vector<unsigned> &NodeLatency,
                        unsigned C) {
  unsigned Begin = S.SCC.Start[C], End = S.SCC.Start[C + 1];
  auto settlesAt = [&](int64_t II) {
    weighArcs(S, G, NodeLatency, II, Begin, End);
    std::fill(S.Dist.begin() + Begin, S.Dist.begin() + End, 0);
    return relaxComponent(S, Begin, End);
  };
  int64_t Lo = 1, Hi = 0;
  for (unsigned P = Begin; P < End; ++P)
    for (unsigned E : G.outEdges(S.SCC.Members[P]))
      if (S.PosOf[G.edge(E).Dst] < End)
        Hi += edgeLatency(G.edge(E), NodeLatency);
  while (Lo < Hi) {
    int64_t Mid = Lo + (Hi - Lo) / 2;
    if (settlesAt(Mid))
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  return Lo;
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
    if (S.SCC.Cyclic[T] && !relaxComponent(S, Begin, End))
      throw std::invalid_argument(
          "longest paths: II " + std::to_string(II) +
          " is below recMII (positive cycle) on a " +
          std::to_string(S.PosOf.size()) + "-node DDG");
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

RecurrenceInfo
hcvliw::analyzeRecurrences(const DDG &G,
                           const std::vector<unsigned> &NodeLatency,
                           LongestPathScratch &S) {
  prepare(S, G, NodeLatency, /*II=*/0);
  const DDGComponents &SCC = S.SCC;
  RecurrenceInfo Info;
  Info.RecurrenceOf.assign(G.size(), -1);
  Info.Recurrences.reserve(static_cast<size_t>(
      std::count(SCC.Cyclic.begin(), SCC.Cyclic.end(), 1)));
  for (unsigned C = 0; C < SCC.count(); ++C)
    if (SCC.Cyclic[C])
      Info.Recurrences.push_back(
          {std::vector<unsigned>(SCC.Members.begin() + SCC.Start[C],
                                 SCC.Members.begin() + SCC.Start[C + 1]),
           componentRecMII(S, G, NodeLatency, C)});

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
