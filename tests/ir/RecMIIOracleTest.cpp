//===- tests/ir/RecMIIOracleTest.cpp - Exactness of recMII ------------------===//
//
// Checks analyzeRecurrences, whose recMII is a binary search on the
// longest-path kernel, against an oracle that lives only in this file:
// the recurrences found by plain reachability, each with the recMII of
// a textbook Bellman-Ford positive-cycle probe (NumNodes rounds over a
// copied, densely re-indexed edge list) and a binary search over
// [1, the recurrence's latency sum]. Every recurrence's node set, its
// place in the criticality order and its recMII must match, as must
// RecurrenceOf and the loop's RecMII, over the SPECfp suite, seeded
// random loops, large single recurrences and unrolled kernel bodies.
// Hand-written fixtures pin self-edges (one of recMII 1, the search's
// lower bound), a cycle whose recMII is its whole latency sum, a cycle
// of weight exactly zero at recMII, and an acyclic loop; the
// positive-cycle rule is checked on the oracle and on the kernel with
// self-loops of weight 1/0/-1 and a zero-weight cycle.
//
//===----------------------------------------------------------------------===//

#include "ir/LoopDSL.h"
#include "ir/MinDist.h"
#include "ir/RecurrenceAnalysis.h"
#include "machine/IsaTable.h"
#include "support/RNG.h"
#include "workloads/SpecFPSuite.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

using namespace hcvliw;

namespace {

struct OracleEdge {
  unsigned Src;
  unsigned Dst;
  int64_t Weight;
};

/// Longest-path Bellman-Ford from a zero-weight super-source: true iff
/// some relaxation still happens in round NumNodes, i.e. some cycle
/// has positive total weight.
bool oracleHasPositiveCycle(unsigned NumNodes,
                            const std::vector<OracleEdge> &Edges) {
  std::vector<int64_t> Dist(NumNodes, 0);
  for (unsigned Round = 0; Round < NumNodes; ++Round) {
    bool Changed = false;
    for (const OracleEdge &E : Edges)
      if (Dist[E.Dst] < Dist[E.Src] + E.Weight) {
        Dist[E.Dst] = Dist[E.Src] + E.Weight;
        Changed = true;
      }
    if (!Changed)
      return false;
  }
  return NumNodes > 0;
}

/// The recMII of the recurrence \p Nodes (ascending ids): its internal
/// edges re-indexed densely, probed at 0, then the least II in
/// [1, latency sum] without a positive cycle.
int64_t oracleRecMII(const DDG &G, const std::vector<unsigned> &Lat,
                     const std::vector<unsigned> &Nodes) {
  std::vector<int> Local(G.size(), -1);
  for (unsigned I = 0; I < Nodes.size(); ++I)
    Local[Nodes[I]] = static_cast<int>(I);
  std::vector<DDG::Edge> Internal;
  int64_t SumLat = 0;
  for (const DDG::Edge &E : G.edges())
    if (Local[E.Src] >= 0 && Local[E.Dst] >= 0) {
      Internal.push_back(E);
      SumLat += edgeLatency(E, Lat);
    }
  auto positiveAt = [&](int64_t II) {
    std::vector<OracleEdge> W;
    for (const DDG::Edge &E : Internal)
      W.push_back({static_cast<unsigned>(Local[E.Src]),
                   static_cast<unsigned>(Local[E.Dst]),
                   static_cast<int64_t>(edgeLatency(E, Lat)) -
                       II * static_cast<int64_t>(E.Distance)});
    return oracleHasPositiveCycle(static_cast<unsigned>(Nodes.size()), W);
  };
  if (Internal.empty() || !positiveAt(0))
    return 0;
  int64_t Lo = 1, Hi = SumLat;
  while (Lo < Hi) {
    int64_t Mid = Lo + (Hi - Lo) / 2;
    if (positiveAt(Mid))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

/// The expected RecurrenceInfo: strongly connected sets from pairwise
/// reachability, kept when they hold a cycle, with oracle recMIIs,
/// sorted by descending recMII and then by lowest node.
RecurrenceInfo oracleRecurrences(const DDG &G,
                                 const std::vector<unsigned> &Lat) {
  unsigned N = G.size();
  std::vector<std::vector<char>> Reach(N, std::vector<char>(N, 0));
  for (unsigned S = 0; S < N; ++S) {
    std::vector<unsigned> Work = {S};
    while (!Work.empty()) {
      unsigned V = Work.back();
      Work.pop_back();
      for (unsigned E : G.outEdges(V))
        if (!Reach[S][G.edge(E).Dst]) {
          Reach[S][G.edge(E).Dst] = 1;
          Work.push_back(G.edge(E).Dst);
        }
    }
  }
  RecurrenceInfo Info;
  Info.RecurrenceOf.assign(N, -1);
  std::vector<char> Taken(N, 0);
  for (unsigned U = 0; U < N; ++U) {
    if (Taken[U] || !Reach[U][U])
      continue;
    Recurrence R;
    for (unsigned V = U; V < N; ++V)
      if (V == U || (Reach[U][V] && Reach[V][U])) {
        R.Nodes.push_back(V);
        Taken[V] = 1;
      }
    R.RecMII = oracleRecMII(G, Lat, R.Nodes);
    Info.Recurrences.push_back(std::move(R));
  }
  std::stable_sort(Info.Recurrences.begin(), Info.Recurrences.end(),
                   [](const Recurrence &A, const Recurrence &B) {
                     return A.RecMII > B.RecMII;
                   });
  for (unsigned R = 0; R < Info.Recurrences.size(); ++R) {
    for (unsigned V : Info.Recurrences[R].Nodes)
      Info.RecurrenceOf[V] = static_cast<int>(R);
    Info.RecMII = std::max(Info.RecMII, Info.Recurrences[R].RecMII);
  }
  return Info;
}

void expectSameInfo(const RecurrenceInfo &Got, const RecurrenceInfo &Want) {
  EXPECT_EQ(Got.RecMII, Want.RecMII);
  EXPECT_EQ(Got.RecurrenceOf, Want.RecurrenceOf);
  ASSERT_EQ(Got.Recurrences.size(), Want.Recurrences.size());
  for (size_t R = 0; R < Want.Recurrences.size(); ++R) {
    EXPECT_EQ(Got.Recurrences[R].Nodes, Want.Recurrences[R].Nodes)
        << "recurrence " << R;
    EXPECT_EQ(Got.Recurrences[R].RecMII, Want.Recurrences[R].RecMII)
        << "recurrence " << R;
  }
}

/// Checks both analyzeRecurrences forms on \p L against the oracle
/// (the scratch form on \p Paths, reused across loops), and that the
/// kernel's walks refuse II = recMII - 1 and accept II = recMII.
/// Returns the checked analysis.
RecurrenceInfo checkLoop(const Loop &L, LongestPathScratch &Paths) {
  SCOPED_TRACE(L.Name);
  DDG G = DDG::build(L);
  std::vector<unsigned> Lat = IsaTable().nodeLatencies(L);
  RecurrenceInfo Want = oracleRecurrences(G, Lat);
  expectSameInfo(analyzeRecurrences(G, Lat), Want);
  expectSameInfo(analyzeRecurrences(G, Lat, Paths), Want);
  std::vector<int64_t> Slack;
  if (Want.RecMII >= 2) {
    EXPECT_THROW(computeEdgeSlack(Slack, G, Lat, Want.RecMII - 1, Paths),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(computeEdgeSlack(Slack, G, Lat,
                                   std::max<int64_t>(Want.RecMII, 1), Paths));
  return Want;
}

TEST(RecMIIOracle, SpecFPLoops) {
  LongestPathScratch Paths;
  unsigned Loops = 0, Cyclic = 0;
  for (const BenchmarkProgram &Prog : buildSpecFPSuite())
    for (const Loop &L : Prog.Loops) {
      Cyclic += checkLoop(L, Paths).RecMII > 0;
      ++Loops;
    }
  EXPECT_GE(Loops, 30u);
  EXPECT_GE(Cyclic, 10u);
}

TEST(RecMIIOracle, SeededRandomLoops) {
  LongestPathScratch Paths;
  unsigned Cyclic = 0;
  for (unsigned I = 0; I < 240; ++I) {
    RNG Rng(0x7ec0 + 613 * I);
    RandomLoopParams P;
    P.RecurrenceProb = (I % 3 == 0) ? 0.2 : 0.9;
    P.MaxDist = 1 + I % 4;
    if (I % 24 == 23) { // every twenty-fourth body is big
      P.MinOps = 200;
      P.MaxOps = 500;
    }
    Loop L = makeRandomLoop(Rng, P, "rand" + std::to_string(I));
    Cyclic += checkLoop(L, Paths).RecMII > 0;
  }
  EXPECT_GE(Cyclic, 150u);
}

TEST(RecMIIOracle, LargeSingleRecurrences) {
  LongestPathScratch Paths;
  for (const Loop &L : {makeWideRecurrenceLoop("wide", 300, 2, 4, 16, 1.0),
                        makeChainRecurrenceLoop("chain", 128, 160, 3, 4, 16,
                                                1.0)})
    EXPECT_GE(checkLoop(L, Paths).RecMII, 1) << L.Name;
}

TEST(RecMIIOracle, UnrolledKernelBodies) {
  LongestPathScratch Paths;
  for (unsigned Ops : {256u, 512u, 768u}) {
    Loop L = makeUnrolledKernelLoop("unrolled", Ops);
    EXPECT_GE(checkLoop(L, Paths).RecMII, 1) << Ops;
  }
}

/// Parses \p Src and returns its oracle-checked analysis.
RecurrenceInfo fixture(const char *Src) {
  LongestPathScratch Paths;
  return checkLoop(parseSingleLoop(Src), Paths);
}

TEST(RecMIIOracle, SelfEdges) {
  // fmul latency 6 over distance 1, and an integer add of latency 1:
  // the search's lower bound, II = 1, is the answer itself.
  RecurrenceInfo R = fixture(R"(
loop t trip=8
  arrays O P
  m = fmul m@1 #2 init=1
  i = add i@1 #1 init=0
  store O m
  store P i
endloop
)");
  ASSERT_EQ(R.Recurrences.size(), 2u);
  EXPECT_EQ(R.Recurrences[0].Nodes, std::vector<unsigned>({0}));
  EXPECT_EQ(R.Recurrences[0].RecMII, 6);
  EXPECT_EQ(R.Recurrences[1].Nodes, std::vector<unsigned>({1}));
  EXPECT_EQ(R.Recurrences[1].RecMII, 1);
  EXPECT_EQ(R.RecMII, 6);
}

TEST(RecMIIOracle, TwoNodeCycleAtItsLatencySum) {
  // fadd -> fmul -> fadd at distance 1: the search's upper bound, the
  // latency sum 3 + 6, is the answer itself.
  RecurrenceInfo R = fixture(R"(
loop t trip=8
  arrays O
  a = fadd b@1 #1 init=0
  b = fmul a #2
  store O b
endloop
)");
  ASSERT_EQ(R.Recurrences.size(), 1u);
  EXPECT_EQ(R.Recurrences[0].Nodes, std::vector<unsigned>({0, 1}));
  EXPECT_EQ(R.RecMII, 9);
}

TEST(RecMIIOracle, ZeroWeightCycleAtRecMII) {
  // Latency 3 + 3 over distance 2: at II = 3 the cycle weighs exactly
  // 0, which must count as settled; at II = 2 it weighs +2.
  const char *Src = R"(
loop t trip=8
  arrays O
  a = fadd b@2 #1 init=0
  b = fadd a #1
  store O b
endloop
)";
  RecurrenceInfo R = fixture(Src);
  EXPECT_EQ(R.RecMII, 3);
  Loop L = parseSingleLoop(Src);
  DDG G = DDG::build(L);
  MinDistMatrix M = MinDistMatrix::compute(G, IsaTable().nodeLatencies(L), 3);
  EXPECT_EQ(M.at(0, 0), 0);
  EXPECT_EQ(M.at(1, 1), 0);
}

TEST(RecMIIOracle, AcyclicLoop) {
  RecurrenceInfo R = fixture(R"(
loop t trip=4
  arrays A O
  x = load A
  y = fmul x x
  z = fadd y x
  store O z
endloop
)");
  EXPECT_EQ(R.RecMII, 0);
  EXPECT_TRUE(R.Recurrences.empty());
  EXPECT_EQ(R.RecurrenceOf, std::vector<int>(4, -1));
}

TEST(RecMIIOracle, OraclePositiveCycleRule) {
  // 0 -> 1 -> 0 with total weight +1, then 0, then acyclic.
  EXPECT_TRUE(oracleHasPositiveCycle(2, {{0, 1, 3}, {1, 0, -2}}));
  EXPECT_FALSE(oracleHasPositiveCycle(2, {{0, 1, 2}, {1, 0, -2}}));
  EXPECT_FALSE(oracleHasPositiveCycle(2, {{0, 1, 100}}));
  EXPECT_FALSE(oracleHasPositiveCycle(0, {}));
  // Self-loops of weight 1, 0 and -1.
  EXPECT_TRUE(oracleHasPositiveCycle(1, {{0, 0, 1}}));
  EXPECT_FALSE(oracleHasPositiveCycle(1, {{0, 0, 0}}));
  EXPECT_FALSE(oracleHasPositiveCycle(1, {{0, 0, -1}}));
}

TEST(RecMIIOracle, KernelPositiveCycleRule) {
  // A latency-3 self-loop at II 2/3/4 weighs +1/0/-1: only +1 is a
  // positive cycle, and the diagonal holds the loop's weight.
  Loop Self = parseSingleLoop(R"(
loop t trip=4
  arrays O
  a = fadd a@1 #1 init=0
  store O a
endloop
)");
  DDG G = DDG::build(Self);
  std::vector<unsigned> Lat = IsaTable().nodeLatencies(Self);
  EXPECT_THROW(MinDistMatrix::compute(G, Lat, 2), std::invalid_argument);
  EXPECT_EQ(MinDistMatrix::compute(G, Lat, 3).at(0, 0), 0);
  EXPECT_EQ(MinDistMatrix::compute(G, Lat, 4).at(0, 0), -1);

  // A two-node cycle of latency 3 + 3 at distance 2 weighs +2 at II 2
  // and exactly 0 at II 3: the zero cycle is not positive.
  Loop Pair = parseSingleLoop(R"(
loop t trip=8
  arrays O
  a = fadd b@2 #1 init=0
  b = fadd a #1
  store O b
endloop
)");
  DDG PG = DDG::build(Pair);
  std::vector<unsigned> PLat = IsaTable().nodeLatencies(Pair);
  LongestPathScratch Paths;
  std::vector<int64_t> Slack;
  EXPECT_THROW(computeEdgeSlack(Slack, PG, PLat, 2, Paths),
               std::invalid_argument);
  EXPECT_NO_THROW(computeEdgeSlack(Slack, PG, PLat, 3, Paths));
}

} // namespace
