//===- tests/ir/LongestPathOracleTest.cpp - Exactness of MinDist ------------===//
//
// Checks the longest-path kernel (computeEdgeSlack and the dense
// MinDistMatrix built on it) cell for cell against an independent
// Floyd-Warshall that lives only in this file, at II = recMII and
// recMII + 3, over the SPECfp suite, seeded random loops dense with
// recurrences, single recurrences of hundreds of nodes, unrolled
// kernel bodies up to 1536 ops, and a hand-written loop with a
// self-edge and parallel edges.
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

using namespace hcvliw;

namespace {

constexpr int64_t NegInf = MinDistMatrix::NegInf;

/// The reference: Floyd-Warshall longest paths of one or more edges,
/// row-major N x N, NegInf when unreachable.
std::vector<int64_t> floydWarshall(const DDG &G,
                                   const std::vector<unsigned> &Lat,
                                   int64_t II) {
  size_t N = G.size();
  std::vector<int64_t> D(N * N, NegInf);
  for (const DDG::Edge &E : G.edges()) {
    int64_t W = static_cast<int64_t>(edgeLatency(E, Lat)) -
                II * static_cast<int64_t>(E.Distance);
    D[E.Src * N + E.Dst] = std::max(D[E.Src * N + E.Dst], W);
  }
  for (size_t K = 0; K < N; ++K)
    for (size_t I = 0; I < N; ++I) {
      if (D[I * N + K] == NegInf)
        continue;
      for (size_t J = 0; J < N; ++J)
        if (D[K * N + J] != NegInf)
          D[I * N + J] = std::max(D[I * N + J], D[I * N + K] + D[K * N + J]);
    }
  return D;
}

/// Compares both kernel views with the reference at recMII and
/// recMII + 3 on \p L's DDG under the default ISA latencies.
void checkLoop(const Loop &L) {
  SCOPED_TRACE(L.Name);
  DDG G = DDG::build(L);
  std::vector<unsigned> Lat = IsaTable().nodeLatencies(L);
  int64_t RecMII = std::max<int64_t>(analyzeRecurrences(G, Lat).RecMII, 1);
  LongestPathScratch Paths;
  std::vector<int64_t> Slack;
  MinDistMatrix M;
  for (int64_t II : {RecMII, RecMII + 3}) {
    SCOPED_TRACE(testing::Message() << "II " << II);
    std::vector<int64_t> Ref = floydWarshall(G, Lat, II);
    size_t N = G.size();

    MinDistMatrix::computeInto(M, G, Lat, II);
    ASSERT_EQ(M.size(), N);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        ASSERT_EQ(M.at(static_cast<unsigned>(I), static_cast<unsigned>(J)),
                  Ref[I * N + J])
            << "cell " << I << "," << J;

    computeEdgeSlack(Slack, G, Lat, II, Paths);
    ASSERT_EQ(Slack.size(), G.numEdges());
    for (unsigned E = 0; E < G.numEdges(); ++E) {
      size_t S = G.edge(E).Src, D = G.edge(E).Dst;
      int64_t Back = Ref[D * N + S] == NegInf ? 0 : Ref[D * N + S];
      ASSERT_EQ(Slack[E], -(Ref[S * N + D] + Back)) << "edge " << E;
    }
  }
}

TEST(LongestPathOracle, SpecFPLoops) {
  unsigned Loops = 0;
  for (const BenchmarkProgram &Prog : buildSpecFPSuite())
    for (const Loop &L : Prog.Loops) {
      checkLoop(L);
      ++Loops;
    }
  EXPECT_GE(Loops, 30u);
}

TEST(LongestPathOracle, RecurrenceDenseRandomLoops) {
  for (unsigned I = 0; I < 200; ++I) {
    RNG Rng(0x10a9 + 977 * I);
    RandomLoopParams P;
    P.RecurrenceProb = 0.9;
    if (I % 20 == 19) { // every twentieth body is big
      P.MinOps = 200;
      P.MaxOps = 600;
    }
    checkLoop(makeRandomLoop(Rng, P, "rand" + std::to_string(I)));
  }
}

TEST(LongestPathOracle, LargeSingleRecurrences) {
  for (const Loop &L :
       {makeWideRecurrenceLoop("wide", 300, 2, 4, 16, 1.0),
        makeChainRecurrenceLoop("chain", 128, 160, 3, 4, 16, 1.0)}) {
    DDG G = DDG::build(L);
    RecurrenceInfo Recs = analyzeRecurrences(G, IsaTable().nodeLatencies(L));
    size_t Largest = 0;
    for (const Recurrence &R : Recs.Recurrences)
      Largest = std::max(Largest, R.Nodes.size());
    EXPECT_GE(Largest, 256u) << L.Name;
    checkLoop(L);
  }
}

TEST(LongestPathOracle, UnrolledKernelBodies) {
  for (unsigned Ops : {256u, 768u, 1536u})
    checkLoop(makeUnrolledKernelLoop("unrolled", Ops));
}

TEST(LongestPathOracle, SelfEdgeAndParallelEdges) {
  // s carries a self-edge; y reads x twice and the store/load pair on A
  // adds memory edges beside the flow edges.
  Loop L = parseSingleLoop(R"(
loop t trip=8
  arrays A O
  x = load A
  s = fadd s@1 x init=0
  y = fmul x x
  z = fadd y s
  store A z off=1
  store O z
endloop
)");
  DDG G = DDG::build(L);
  bool SelfEdge = false, Parallel = false;
  for (unsigned E = 0; E < G.numEdges(); ++E)
    for (unsigned F = E + 1; F < G.numEdges(); ++F)
      Parallel |= G.edge(E).Src == G.edge(F).Src &&
                  G.edge(E).Dst == G.edge(F).Dst;
  for (const DDG::Edge &E : G.edges())
    SelfEdge |= E.Src == E.Dst;
  EXPECT_TRUE(SelfEdge);
  EXPECT_TRUE(Parallel);
  checkLoop(L);
}

} // namespace
