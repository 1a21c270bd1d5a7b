//===- tests/ir/RecurrenceMinDistTest.cpp - recMII and MinDist --------------===//

#include "ir/LoopDSL.h"
#include "ir/MinDist.h"
#include "ir/RecurrenceAnalysis.h"
#include "machine/IsaTable.h"
#include "support/RNG.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace hcvliw;

namespace {

struct Analyzed {
  Loop L;
  DDG G;
  std::vector<unsigned> Lat;
  RecurrenceInfo Recs;
};

Analyzed analyze(const char *Src) {
  Analyzed A{parseSingleLoop(Src), DDG(), {}, {}};
  A.G = DDG::build(A.L);
  A.Lat = IsaTable().nodeLatencies(A.L);
  A.Recs = analyzeRecurrences(A.G, A.Lat);
  return A;
}

TEST(RecMII, AcyclicIsZero) {
  Analyzed A = analyze(R"(
loop t trip=4
  arrays A O
  x = load A
  y = fadd x x
  store O y
endloop
)");
  EXPECT_EQ(A.Recs.RecMII, 0);
  EXPECT_TRUE(A.Recs.Recurrences.empty());
}

TEST(RecMII, SelfAccumulator) {
  // s = fadd s@1 x: latency 3 over distance 1.
  Analyzed A = analyze(R"(
loop t trip=4
  arrays A O
  x = load A
  s = fadd s@1 x init=0
  store O s
endloop
)");
  EXPECT_EQ(A.Recs.RecMII, 3);
  ASSERT_EQ(A.Recs.Recurrences.size(), 1u);
  EXPECT_EQ(A.Recs.Recurrences[0].Nodes.size(), 1u);
}

TEST(RecMII, PaperFigure4Example) {
  // Three unit-latency ops in a distance-1 cycle: recMII = 3 (the
  // paper's Figure 4 uses exactly this shape).
  Analyzed A = analyze(R"(
loop t trip=4
  arrays O
  a = add c@1 #1 init=0
  b = add a #1
  c = add b #1
  d = add a #2
  e = add d #3
  store O e
endloop
)");
  EXPECT_EQ(A.Recs.RecMII, 3);
  ASSERT_EQ(A.Recs.Recurrences.size(), 1u);
  EXPECT_EQ(A.Recs.Recurrences[0].Nodes.size(), 3u);
}

TEST(RecMII, DistanceTwoHalves) {
  // fadd chain of 2 (latency 6) at distance 2: recMII = 3.
  Analyzed A = analyze(R"(
loop t trip=8
  arrays O
  a = fadd b@2 #1 init=0
  b = fadd a #1
  store O b
endloop
)");
  EXPECT_EQ(A.Recs.RecMII, 3);
}

TEST(RecMII, TakesMaxOverRecurrences) {
  Analyzed A = analyze(R"(
loop t trip=8
  arrays O P
  a = fadd a@1 #1 init=0
  b = fmul b@1 #2 init=1
  store O a
  store P b
endloop
)");
  // fadd self-cycle: 3; fmul self-cycle: 6.
  EXPECT_EQ(A.Recs.RecMII, 6);
  ASSERT_EQ(A.Recs.Recurrences.size(), 2u);
  // Sorted by criticality.
  EXPECT_GE(A.Recs.Recurrences[0].RecMII, A.Recs.Recurrences[1].RecMII);
  EXPECT_EQ(A.Recs.Recurrences[0].RecMII, 6);
}

TEST(RecMII, RecurrenceOfMapsNodes) {
  Analyzed A = analyze(R"(
loop t trip=8
  arrays O
  a = fadd a@1 #1 init=0
  x = fadd a #1
  store O x
endloop
)");
  EXPECT_EQ(A.Recs.RecurrenceOf[0], 0);
  EXPECT_EQ(A.Recs.RecurrenceOf[1], -1);
  EXPECT_EQ(A.Recs.RecurrenceOf[2], -1);
}

TEST(RecMII, MemoryCarriedRecurrence) {
  // store A[i+1]; load A[i]: MemFlow distance 1 (store lat 2) then load
  // (lat 2) feeds the chain back: cycle lat 2+2+3 over dist 1 = 7.
  Analyzed A = analyze(R"(
loop t trip=8
  arrays A
  x = load A
  y = fadd x #1
  store A y off=1
endloop
)");
  EXPECT_EQ(A.Recs.RecMII, 7);
}

/// Checks the DDGComponents contract on \p G: Members lists every node
/// once, grouped by component in ascending id; every edge stays inside
/// a component or runs to a later one; two nodes share a component
/// exactly when each reaches the other; and a component is cyclic
/// exactly when its nodes reach themselves.
void checkComponents(const DDG &G) {
  DDGComponents C;
  computeComponents(G, C);
  unsigned N = G.size();
  ASSERT_EQ(C.Members.size(), N);
  ASSERT_EQ(C.Start.front(), 0u);
  ASSERT_EQ(C.Start.back(), N);
  for (unsigned K = 0; K < C.count(); ++K) {
    ASSERT_LT(C.Start[K], C.Start[K + 1]) << "empty component " << K;
    for (unsigned P = C.Start[K]; P < C.Start[K + 1]; ++P) {
      EXPECT_EQ(C.CompOf[C.Members[P]], K);
      if (P > C.Start[K]) {
        EXPECT_LT(C.Members[P - 1], C.Members[P]);
      }
    }
  }
  for (const DDG::Edge &E : G.edges())
    EXPECT_LE(C.CompOf[E.Src], C.CompOf[E.Dst]);

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
  for (unsigned U = 0; U < N; ++U) {
    EXPECT_EQ(C.Cyclic[C.CompOf[U]] != 0, Reach[U][U] != 0) << "node " << U;
    for (unsigned V = U + 1; V < N; ++V)
      EXPECT_EQ(C.CompOf[U] == C.CompOf[V], Reach[U][V] && Reach[V][U])
          << "nodes " << U << ", " << V;
  }
}

TEST(Components, CycleWithTail) {
  // {a, b, c} is one cycle; d, e and the store each stand alone.
  Analyzed A = analyze(R"(
loop t trip=4
  arrays O
  a = add c@1 #1 init=0
  b = add a #1
  c = add b #1
  d = add a #2
  e = add d #3
  store O e
endloop
)");
  checkComponents(A.G);
  DDGComponents C;
  computeComponents(A.G, C);
  EXPECT_EQ(C.count(), 4u);
  EXPECT_EQ(C.CompOf[0], C.CompOf[1]);
  EXPECT_EQ(C.CompOf[1], C.CompOf[2]);
}

TEST(Components, SeededRandomLoops) {
  for (unsigned I = 0; I < 50; ++I) {
    RNG Rng(0xc0 + I);
    RandomLoopParams P;
    P.RecurrenceProb = 0.9;
    checkComponents(DDG::build(makeRandomLoop(Rng, P, "scc")));
  }
}

TEST(MinDist, ChainDistances) {
  Analyzed A = analyze(R"(
loop t trip=4
  arrays A O
  x = load A
  y = fadd x x
  z = fmul y y
  store O z
endloop
)");
  MinDistMatrix M = MinDistMatrix::compute(A.G, A.Lat, 1);
  // load(2) -> fadd(3) -> fmul(6) -> store.
  EXPECT_EQ(M.at(0, 1), 2);
  EXPECT_EQ(M.at(0, 2), 5);
  EXPECT_EQ(M.at(0, 3), 11);
  EXPECT_FALSE(M.reaches(3, 0));
  EXPECT_EQ(M.height(0), 11);
  EXPECT_EQ(M.height(3), 0);
}

TEST(MinDist, IIReducesCarriedWeight) {
  Analyzed A = analyze(R"(
loop t trip=4
  arrays O
  a = fadd a@1 #1 init=0
  store O a
endloop
)");
  MinDistMatrix M3 = MinDistMatrix::compute(A.G, A.Lat, 3);
  // Self distance at II == recMII is exactly 0.
  EXPECT_EQ(M3.at(0, 0), 0);
  MinDistMatrix M5 = MinDistMatrix::compute(A.G, A.Lat, 5);
  EXPECT_EQ(M5.at(0, 0), -2);
}

TEST(MinDist, IIBelowRecMIIThrows) {
  // recMII is 3: at II = 2 the self-edge is a positive cycle, which
  // both kernel views must reject in every build type.
  Analyzed A = analyze(R"(
loop t trip=4
  arrays O
  a = fadd a@1 #1 init=0
  store O a
endloop
)");
  ASSERT_EQ(A.Recs.RecMII, 3);
  LongestPathScratch Paths;
  std::vector<int64_t> Slack;
  EXPECT_THROW(computeEdgeSlack(Slack, A.G, A.Lat, 2, Paths),
               std::invalid_argument);
  EXPECT_THROW(MinDistMatrix::compute(A.G, A.Lat, 2), std::invalid_argument);
  EXPECT_NO_THROW(computeEdgeSlack(Slack, A.G, A.Lat, 3, Paths));
  EXPECT_NO_THROW(MinDistMatrix::compute(A.G, A.Lat, 3));
}

TEST(MinDist, EntryPointsRejectMismatchedSizesInEveryBuild) {
  // Two recurrences and a tail; every ir entry point that indexes the
  // latency vector by node, or the loop by DDG node, must refuse a
  // vector or loop of another size instead of reading past it.
  Analyzed A = analyze(R"(
loop t trip=8
  arrays O P
  a = fadd a@1 #1 init=0
  b = fmul b@1 #2 init=1
  store O a
  store P b
endloop
)");
  std::vector<unsigned> Short(A.Lat.begin(), A.Lat.end() - 1);
  std::vector<unsigned> Long = A.Lat;
  Long.push_back(1);
  LongestPathScratch Paths;
  std::vector<int64_t> Slack;
  MinDistMatrix M;
  for (const std::vector<unsigned> *Lat : {&Short, &Long}) {
    EXPECT_THROW(analyzeRecurrences(A.G, *Lat), std::invalid_argument);
    EXPECT_THROW(analyzeRecurrences(A.G, *Lat, Paths), std::invalid_argument);
    EXPECT_THROW(computeEdgeSlack(Slack, A.G, *Lat, 6, Paths),
                 std::invalid_argument);
    EXPECT_THROW(MinDistMatrix::computeInto(M, A.G, *Lat, 6),
                 std::invalid_argument);
  }
  Loop Other = parseSingleLoop(R"(
loop u trip=4
  arrays O
  x = fadd x@1 #1 init=0
  store O x
endloop
)");
  EXPECT_THROW(computeLoopComponents(Other, A.G, A.Recs),
               std::invalid_argument);

  // The scratch is still good after the refusals.
  RecurrenceInfo Again = analyzeRecurrences(A.G, A.Lat, Paths);
  EXPECT_EQ(Again.RecMII, 6);
  EXPECT_EQ(Again.RecurrenceOf, A.Recs.RecurrenceOf);
  EXPECT_NO_THROW(computeEdgeSlack(Slack, A.G, A.Lat, 6, Paths));
  EXPECT_EQ(computeLoopComponents(A.L, A.G, A.Recs).size(), 2u);
}

TEST(MinDist, SlackShrinksAlongCriticalPath) {
  Analyzed A = analyze(R"(
loop t trip=4
  arrays A O
  x = load A
  y = fadd x x
  u = load A off=3
  store O y
endloop
)");
  MinDistMatrix M = MinDistMatrix::compute(A.G, A.Lat, 4);
  // x is on the critical path to y; u is independent of y.
  EXPECT_LT(M.slack(0, 1, 4), M.slack(2, 1, 4));
}

} // namespace
