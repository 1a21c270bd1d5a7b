//===- tests/ir/DDGTest.cpp - Dependence graph construction -----------------===//

#include "ir/DDG.h"
#include "ir/LoopDSL.h"
#include "machine/IsaTable.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

// Finds an edge Src->Dst of the given kind; returns -1 when absent.
int findEdge(const DDG &G, unsigned Src, unsigned Dst, DepKind K) {
  for (unsigned E = 0; E < G.numEdges(); ++E)
    if (G.edge(E).Src == Src && G.edge(E).Dst == Dst && G.edge(E).Kind == K)
      return static_cast<int>(E);
  return -1;
}

TEST(DDG, RegisterFlowEdges) {
  Loop L = parseSingleLoop(R"(
loop t trip=4
  arrays A O
  x = load A
  y = fadd x x
  s = fadd s@2 y init=0
  store O s
endloop
)");
  DDG G = DDG::build(L);
  int E1 = findEdge(G, 0, 1, DepKind::Flow);
  ASSERT_GE(E1, 0);
  EXPECT_EQ(G.edge(static_cast<unsigned>(E1)).Distance, 0u);
  int Self = findEdge(G, 2, 2, DepKind::Flow);
  ASSERT_GE(Self, 0);
  EXPECT_EQ(G.edge(static_cast<unsigned>(Self)).Distance, 2u);
  EXPECT_GE(findEdge(G, 2, 3, DepKind::Flow), 0);
}

TEST(DDG, LoadLoadNoEdge) {
  Loop L = parseSingleLoop(R"(
loop t trip=4
  arrays A O
  x = load A
  y = load A off=1
  z = fadd x y
  store O z
endloop
)");
  DDG G = DDG::build(L);
  EXPECT_EQ(findEdge(G, 0, 1, DepKind::MemFlow), -1);
  EXPECT_EQ(findEdge(G, 0, 1, DepKind::MemAnti), -1);
  EXPECT_EQ(findEdge(G, 1, 0, DepKind::MemAnti), -1);
}

TEST(DDG, StoreLoadForwardDistance) {
  // store A[i+2]; load A[i]: the load of iteration n+2 reads the store
  // of iteration n: MemFlow store->load distance 2.
  Loop L = parseSingleLoop(R"(
loop t trip=8
  arrays A
  x = load A
  y = fadd x x
  store A y off=2
endloop
)");
  DDG G = DDG::build(L);
  int E = findEdge(G, 2, 0, DepKind::MemFlow);
  ASSERT_GE(E, 0);
  EXPECT_EQ(G.edge(static_cast<unsigned>(E)).Distance, 2u);
}

TEST(DDG, LoadBeforeStoreAnti) {
  // load A[i+1]; store A[i]: the store of iteration n+1 overwrites what
  // the load of iteration n read: MemAnti load->store distance 1.
  Loop L = parseSingleLoop(R"(
loop t trip=8
  arrays A
  x = load A off=1
  y = fadd x x
  store A y
endloop
)");
  DDG G = DDG::build(L);
  int E = findEdge(G, 0, 2, DepKind::MemAnti);
  ASSERT_GE(E, 0);
  EXPECT_EQ(G.edge(static_cast<unsigned>(E)).Distance, 1u);
}

TEST(DDG, SameAddressStoreStore) {
  Loop L = parseSingleLoop(R"(
loop t trip=8
  arrays A O
  x = load O
  store A x
  store A x
endloop
)");
  DDG G = DDG::build(L);
  // Same iteration: program order output dep at distance 0, plus the
  // loop-carried reverse at distance 1.
  int Fwd = findEdge(G, 1, 2, DepKind::MemOutput);
  int Bwd = findEdge(G, 2, 1, DepKind::MemOutput);
  ASSERT_GE(Fwd, 0);
  ASSERT_GE(Bwd, 0);
  EXPECT_EQ(G.edge(static_cast<unsigned>(Fwd)).Distance, 0u);
  EXPECT_EQ(G.edge(static_cast<unsigned>(Bwd)).Distance, 1u);
}

TEST(DDG, DisjointStridesNoAlias) {
  // Lane-split accesses: store A[2i], load A[2i+1] never collide.
  Loop L = parseSingleLoop(R"(
loop t trip=8
  arrays A O
  x = load A off=1 scale=2
  y = fadd x x
  store A y scale=2
endloop
)");
  DDG G = DDG::build(L);
  EXPECT_EQ(findEdge(G, 2, 0, DepKind::MemFlow), -1);
  EXPECT_EQ(findEdge(G, 0, 2, DepKind::MemAnti), -1);
}

TEST(DDG, MixedScalesConservative) {
  Loop L = parseSingleLoop(R"(
loop t trip=8
  arrays A O
  x = load A scale=2
  y = fadd x x
  store A y scale=3
endloop
)");
  DDG G = DDG::build(L);
  // Conservative serialization both ways.
  EXPECT_GE(findEdge(G, 0, 2, DepKind::MemAnti), 0);
  EXPECT_GE(findEdge(G, 2, 0, DepKind::MemFlow), 0);
}

TEST(DDG, EdgeLatencies) {
  Loop L = parseSingleLoop(R"(
loop t trip=8
  arrays A
  x = load A
  y = fmul x x
  store A y off=1
endloop
)");
  DDG G = DDG::build(L);
  IsaTable Isa;
  std::vector<unsigned> Lat = Isa.nodeLatencies(L);
  for (unsigned E = 0; E < G.numEdges(); ++E) {
    const DDG::Edge &Edge = G.edge(E);
    unsigned L2 = edgeLatency(Edge, Lat);
    if (Edge.Kind == DepKind::Flow || Edge.Kind == DepKind::MemFlow)
      EXPECT_EQ(L2, Lat[Edge.Src]);
    else
      EXPECT_EQ(L2, 1u);
  }
}

} // namespace
