//===- tests/support/GraphTest.cpp - Graph algorithm tests ------------------===//

#include "support/Graph.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace hcvliw;

namespace {

TEST(Topo, SimpleDAG) {
  auto Order = topologicalOrder(4, {{1, 2}, {3}, {3}, {}});
  ASSERT_TRUE(Order.has_value());
  std::vector<unsigned> Pos(4);
  for (unsigned I = 0; I < 4; ++I)
    Pos[(*Order)[I]] = I;
  EXPECT_LT(Pos[0], Pos[1]);
  EXPECT_LT(Pos[1], Pos[3]);
  EXPECT_LT(Pos[2], Pos[3]);
}

TEST(Topo, DetectsCycle) {
  EXPECT_FALSE(topologicalOrder(2, {{1}, {0}}).has_value());
  EXPECT_FALSE(topologicalOrder(1, {{0}}).has_value());
}

TEST(PositiveCycle, Basics) {
  using E = WeightedEdge<int64_t>;
  // 0 -> 1 -> 0 with total weight +1.
  std::vector<E> Cycle = {{0, 1, 3}, {1, 0, -2}};
  EXPECT_TRUE(hasPositiveCycle<int64_t>(2, Cycle));
  // Total weight 0: not positive.
  std::vector<E> Zero = {{0, 1, 2}, {1, 0, -2}};
  EXPECT_FALSE(hasPositiveCycle<int64_t>(2, Zero));
  // Acyclic.
  std::vector<E> Acyclic = {{0, 1, 100}};
  EXPECT_FALSE(hasPositiveCycle<int64_t>(2, Acyclic));
  EXPECT_FALSE(hasPositiveCycle<int64_t>(0, {}));
}

TEST(PositiveCycle, SelfLoop) {
  using E = WeightedEdge<int64_t>;
  EXPECT_TRUE(hasPositiveCycle<int64_t>(1, std::vector<E>{{0, 0, 1}}));
  EXPECT_FALSE(hasPositiveCycle<int64_t>(1, std::vector<E>{{0, 0, 0}}));
  EXPECT_FALSE(hasPositiveCycle<int64_t>(1, std::vector<E>{{0, 0, -1}}));
}

TEST(DagHeights, Chain) {
  using E = WeightedEdge<int64_t>;
  std::vector<E> Edges = {{0, 1, 4}, {1, 2, 5}};
  auto Order = topologicalOrder(3, {{1}, {2}, {}});
  ASSERT_TRUE(Order.has_value());
  auto H = dagHeights<int64_t>(3, Edges, *Order);
  EXPECT_EQ(H[0], 9);
  EXPECT_EQ(H[1], 5);
  EXPECT_EQ(H[2], 0);
}

TEST(DagHeights, Diamond) {
  using E = WeightedEdge<int64_t>;
  std::vector<E> Edges = {{0, 1, 1}, {0, 2, 10}, {1, 3, 1}, {2, 3, 1}};
  auto Order = topologicalOrder(4, {{1, 2}, {3}, {3}, {}});
  ASSERT_TRUE(Order.has_value());
  auto H = dagHeights<int64_t>(4, Edges, *Order);
  EXPECT_EQ(H[0], 11);
}

} // namespace
