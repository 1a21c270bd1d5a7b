//===- support/Graph.cpp - Generic directed-graph algorithms --------------===//

#include "support/Graph.h"

#include <cassert>

using namespace hcvliw;

std::optional<std::vector<unsigned>>
hcvliw::topologicalOrder(unsigned NumNodes,
                         const std::vector<std::vector<unsigned>> &Adj) {
  assert(Adj.size() == NumNodes && "adjacency size mismatch");
  std::vector<unsigned> InDegree(NumNodes, 0);
  for (unsigned N = 0; N < NumNodes; ++N)
    for (unsigned M : Adj[N])
      ++InDegree[M];

  std::vector<unsigned> Ready;
  for (unsigned N = 0; N < NumNodes; ++N)
    if (InDegree[N] == 0)
      Ready.push_back(N);

  std::vector<unsigned> Order;
  Order.reserve(NumNodes);
  for (size_t I = 0; I < Ready.size(); ++I) {
    unsigned N = Ready[I];
    Order.push_back(N);
    for (unsigned M : Adj[N])
      if (--InDegree[M] == 0)
        Ready.push_back(M);
  }
  if (Order.size() != NumNodes)
    return std::nullopt;
  return Order;
}
