//===- sched/TickGraph.cpp - Tick-domain view of a partitioned graph -------===//

#include "sched/TickGraph.h"

#include <stdexcept>

using namespace hcvliw;

std::optional<TickGraph> TickGraph::build(const PartitionedGraph &Graph,
                                          const MachinePlan &Plan) {
  TickGraph T;
  if (!buildInto(T, Graph, Plan))
    return std::nullopt;
  return T;
}

bool TickGraph::buildInto(TickGraph &T, const PartitionedGraph &Graph,
                          const MachinePlan &Plan) {
  PlanGrid::computeInto(T.Grid, Plan);
  if (!T.Grid.valid()) {
    T.PG = nullptr;
    return false;
  }
  T.PG = &Graph;

  unsigned N = Graph.size();
  unsigned Bus = Graph.busDomain();
  T.PeriodTicksVec.resize(N);
  T.IIsVec.resize(N);
  for (unsigned I = 0; I < N; ++I) {
    unsigned D = Graph.node(I).Domain;
    T.PeriodTicksVec[I] = T.Grid.periodTicks(D, Bus);
    T.IIsVec[I] = D == Bus ? Plan.Bus.II : Plan.Clusters[D].II;
  }

  size_t NE = Graph.edges().size();
  T.EdgeLatTicks.resize(NE);
  T.EdgeDistTicks.resize(NE);
  for (size_t E = 0; E < NE; ++E) {
    const PGEdge &Edge = Graph.edge(static_cast<unsigned>(E));
    T.EdgeLatTicks[E] = static_cast<int64_t>(Edge.LatencyCycles) *
                        T.PeriodTicksVec[Edge.Src];
    T.EdgeDistTicks[E] =
        static_cast<int64_t>(Edge.Distance) * T.Grid.itTicks();
  }
  return true;
}

const TickGraph *TickGraph::resolve(const TickGraph *Prebuilt,
                                   const PartitionedGraph &Graph,
                                   const MachinePlan &Plan,
                                   std::optional<TickGraph> &Own) {
  if (!Prebuilt) {
    Own = build(Graph, Plan);
    return Own ? &*Own : nullptr;
  }
  if (!Prebuilt->valid())
    return nullptr;
  if (&Prebuilt->graph() != &Graph)
    throw std::invalid_argument("tick graph lowers a different graph");
  return Prebuilt;
}

std::optional<std::vector<int64_t>> TickGraph::computeAsapTicks() const {
  std::vector<int64_t> Start;
  if (!computeAsapTicksInto(Start))
    return std::nullopt;
  return Start;
}

bool TickGraph::computeAsapTicksInto(std::vector<int64_t> &Start) const {
  unsigned N = PG->size();
  Start.assign(N, 0);
  // Longest-path fixpoint as a FIFO worklist in waves: wave k relaxes
  // the out-edges of nodes raised in wave k-1, so each edge is visited
  // only when its source actually changed (a round-based fixpoint
  // rescans every edge every round). A fixpoint reached from all-zero
  // starts by monotone relaxations is the least one, so converged
  // values equal the round-based ones. The verdict is only that: no
  // fixpoint within N + 1 waves. It is not a proof of a positive
  // cycle — with tick rounding an edge's arrival is no shift of its
  // source's start, so a walk that revisits a node can still raise it,
  // and whether the limit is reached can depend on the visit order.
  WaveCur.resize(N);
  for (unsigned I = 0; I < N; ++I)
    WaveCur[I] = I;
  InWave.assign(N, 0);
  WaveNext.clear();
  for (unsigned Wave = 0; Wave <= N; ++Wave) {
    for (unsigned V : WaveCur) {
      InWave[V] = 0;
      for (unsigned EIx : PG->outEdges(V)) {
        const PGEdge &E = PG->edge(EIx);
        int64_t Bound = edgeStartBound(EIx, Start[V]);
        if (Start[E.Dst] < Bound) {
          // Starts are slot-aligned: round the bound up to the domain
          // tick.
          int64_t Aligned = alignUpToTick(Bound, PeriodTicksVec[E.Dst]);
          if (Start[E.Dst] < Aligned) {
            Start[E.Dst] = Aligned;
            if (!InWave[E.Dst]) {
              InWave[E.Dst] = 1;
              WaveNext.push_back(E.Dst);
            }
          }
        }
      }
    }
    if (WaveNext.empty())
      return true;
    WaveCur.swap(WaveNext);
    WaveNext.clear();
  }
  return false;
}
