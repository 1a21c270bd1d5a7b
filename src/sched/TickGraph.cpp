//===- sched/TickGraph.cpp - Tick-domain view of a partitioned graph -------===//

#include "sched/TickGraph.h"
#include "sched/AsapFixpoint.h"

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
  T.NumOps = 0;
  while (T.NumOps < N && Graph.node(T.NumOps).OrigOp >= 0)
    ++T.NumOps;
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

namespace {

/// The scheduler's step of the ASAP relaxation (sched/AsapFixpoint):
/// visiting original node V relaxes V's out-edges in CSR order, and
/// visits each copy right after the edge into it, so a copy is never
/// behind the sweep.
struct TickStep {
  const TickGraph &T;
  const PartitionedGraph &PG;
  const unsigned NumOps;

  /// Relaxes \p U's out-edges during the visit of original node \p V.
  void relaxOut(AsapSweep &Sw, unsigned U, unsigned V) const {
    const int64_t StartU = Sw.Start[U];
    const uint64_t Depth = Sw.Depth[U] + 1;
    for (unsigned EIx : PG.outEdges(U)) {
      const unsigned Dst = PG.edge(EIx).Dst;
      const int64_t Bound = T.edgeStartBound(EIx, StartU);
      // Starts are slot-aligned: round the bound up to the domain tick.
      if (Sw.Start[Dst] < Bound)
        Sw.raise(Dst, alignUpToTick(Bound, T.periodTicks(Dst)), Depth,
                 Dst <= V);
      if (Dst >= NumOps && U < NumOps)
        relaxOut(Sw, Dst, V);
    }
  }

  void visit(AsapSweep &Sw, unsigned V) const { relaxOut(Sw, V, V); }

  /// D: H / P residues per node.
  uint64_t depthLimit() const {
    const int64_t H = T.grid().hyperperiodTicks();
    uint64_t D = 0;
    for (unsigned N = 0; N < PG.size(); ++N)
      D += static_cast<uint64_t>(H / T.periodTicks(N));
    return D;
  }
};

} // namespace

bool TickGraph::computeAsapTicksInto(std::vector<int64_t> &Start) const {
  TickStep Step{*this, *PG, NumOps};
  unsigned Sweeps = 0;
  return sweepAsapFixpoint(Step, Start, AsapDepth, PG->size(), NumOps,
                           Sweeps);
}
