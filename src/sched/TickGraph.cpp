//===- sched/TickGraph.cpp - Tick-domain view of a partitioned graph -------===//

#include "sched/TickGraph.h"
#include "sched/AsapFixpoint.h"

#include <algorithm>
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

// Why any edge order gives the same ALAP. Every edge bound satisfies
// edgeStartBound(e, x) >= x + Latency(e) * period(src) - Distance(e) *
// IT (crossDomainArrival never returns a tick before the value is
// ready), and Asap is a fixpoint: Asap[dst] >= edgeStartBound(e,
// Asap[src]). Summed around any dependence cycle, the weights w(e) =
// Distance(e) * IT - Latency(e) * period(src) are therefore >= 0, so
// the backward system has no negative cycle. Its greatest solution
// below Horizon is Horizon plus the least weight of a path out of each
// node (0 for the empty path). Relaxation from all-Horizon never drops
// a value below that solution, and each full round extends the paths it
// has accounted for by at least one edge, whatever order the round
// visits them in; so any order reaches the same fixpoint within N
// rounds and then changes nothing. The DDG emits its flow edges
// consumer by consumer, so visiting edges in decreasing index carries a
// whole chain back in one round, where increasing index carried it back
// one edge per round: on the benchmark's unrolled bodies every call
// settles in one round plus the one that confirms it.
unsigned TickGraph::computeAlapTicksInto(const std::vector<int64_t> &Asap,
                                         std::vector<int64_t> &Late) const {
  const unsigned N = PG->size();
  int64_t Horizon = 0;
  for (unsigned I = 0; I < N; ++I)
    Horizon = std::max(Horizon, Asap[I]);
  Late.assign(N, Horizon);
  const std::vector<PGEdge> &Es = PG->edges();
  unsigned Rounds = 0;
  while (Rounds < N) {
    ++Rounds;
    bool Changed = false;
    for (size_t EIx = Es.size(); EIx-- > 0;) {
      int64_t Limit =
          Late[Es[EIx].Dst] + EdgeDistTicks[EIx] - EdgeLatTicks[EIx];
      if (Limit < Late[Es[EIx].Src]) {
        Late[Es[EIx].Src] = Limit;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  return Rounds;
}
