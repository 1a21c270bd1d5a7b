//===- sched/ScheduleValidator.cpp - Schedule invariant checks --------------===//

#include "sched/ScheduleValidator.h"
#include "sched/TickGraph.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <tuple>

using namespace hcvliw;

std::string hcvliw::validateSchedule(const MachineDescription &M,
                                     const PartitionedGraph &PG,
                                     const Schedule &S,
                                     const ValidatorOptions &Opts) {
  if (S.Nodes.size() != PG.size())
    return "schedule does not cover the graph";

  // Every timing check below runs on the plan's tick grid.
  std::optional<TickGraph> Own;
  const TickGraph *T = TickGraph::resolve(Opts.Ticks, PG, S.Plan, Own);
  if (!T)
    return PlanGrid::NoGridReason;

  // Per-domain II * running period must equal the IT exactly.
  for (unsigned C = 0; C < PG.numClusters(); ++C)
    if (Rational(S.Plan.Clusters[C].II) * S.Plan.Clusters[C].PeriodNs !=
        S.Plan.ITNs)
      return formatString("cluster %u: II * period != IT", C);
  if (Rational(S.Plan.Bus.II) * S.Plan.Bus.PeriodNs != S.Plan.ITNs)
    return "bus: II * period != IT";

  for (unsigned N = 0; N < PG.size(); ++N) {
    if (!S.Nodes[N].Placed)
      return formatString("node %u unplaced", N);
    if (S.Nodes[N].Slot < 0)
      return formatString("node %u at negative slot", N);
  }

  // Dependences under the exact timing rule.
  for (unsigned EIx = 0; EIx < PG.edges().size(); ++EIx) {
    const PGEdge &E = PG.edge(EIx);
    int64_t Bound =
        T->edgeStartBound(EIx, T->startTicks(E.Src, S.Nodes[E.Src].Slot));
    if (T->startTicks(E.Dst, S.Nodes[E.Dst].Slot) < Bound)
      return formatString("edge %u->%u (dist %u) violated", E.Src, E.Dst,
                          E.Distance);
  }

  // Modulo resource conflicts: (domain, kind, unit, slot mod II) unique.
  // Sort-and-scan over one flat vector instead of a node-per-entry map:
  // the validator runs on every successful schedule, so it must not
  // dominate the driver's allocation budget.
  struct Cell {
    unsigned Domain, Kind, Unit;
    int64_t Mod;
    unsigned Node;
  };
  std::vector<Cell> Cells;
  Cells.reserve(PG.size());
  for (unsigned N = 0; N < PG.size(); ++N) {
    const PGNode &Node = PG.node(N);
    int64_t II = S.iiOf(PG, N);
    Cells.push_back({Node.Domain, static_cast<unsigned>(Node.Kind),
                     S.Nodes[N].Unit, S.Nodes[N].Slot % II, N});
    // The unit index must exist.
    unsigned Units = Node.Domain == PG.busDomain()
                         ? M.Buses
                         : M.Clusters[Node.Domain].fuCount(Node.Kind);
    if (S.Nodes[N].Unit >= Units)
      return formatString("node %u on nonexistent unit", N);
  }
  std::sort(Cells.begin(), Cells.end(), [](const Cell &A, const Cell &B) {
    return std::tie(A.Domain, A.Kind, A.Unit, A.Mod, A.Node) <
           std::tie(B.Domain, B.Kind, B.Unit, B.Mod, B.Node);
  });
  for (size_t I = 1; I < Cells.size(); ++I) {
    const Cell &A = Cells[I - 1], &B = Cells[I];
    if (A.Domain == B.Domain && A.Kind == B.Kind && A.Unit == B.Unit &&
        A.Mod == B.Mod)
      return formatString("nodes %u and %u share a reservation cell", A.Node,
                          B.Node);
  }

  if (Opts.CheckRegisterPressure) {
    RegisterPressureResult R =
        computeRegisterPressure(PG, S, T);
    for (unsigned C = 0; C < PG.numClusters(); ++C)
      if (R.MaxLive[C] > static_cast<int64_t>(M.Clusters[C].Registers))
        return formatString("cluster %u: MaxLive %lld exceeds %u registers",
                            C, static_cast<long long>(R.MaxLive[C]),
                            M.Clusters[C].Registers);
  }
  return "";
}
