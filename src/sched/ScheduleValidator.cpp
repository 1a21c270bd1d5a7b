//===- sched/ScheduleValidator.cpp - Schedule invariant checks --------------===//

#include "sched/ScheduleValidator.h"
#include "sched/TickGraph.h"
#include "support/StrUtil.h"

#include <vector>

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

  // The unit index must exist.
  const unsigned NumDomains = PG.numClusters() + 1;
  auto unitsOf = [&](unsigned Domain, unsigned Kind) -> unsigned {
    return Domain == PG.busDomain()
               ? M.Buses
               : M.Clusters[Domain].fuCount(static_cast<FUKind>(Kind));
  };
  for (unsigned N = 0; N < PG.size(); ++N)
    if (S.Nodes[N].Unit >= unitsOf(PG.node(N).Domain,
                                   static_cast<unsigned>(PG.node(N).Kind)))
      return formatString("node %u on nonexistent unit", N);

  // Modulo resource conflicts: (domain, kind, unit, slot mod II) unique.
  // One occupancy table whose cell index orders the cells as those
  // tuples compare: a block per (domain, kind) with a row of II cells
  // per unit. Nodes enter in increasing id, so the first clash in a
  // cell names its two lowest node ids, and the report is the clash in
  // the lowest cell. The table's first NumBlocks + 1 entries are the
  // block offsets; a cell holds its occupant's id + 1, or 0 when free.
  const size_t NumBlocks = static_cast<size_t>(NumDomains) * NumFUKinds;
  auto blockCells = [&](size_t B) -> size_t {
    unsigned D = static_cast<unsigned>(B / NumFUKinds);
    int64_t II = D == PG.busDomain() ? S.Plan.Bus.II : S.Plan.Clusters[D].II;
    return unitsOf(D, B % NumFUKinds) * static_cast<size_t>(II);
  };
  size_t Cells = NumBlocks + 1;
  for (size_t B = 0; B < NumBlocks; ++B)
    Cells += blockCells(B);
  std::vector<size_t> Table(Cells, 0);
  Table[0] = NumBlocks + 1;
  for (size_t B = 0; B + 1 < NumBlocks; ++B)
    Table[B + 1] = Table[B] + blockCells(B);
  size_t Clash = Cells;
  unsigned ClashA = 0, ClashB = 0;
  for (unsigned N = 0; N < PG.size(); ++N) {
    const PGNode &Node = PG.node(N);
    int64_t II = S.iiOf(PG, N);
    size_t Cell = Table[static_cast<size_t>(Node.Domain) * NumFUKinds +
                        static_cast<unsigned>(Node.Kind)] +
                  static_cast<size_t>(S.Nodes[N].Unit) *
                      static_cast<size_t>(II) +
                  static_cast<size_t>(S.Nodes[N].Slot % II);
    if (Table[Cell] == 0) {
      Table[Cell] = static_cast<size_t>(N) + 1;
    } else if (Cell < Clash) {
      Clash = Cell;
      ClashA = static_cast<unsigned>(Table[Cell] - 1);
      ClashB = N;
    }
  }
  if (Clash < Cells)
    return formatString("nodes %u and %u share a reservation cell", ClashA,
                        ClashB);

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
