//===- sched/HeteroModuloScheduler.cpp - Heterogeneous IMS ------------------===//
//
// The placement loop runs on the plan's PlanGrid: every clock quantity
// is an exact int64 tick count, per-edge timing constants are
// precomputed (TickGraph), and the highest-priority unplaced node is
// selected through a rank-ordered bitset instead of a linear rescan of
// the priority list. tests/sched/TickDomainTest pins its output to
// golden digests over random loops and plans.
//
// All per-run storage lives in a SchedulerScratch (caller-provided for
// steady-state allocation-free sweeps, stack-local otherwise); scratch
// contents never carry information between runs.
//
//===----------------------------------------------------------------------===//

#include "sched/HeteroModuloScheduler.h"
#include "sched/TickGraph.h"

#include <algorithm>
#include <cassert>

using namespace hcvliw;

HeteroModuloScheduler::HeteroModuloScheduler(const MachineDescription &M,
                                             const PartitionedGraph &Graph,
                                             const MachinePlan &ThePlan)
    : Machine(M), PG(Graph), Plan(ThePlan) {}

namespace {

/// Placement attempts allowed per node, for loops up to BudgetRefOps
/// nodes (see budgetFor).
constexpr int64_t BudgetFactor = 12;
/// Node count past which the ejection budget stops growing linearly.
/// Up to this size the budget is BudgetFactor * N + 64; above it the
/// per-node allowance decays as sqrt(BudgetRefOps / N), so the total
/// grows like sqrt(N) — sublinear, which keeps 1000+-op sweeps from
/// spending minutes in ejection storms at hopeless IIs. Growing the IT
/// makes scheduling strictly easier, so a budget miss only defers
/// success to a later (cheaper) IT step, never to failure of the sweep.
constexpr int64_t BudgetRefOps = 256;
/// Fail when any slot exceeds this multiple of its domain's II
/// (runaway ejection chains); also the ceiling stage compaction slides
/// a node up to.
constexpr int64_t MaxSlotMultiple = 64;

/// The placement-loop budget for an \p NumOps-node partitioned graph
/// (copy nodes included). Integer sqrt keeps it exact and
/// platform-independent.
int64_t budgetFor(size_t NumOps) {
  int64_t N = static_cast<int64_t>(NumOps);
  if (N <= BudgetRefOps)
    return BudgetFactor * N + 64;
  int64_t X = BudgetRefOps * N, R = 0;
  for (int64_t Bit = int64_t(1) << 31; Bit > 0; Bit >>= 1) {
    int64_t T = R + Bit;
    if (T * T <= X)
      R = T;
  }
  return BudgetFactor * R + 64; // floor(sqrt(Ref * N)); continuous at Ref
}

/// The placement loop's indexed ready structure: one bit per priority
/// rank, set while the node holding that rank is unplaced. Selecting
/// the highest-priority unplaced node is a find-first-set over the
/// word array (O(N/64) worst case, first-word in the common case)
/// instead of an O(N) rescan of the priority list.
/// Operates on a caller-owned word buffer so sweeps reuse the storage.
class RankReadySet {
  std::vector<uint64_t> &Words;

public:
  RankReadySet(std::vector<uint64_t> &Storage, unsigned N) : Words(Storage) {
    Words.assign((N + 63) / 64, 0);
    for (unsigned R = 0; R < N; ++R)
      Words[R / 64] |= uint64_t(1) << (R % 64);
  }

  void insert(unsigned Rank) { Words[Rank / 64] |= uint64_t(1) << (Rank % 64); }
  void erase(unsigned Rank) { Words[Rank / 64] &= ~(uint64_t(1) << (Rank % 64)); }

  /// Lowest set rank, or -1 when all nodes are placed.
  int first() const {
    for (size_t W = 0; W < Words.size(); ++W)
      if (Words[W])
        return static_cast<int>(W * 64 +
                                static_cast<unsigned>(__builtin_ctzll(Words[W])));
    return -1;
  }
};

/// Sweep cap for the stage-compaction fixpoint. Each sweep only moves
/// slots later (bounded by MaxSlotMultiple * II), so the fixpoint
/// exists; chains of cross-iteration edges resolve one link per sweep,
/// and real loops settle in 2-3.
constexpr unsigned CompactMaxPasses = 8;

/// Occupant of (Domain, Kind, Slot) with the largest rank (the
/// lowest-priority victim of a forced placement), without materializing
/// the occupant list. Identical choice to scanning occupants() in unit
/// order and keeping the strictly-larger rank.
int victimByRank(ModuloReservationTable &MRT, unsigned Domain, FUKind Kind,
                 int64_t Slot, const std::vector<unsigned> &Rank) {
  int Victim = -1;
  unsigned Units = MRT.units(Domain, Kind);
  for (unsigned U = 0; U < Units; ++U) {
    int Occ = MRT.occupant(Domain, Kind, Slot, U);
    if (Occ < 0)
      continue;
    if (Victim < 0 || Rank[static_cast<unsigned>(Occ)] >
                          Rank[static_cast<unsigned>(Victim)])
      Victim = Occ;
  }
  return Victim;
}

} // namespace

SchedulerResult HeteroModuloScheduler::run(const TickGraph *Ticks,
                                           SchedulerScratch *Scratch,
                                           obs::Tracer *Trace) {
  obs::Span Sp(Trace, "sched.place");
  SchedulerScratch Local;
  SchedulerScratch &SS = Scratch ? *Scratch : Local;
  SchedulerResult R;
  std::optional<TickGraph> Own;
  if (const TickGraph *T = TickGraph::resolve(Ticks, PG, Plan, Own))
    R = runTicks(*T, SS);
  else
    R.FailureReason = PlanGrid::NoGridReason;
  if (Sp.active()) {
    Sp.arg("placements", static_cast<int64_t>(R.Placements));
    Sp.arg("ejections", static_cast<int64_t>(R.Ejections));
    Sp.arg("budget_used", static_cast<int64_t>(R.BudgetUsed));
    Sp.arg("ok", R.Success ? 1 : 0);
  }
  return R;
}

SchedulerResult HeteroModuloScheduler::runTicks(const TickGraph &T,
                                                SchedulerScratch &SS) {
  SchedulerResult Result;
  unsigned N = PG.size();

  if (!T.computeAsapTicksInto(SS.Asap)) {
    Result.FailureReason = "recurrence infeasible at this IT";
    return Result;
  }
  const std::vector<int64_t> &Asap = SS.Asap;

  // Approximate ALAP against the ASAP horizon using the no-sync timing
  // rule backwards (priorities only; correctness never depends on it).
  T.computeAlapTicksInto(Asap, SS.Alap);
  const std::vector<int64_t> &Alap = SS.Alap;

  std::vector<SchedulerScratch::TickEntry> &Order = SS.TickOrder;
  Order.resize(N);
  for (unsigned I = 0; I < N; ++I)
    Order[I] = {I, Alap[I] - Asap[I], Asap[I]};
  std::sort(Order.begin(), Order.end(),
            [](const SchedulerScratch::TickEntry &A,
               const SchedulerScratch::TickEntry &B) {
              if (A.Slack != B.Slack)
                return A.Slack < B.Slack;
              if (A.Asap != B.Asap)
                return A.Asap < B.Asap;
              return A.Node < B.Node;
            });
  std::vector<unsigned> &Rank = SS.Rank;
  std::vector<unsigned> &NodeOfRank = SS.NodeOfRank;
  Rank.resize(N);
  NodeOfRank.resize(N);
  for (unsigned I = 0; I < N; ++I) {
    Rank[Order[I].Node] = I;
    NodeOfRank[I] = Order[I].Node;
  }

  SS.MRT.reset(Machine, Plan);
  ModuloReservationTable &MRT = SS.MRT;
  SS.Placed.assign(N, 0);
  std::vector<uint8_t> &Placed = SS.Placed;
  SS.Slot.assign(N, 0);
  std::vector<int64_t> &Slot = SS.Slot;
  SS.Unit.assign(N, 0);
  std::vector<unsigned> &Unit = SS.Unit;
  SS.LastSlot.assign(N, INT64_MIN);
  std::vector<int64_t> &LastSlot = SS.LastSlot;
  RankReadySet Ready(SS.ReadyWords, N);

  auto startTicks = [&](unsigned Node) {
    return T.startTicks(Node, Slot[Node]);
  };

  auto eject = [&](unsigned Node) {
    assert(Placed[Node] && "ejecting an unplaced node");
    MRT.release(PG.node(Node).Domain, PG.node(Node).Kind, Slot[Node],
                Unit[Node], Node);
    Placed[Node] = 0;
    Ready.insert(Rank[Node]);
    ++Result.Ejections;
  };

  int64_t Budget = budgetFor(N);
  unsigned NumPlaced = 0;

  while (NumPlaced < N) {
    if (--Budget < 0) {
      Result.FailureReason = "scheduling budget exhausted";
      return Result;
    }
    ++Result.BudgetUsed;
    // Highest-priority unplaced node, from the rank-indexed ready set.
    int FirstRank = Ready.first();
    assert(FirstRank >= 0 && "no unplaced node despite NumPlaced < N");
    unsigned U = NodeOfRank[static_cast<unsigned>(FirstRank)];

    // Earliest slot from ASAP and placed predecessors.
    int64_t Earliest = Asap[U];
    for (unsigned EIx : PG.inEdges(U)) {
      const PGEdge &E = PG.edge(EIx);
      if (!Placed[E.Src])
        continue;
      Earliest = std::max(Earliest, T.edgeStartBound(EIx, startTicks(E.Src)));
    }
    int64_t E0 = ceilDivTick(Earliest, T.periodTicks(U));
    if (E0 < 0)
      E0 = 0;
    if (LastSlot[U] != INT64_MIN && E0 <= LastSlot[U])
      E0 = LastSlot[U] + 1; // Rau's progress rule on re-placement

    int64_t II = T.iiOf(U);
    if (E0 > MaxSlotMultiple * II) {
      Result.FailureReason = "slot bound exceeded (ejection runaway)";
      return Result;
    }

    const PGNode &Node = PG.node(U);
    // First resource-feasible slot in the II-slot window above E0 (the
    // modulo-free scan; identical choice to probing slot by slot).
    int64_t S = E0;
    int GotUnit = MRT.reserveFirstFree(Node.Domain, Node.Kind, E0, U, S);
    if (GotUnit < 0) {
      // Force placement at E0: evict one occupant of the cell (the
      // lowest-priority one, i.e. largest rank), scanning the cell's
      // units in place instead of materializing an occupant list.
      S = E0;
      int Victim = victimByRank(MRT, Node.Domain, Node.Kind, S, Rank);
      assert(Victim >= 0 && "no free unit yet no occupants");
      eject(static_cast<unsigned>(Victim));
      --NumPlaced;
      GotUnit = MRT.tryReserve(Node.Domain, Node.Kind, S, U);
      assert(GotUnit >= 0 && "reservation failed after eviction");
    }

    Placed[U] = 1;
    Slot[U] = S;
    Unit[U] = static_cast<unsigned>(GotUnit);
    LastSlot[U] = S;
    Ready.erase(Rank[U]);
    ++NumPlaced;
    ++Result.Placements;

    // Eject placed successors whose dependence is now violated.
    for (unsigned EIx : PG.outEdges(U)) {
      const PGEdge &E = PG.edge(EIx);
      if (!Placed[E.Dst] || E.Dst == U)
        continue;
      int64_t Bound = T.edgeStartBound(EIx, startTicks(U));
      if (startTicks(E.Dst) < Bound) {
        eject(E.Dst);
        --NumPlaced;
      }
    }
  }

  Result.Success = true;
  Result.Sched.Plan = Plan;
  Result.Sched.Nodes.assign(N, ScheduledNode());
  for (unsigned I = 0; I < N; ++I) {
    Result.Sched.Nodes[I].Placed = true;
    Result.Sched.Nodes[I].Slot = Slot[I];
    Result.Sched.Nodes[I].Unit = Unit[I];
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Stage compaction (register-lifetime salvage)
//===----------------------------------------------------------------------===//

unsigned hcvliw::compactScheduleLifetimes(const TickGraph &T, Schedule &S,
                                          SchedulerScratch *Scratch) {
  SchedulerScratch Local;
  SchedulerScratch &SS = Scratch ? *Scratch : Local;
  const PartitionedGraph &PG = T.graph();
  unsigned N = PG.size();
  std::vector<int64_t> &Slots = SS.Slot;
  Slots.resize(N);
  for (unsigned I = 0; I < N; ++I)
    Slots[I] = S.Nodes[I].Slot;

  // Whether every non-self out-edge of U still holds with U at CandSlot.
  auto EdgesHold = [&](unsigned U, int64_t CandSlot) {
    int64_t Src = T.startTicks(U, CandSlot);
    for (unsigned EIx : PG.outEdges(U)) {
      const PGEdge &E = PG.edge(EIx);
      if (E.Dst == U)
        continue;
      if (T.startTicks(E.Dst, Slots[E.Dst]) < T.edgeStartBound(EIx, Src))
        return false;
    }
    return true;
  };

  // In decreasing start order — so each consumer settles before its
  // producers slide up against it — move every node with a non-self
  // out-edge later by the largest whole-II stage multiple its out-edge
  // bounds admit. The modulo reservation is untouched (same slot mod
  // II, same unit) and in-edge bounds only get slacker, so the schedule
  // stays valid by construction. Cross-iteration consumers can start
  // *below* their producer and only open room once moved themselves,
  // so the sweep repeats to a fixpoint (slots grow monotonically toward
  // the MaxSlotMultiple bound).
  std::vector<SchedulerScratch::TickEntry> &COrder = SS.TickOrder;
  unsigned Moved = 0;
  for (unsigned Pass = 0; Pass < CompactMaxPasses; ++Pass) {
    COrder.resize(N);
    for (unsigned I = 0; I < N; ++I)
      COrder[I] = {I, 0, T.startTicks(I, Slots[I])};
    std::sort(COrder.begin(), COrder.end(),
              [](const SchedulerScratch::TickEntry &A,
                 const SchedulerScratch::TickEntry &B) {
                if (A.Asap != B.Asap)
                  return B.Asap < A.Asap;
                return A.Node < B.Node;
              });
    bool AnyMove = false;
    for (const auto &Ent : COrder) {
      unsigned U = Ent.Node;
      bool HasOut = false;
      for (unsigned EIx : PG.outEdges(U))
        if (PG.edge(EIx).Dst != U) {
          HasOut = true;
          break;
        }
      if (!HasOut)
        continue; // sinks and self-cycle-only nodes stay put
      int64_t II = T.iiOf(U);
      int64_t KCap = (MaxSlotMultiple * II - Slots[U]) / II;
      if (KCap <= 0)
        continue;
      // Largest feasible stage count; binary search is exact because
      // every out-edge bound is monotone in the source start.
      int64_t Lo = 0, Hi = KCap;
      while (Lo < Hi) {
        int64_t Mid = Lo + (Hi - Lo + 1) / 2;
        if (EdgesHold(U, Slots[U] + Mid * II))
          Lo = Mid;
        else
          Hi = Mid - 1;
      }
      if (Lo > 0) {
        Slots[U] += Lo * II;
        AnyMove = true;
        ++Moved;
      }
    }
    if (!AnyMove)
      break;
  }

  for (unsigned I = 0; I < N; ++I)
    S.Nodes[I].Slot = Slots[I];
  return Moved;
}
