//===- sched/PseudoScheduler.cpp - Fast schedule estimates ------------------===//

#include "sched/PseudoScheduler.h"
#include "mcd/SyncModel.h"
#include "sched/AsapFixpoint.h"

#include <algorithm>
#include <stdexcept>

using namespace hcvliw;

PseudoSchedule hcvliw::estimatePseudoSchedule(const Loop &L, const DDG &G,
                                              const MachineDescription &M,
                                              const MachinePlan &Plan,
                                              const Partition &P,
                                              PseudoScratch *Scratch) {
  PseudoSchedule PS;
  estimatePseudoScheduleInto(PS, L, G, M, Plan, P, Scratch);
  return PS;
}

void PartitionTally::clear(unsigned NumClusters) {
  Counts.assign(static_cast<size_t>(NumClusters) * NumFUKinds, 0);
  Comms = 0;
  CopiesIn.assign(NumClusters, 0);
  Defs.assign(NumClusters, 0);
  DefLatency.assign(NumClusters, 0);
}

namespace {

/// Sum-of-lifetimes register proxy of cluster \p C, in cluster cycles:
/// each value lives its producer latency plus a spread of half an II
/// capped at a few cycles, and each copy landing in \p C adds that
/// spread plus one cycle for its landing register.
int64_t lifetimeProxy(const PartitionTally &T, const MachinePlan &Plan,
                      unsigned C) {
  // The spread term is half an II capped at SpreadCapCycles: the modulo
  // scheduler places consumers right above their producers, so real
  // lifetimes do not grow with the II — an uncapped II/2 term would
  // make any cluster holding more than 2x its register count infeasible
  // at *every* II (the big-loop ceiling), which the exact
  // post-scheduling pressure check contradicts.
  constexpr int64_t SpreadCapCycles = 4;
  int64_t Spread = std::min<int64_t>(Plan.Clusters[C].II / 2, SpreadCapCycles);
  return T.DefLatency[C] + static_cast<int64_t>(T.Defs[C]) * Spread +
         static_cast<int64_t>(T.CopiesIn[C]) * (Spread + 1);
}

} // namespace

void hcvliw::slotCapacityInto(std::vector<int64_t> &Cap,
                              const MachineDescription &M,
                              const MachinePlan &Plan) {
  unsigned NC = M.numClusters();
  Cap.resize(static_cast<size_t>(NC) * NumFUKinds);
  for (unsigned C = 0; C < NC; ++C)
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Cap[C * NumFUKinds + K] =
          Plan.Clusters[C].II *
          static_cast<int64_t>(M.Clusters[C].fuCount(static_cast<FUKind>(K)));
}

const char *hcvliw::gradePartitionBudgets(const MachineDescription &M,
                                          const MachinePlan &Plan,
                                          const std::vector<int64_t> &Cap,
                                          const PartitionTally &T,
                                          bool RecurrenceInfeasible,
                                          double &Overflow) {
  const char *Reason = nullptr;
  auto flag = [&](const char *Why, double Amount) {
    if (!Reason)
      Reason = Why;
    Overflow += Amount;
  };

  unsigned NC = M.numClusters();
  for (unsigned C = 0; C < NC; ++C)
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      if (static_cast<FUKind>(K) == FUKind::Bus)
        continue;
      double Over = capacityOverflow(T.Counts[C * NumFUKinds + K],
                                     Cap[C * NumFUKinds + K]);
      if (Over > 0)
        flag("cluster capacity exceeded", Over);
    }

  int64_t BusSlots = Plan.Bus.II * static_cast<int64_t>(M.Buses);
  if (static_cast<int64_t>(T.Comms) > BusSlots)
    flag("bus capacity exceeded",
         (static_cast<double>(T.Comms) - static_cast<double>(BusSlots)) /
             static_cast<double>(BusSlots));

  // No usable gradient for an unsatisfiable cycle: dominate every
  // capacity violation so refinement prefers fixing the recurrence.
  if (RecurrenceInfeasible)
    flag("recurrence infeasible", 1e3);

  for (unsigned C = 0; C < NC; ++C) {
    int64_t Proxy = lifetimeProxy(T, Plan, C);
    int64_t Budget = static_cast<int64_t>(M.Clusters[C].Registers) *
                     Plan.Clusters[C].II;
    if (Budget > 0 && Proxy > Budget)
      flag("register lifetime budget exceeded",
           (static_cast<double>(Proxy) - static_cast<double>(Budget)) /
               static_cast<double>(Budget));
  }
  return Reason;
}

namespace {

/// The kernel's step of the ASAP relaxation (sched/AsapFixpoint):
/// visiting node V also visits V's copies, since their only in-edge is
/// V's, then relaxes V's out-edges. A cross-cluster value edge leaves
/// through its copy, so a path costs one sweep however many copies it
/// crosses. End tracks the latest completion: starts only grow, and
/// the last sweep sees each one final, so a running maximum over every
/// visit is the fixpoint's.
struct KernelStep {
  PseudoScratch &S;
  const DDG &G;
  // Raw arrays, not vector references, so their loads stay out of the
  // hot loop.
  const unsigned *NodeLat, *ClusterOf;
  const int *CopySlots;
  PseudoScratch::SweepCluster *Cl;
  const unsigned NC;
  const int64_t BusPeriod, ITLength, CopyLatency; ///< in ticks
  int64_t End = 0;

  void visit(AsapSweep &Sw, unsigned V) {
    // Held in locals: a raise stores through an int64 pointer, after
    // which the compiler must reload any int64 member.
    const int64_t BusP = BusPeriod, ITTicks = ITLength;
    const int64_t CopyLatTicks = CopyLatency;
    const unsigned CV = ClusterOf[V];
    const int64_t PV = Cl[CV].Period;
    const int64_t StartV = Sw.Start[V];
    const uint64_t DepthV = Sw.Depth[V] + 1;
    const int64_t Ready = StartV + static_cast<int64_t>(NodeLat[V]) * PV;
    End = std::max(End, Ready);
    const int *Row = &CopySlots[static_cast<size_t>(V) * NC];
    const int64_t CopyStart = crossDomainArrival(Ready, PV, BusP);
    for (unsigned C = 0; C < NC; ++C) {
      if (Row[C] < 0)
        continue;
      const unsigned Copy = static_cast<unsigned>(Row[C]);
      // The arrival rule lands a copy on a bus tick.
      Sw.raise(Copy, CopyStart, DepthV, false);
      End = std::max(End, Sw.Start[Copy] + CopyLatTicks);
      Cl[C].Arrive = crossDomainArrival(Sw.Start[Copy] + CopyLatTicks, BusP,
                                        Cl[C].Period);
      Cl[C].ArriveDepth = Sw.Depth[Copy] + 1;
    }
    for (unsigned EIx : G.outEdges(V)) {
      const DDG::Edge &E = G.edge(EIx);
      const unsigned CD = ClusterOf[E.Dst];
      int64_t Bound;
      uint64_t Depth;
      if (isValueCarrying(E.Kind) && CD != CV) {
        Bound = Cl[CD].Arrive;
        Depth = Cl[CD].ArriveDepth;
      } else {
        Bound = crossDomainArrival(
            StartV + static_cast<int64_t>(edgeLatency(E, NodeLat)) * PV, PV,
            Cl[CD].Period);
        Depth = DepthV;
      }
      // Every arrival lands on the consumer's tick; only a loop-carried
      // bound under an IT off that tick grid needs rounding up to it.
      Bound -= static_cast<int64_t>(E.Distance) * ITTicks;
      if (Sw.Start[E.Dst] < Bound)
        Sw.raise(E.Dst,
                 E.Distance != 0 && Cl[CD].OffGrid
                     ? alignUpToTick(Bound, Cl[CD].Period)
                     : Bound,
                 Depth, E.Dst <= V);
    }
  }

  /// D: H / P residues per node, and H / P_bus per copy.
  uint64_t depthLimit() const {
    const int64_t H = S.Grid.hyperperiodTicks();
    const unsigned N = G.size();
    uint64_t D = static_cast<uint64_t>(S.CopyValue.size()) *
                 static_cast<uint64_t>(H / BusPeriod);
    for (unsigned V = 0; V < N; ++V)
      D += static_cast<uint64_t>(
          H / Cl[ClusterOf[V]].Period);
    return D;
  }
};

} // namespace

bool hcvliw::pseudoScheduleAsap(PseudoScratch &S, const DDG &G,
                                const MachineDescription &M,
                                const MachinePlan &Plan,
                                const std::vector<unsigned> &NodeLat,
                                const std::vector<unsigned> &ClusterOf,
                                Rational &ItLengthNs) {
  PlanGrid::computeInto(S.Grid, Plan);
  if (!S.Grid.valid())
    throw std::invalid_argument(std::string("pseudo-schedule: ") +
                                PlanGrid::NoGridReason);
  const PlanGrid &Grid = S.Grid;
  const unsigned N = G.size();
  const unsigned NC = M.numClusters();

  // Copies, in the order PartitionedGraph::buildInto creates them: the
  // first cross-cluster value edge of each (value, cluster) pair, in
  // DDG edge order, creates copy N, N+1, ...
  S.CopySlots.assign(static_cast<size_t>(N) * NC, -1);
  S.CopyValue.clear();
  S.CopyCluster.clear();
  for (unsigned EIx = 0; EIx < G.numEdges(); ++EIx) {
    const DDG::Edge &E = G.edge(EIx);
    unsigned To = ClusterOf[E.Dst];
    if (!isValueCarrying(E.Kind) || ClusterOf[E.Src] == To)
      continue;
    int &Slot = S.CopySlots[static_cast<size_t>(E.Src) * NC + To];
    if (Slot >= 0)
      continue;
    Slot = static_cast<int>(N + S.CopyValue.size());
    S.CopyValue.push_back(E.Src);
    S.CopyCluster.push_back(To);
  }
  const unsigned Total = N + static_cast<unsigned>(S.CopyValue.size());

  S.SweepClusters.resize(NC);
  for (unsigned C = 0; C < NC; ++C) {
    PseudoScratch::SweepCluster &Cl = S.SweepClusters[C];
    Cl.Period = Grid.clusterPeriodTicks(C);
    Cl.OffGrid = Grid.itTicks() % Cl.Period != 0;
  }
  const int64_t BusP = Grid.busPeriodTicks();
  KernelStep Step{S, G, NodeLat.data(), ClusterOf.data(), S.CopySlots.data(),
                  S.SweepClusters.data(), NC, BusP, Grid.itTicks(),
                  static_cast<int64_t>(M.BusLatency) * BusP};
  if (!sweepAsapFixpoint(Step, S.Asap, S.Depth, Total, N, S.LastSweeps))
    return false;
  ItLengthNs = Grid.toNs(Step.End);
  return true;
}

void hcvliw::estimatePseudoScheduleInto(PseudoSchedule &PS, const Loop &L,
                                        const DDG &G,
                                        const MachineDescription &M,
                                        const MachinePlan &Plan,
                                        const Partition &P,
                                        PseudoScratch *Scratch) {
  PseudoScratch Local;
  PseudoScratch &S = Scratch ? *Scratch : Local;

  // Reset every field (PS may be a reused scratch result).
  PS.ItLengthNs = Rational(0);
  unsigned NC = M.numClusters();
  PS.WInsPerCluster.assign(NC, 0.0);
  PS.LifetimeProxy.assign(NC, 0);

  // Per-cluster op counts, activity and value definitions.
  PartitionTally &T = S.Tally;
  T.clear(NC);
  for (unsigned I = 0; I < G.size(); ++I) {
    unsigned C = P.cluster(I);
    ++T.Counts[C * NumFUKinds + static_cast<unsigned>(fuKindOf(L.Ops[I].Op))];
    PS.WInsPerCluster[C] += M.Isa.energy(L.Ops[I].Op);
    if (L.Ops[I].definesValue()) {
      ++T.Defs[C];
      T.DefLatency[C] += M.Isa.latency(L.Ops[I].Op);
    }
  }

  // Recurrence feasibility + it_length from the exact ASAP fixpoint on
  // the plan's integer tick grid; the copies it materializes land in
  // the cluster of their consumers.
  M.Isa.nodeLatenciesInto(S.NodeLat, L);
  bool RecurrenceInfeasible = !pseudoScheduleAsap(
      S, G, M, Plan, S.NodeLat, P.ClusterOf, PS.ItLengthNs);
  T.Comms = PS.Comms = static_cast<unsigned>(S.CopyCluster.size());
  for (unsigned To : S.CopyCluster)
    ++T.CopiesIn[To];

  for (unsigned C = 0; C < NC; ++C)
    PS.LifetimeProxy[C] = lifetimeProxy(T, Plan, C);
  slotCapacityInto(S.Cap, M, Plan);
  PS.Overflow = 0;
  const char *Reason = gradePartitionBudgets(M, Plan, S.Cap, T,
                                             RecurrenceInfeasible, PS.Overflow);
  PS.Reason = Reason ? Reason : "";
  PS.Feasible = Reason == nullptr;
}
