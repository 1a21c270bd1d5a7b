//===- sched/PseudoScheduler.cpp - Fast schedule estimates ------------------===//

#include "sched/PseudoScheduler.h"
#include "mcd/SyncModel.h"

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

/// In-order sweeps that can run before the fixpoint is given to the
/// waves: enough for loop-carried edges that bind once or twice.
constexpr unsigned MaxAsapSweeps = 4;

/// The ASAP fixpoint as sweeps in node order. Right after node V come
/// V's copies (their only in-edge is V's), then V's out-edges; a
/// cross-cluster value edge leaves through its copy. Only a relaxation
/// that raises a node at or before V (a loop-carried edge) can leave an
/// edge unsatisfied, so a sweep that raises nothing backward ends at a
/// fixpoint, and a fixpoint reached from all-zero starts by monotone
/// relaxations is the least one. Hops[X] is the edge count of the walk
/// whose relaxation set X's start. After wave w the FIFO waves have
/// applied every walk of at most w + 1 edges, so with every hop count
/// at most Total they reach the same fixpoint by wave Total: the
/// values, the iteration length and the recurrence verdict are the
/// waves'. Writes the latest completion to \p End. Returns false,
/// leaving the answer to asapWaves, when the sweeps cannot certify it.
bool asapSweeps(PseudoScratch &S, const DDG &G, const MachineDescription &M,
                const std::vector<unsigned> &NodeLat,
                const std::vector<unsigned> &ClusterOf, unsigned Total,
                int64_t &End) {
  const PlanGrid &Grid = S.Grid;
  const unsigned N = G.size();
  const unsigned NC = M.numClusters();
  const int64_t BusP = Grid.busPeriodTicks();
  const int64_t ITTicks = Grid.itTicks();
  const int64_t CopyLatTicks = static_cast<int64_t>(M.BusLatency) * BusP;
  std::vector<int64_t> &Start = S.Asap;
  std::vector<unsigned> &Hops = S.Hops;
  Start.assign(Total, 0);
  Hops.assign(Total, 0);
  S.SweepClusters.resize(NC);
  PseudoScratch::SweepCluster *Cl = S.SweepClusters.data();
  for (unsigned C = 0; C < NC; ++C) {
    Cl[C].Period = Grid.clusterPeriodTicks(C);
    Cl[C].OffGrid = ITTicks % Cl[C].Period != 0;
  }

  for (unsigned Sweep = 1; Sweep <= MaxAsapSweeps; ++Sweep) {
    S.LastSweeps = Sweep;
    // A sweep that raises nothing backward sees every start and hop
    // count final when it reaches it, so it can take their maxima.
    bool Backward = false;
    unsigned MaxHops = 0;
    End = 0;
    for (unsigned V = 0; V < N; ++V) {
      const unsigned CV = ClusterOf[V];
      const int64_t PV = Cl[CV].Period;
      const int64_t StartV = Start[V];
      const unsigned HopV = Hops[V] + 1;
      const int64_t Ready = StartV + static_cast<int64_t>(NodeLat[V]) * PV;
      MaxHops = std::max(MaxHops, Hops[V]);
      End = std::max(End, Ready);
      const int *Row = &S.CopySlots[static_cast<size_t>(V) * NC];
      const int64_t CopyStart = crossDomainArrival(Ready, PV, BusP);
      for (unsigned C = 0; C < NC; ++C) {
        if (Row[C] < 0)
          continue;
        const unsigned Copy = static_cast<unsigned>(Row[C]);
        // Starts are slot-aligned; a copy's bound already is (the
        // arrival rule lands on a bus tick).
        if (Start[Copy] < CopyStart) {
          Start[Copy] = CopyStart;
          Hops[Copy] = HopV;
        }
        MaxHops = std::max(MaxHops, Hops[Copy]);
        End = std::max(End, Start[Copy] + CopyLatTicks);
        Cl[C].Arrive =
            crossDomainArrival(Start[Copy] + CopyLatTicks, BusP, Cl[C].Period);
        Cl[C].ArriveHops = Hops[Copy] + 1;
      }
      for (unsigned EIx : G.outEdges(V)) {
        const DDG::Edge &E = G.edge(EIx);
        const unsigned CD = ClusterOf[E.Dst];
        int64_t Bound;
        unsigned Hop;
        if (isValueCarrying(E.Kind) && CD != CV) {
          Bound = Cl[CD].Arrive;
          Hop = Cl[CD].ArriveHops;
        } else {
          Bound = crossDomainArrival(
              StartV + static_cast<int64_t>(edgeLatency(E, NodeLat)) * PV, PV,
              Cl[CD].Period);
          Hop = HopV;
        }
        // Every arrival lands on the consumer's tick; only a
        // loop-carried bound under an IT off that tick grid needs
        // rounding up to it.
        const bool Round = E.Distance != 0 && Cl[CD].OffGrid;
        Bound -= static_cast<int64_t>(E.Distance) * ITTicks;
        if (Start[E.Dst] < Bound) {
          Start[E.Dst] = Round ? alignUpToTick(Bound, Cl[CD].Period) : Bound;
          Hops[E.Dst] = Hop;
          Backward |= E.Dst <= V;
        }
      }
    }
    if (!Backward)
      return MaxHops <= Total;
  }
  return false;
}

/// The TickGraph ASAP fixpoint (a FIFO worklist in waves; still
/// changing in wave Total is the recurrence verdict), with each node's
/// out-edges in the order the materialized graph lists them: a node's
/// DDG out-edges in CSR order, where the edge that created a copy
/// stands for the node -> copy edge and later edges to that copy are
/// dropped; a copy's out-edges are its value's value edges into its
/// cluster, in CSR order. On convergence writes the latest completion
/// to \p End.
bool asapWaves(PseudoScratch &S, const DDG &G, const MachineDescription &M,
               const std::vector<unsigned> &NodeLat,
               const std::vector<unsigned> &ClusterOf, unsigned Total,
               int64_t &End) {
  const PlanGrid &Grid = S.Grid;
  const unsigned N = G.size();
  const unsigned NC = M.numClusters();
  const int64_t BusP = Grid.busPeriodTicks();
  const int64_t ITTicks = Grid.itTicks();
  const int64_t CopyLatTicks = static_cast<int64_t>(M.BusLatency) * BusP;
  std::vector<int64_t> &Start = S.Asap;
  Start.assign(Total, 0);
  S.WaveCur.resize(Total);
  for (unsigned I = 0; I < Total; ++I)
    S.WaveCur[I] = I;
  S.InWave.assign(Total, 0);
  S.WaveNext.clear();
  auto relax = [&](unsigned Dst, int64_t Bound, int64_t DstPeriod) {
    if (Start[Dst] >= Bound)
      return;
    // Starts are slot-aligned: round the bound up to the domain tick.
    int64_t Aligned = alignUpToTick(Bound, DstPeriod);
    if (Start[Dst] < Aligned) {
      Start[Dst] = Aligned;
      if (!S.InWave[Dst]) {
        S.InWave[Dst] = 1;
        S.WaveNext.push_back(Dst);
      }
    }
  };
  for (unsigned Wave = 0; Wave <= Total; ++Wave) {
    S.LastWaves = Wave + 1;
    for (unsigned V : S.WaveCur) {
      S.InWave[V] = 0;
      if (V < N) {
        const unsigned CV = ClusterOf[V];
        const int64_t PV = Grid.clusterPeriodTicks(CV);
        for (unsigned EIx : G.outEdges(V)) {
          const DDG::Edge &E = G.edge(EIx);
          const unsigned CD = ClusterOf[E.Dst];
          if (isValueCarrying(E.Kind) && CD != CV) {
            unsigned Copy = static_cast<unsigned>(
                S.CopySlots[static_cast<size_t>(V) * NC + CD]);
            if (S.CopyEdge[Copy - N] != EIx)
              continue;
            int64_t Ready =
                Start[V] + static_cast<int64_t>(NodeLat[V]) * PV;
            relax(Copy, crossDomainArrival(Ready, PV, BusP), BusP);
            continue;
          }
          const int64_t PD = Grid.clusterPeriodTicks(CD);
          int64_t Ready =
              Start[V] + static_cast<int64_t>(edgeLatency(E, NodeLat)) * PV;
          relax(E.Dst,
                crossDomainArrival(Ready, PV, PD) -
                    static_cast<int64_t>(E.Distance) * ITTicks,
                PD);
        }
        continue;
      }
      const unsigned Value = S.CopyValue[V - N];
      const unsigned To = S.CopyCluster[V - N];
      const int64_t PD = Grid.clusterPeriodTicks(To);
      const int64_t Arrive =
          crossDomainArrival(Start[V] + CopyLatTicks, BusP, PD);
      for (unsigned EIx : G.outEdges(Value)) {
        const DDG::Edge &E = G.edge(EIx);
        if (isValueCarrying(E.Kind) && ClusterOf[E.Dst] == To)
          relax(E.Dst, Arrive - static_cast<int64_t>(E.Distance) * ITTicks,
                PD);
      }
    }
    if (S.WaveNext.empty()) {
      End = 0;
      for (unsigned V = 0; V < N; ++V) {
        const int64_t PV = Grid.clusterPeriodTicks(ClusterOf[V]);
        End = std::max(End, Start[V] + static_cast<int64_t>(NodeLat[V]) * PV);
      }
      for (unsigned V = N; V < Total; ++V)
        End = std::max(End, Start[V] + CopyLatTicks);
      return true;
    }
    S.WaveCur.swap(S.WaveNext);
    S.WaveNext.clear();
  }
  return false;
}

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
  S.LastSweeps = S.LastWaves = 0;

  // Copies, in the order PartitionedGraph::buildInto creates them: the
  // first cross-cluster value edge of each (value, cluster) pair, in
  // DDG edge order, creates copy N, N+1, ...
  S.CopySlots.assign(static_cast<size_t>(N) * NC, -1);
  S.CopyValue.clear();
  S.CopyCluster.clear();
  S.CopyEdge.clear();
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
    S.CopyEdge.push_back(EIx);
  }
  const unsigned Total = N + static_cast<unsigned>(S.CopyValue.size());

  int64_t End = 0;
  if (!asapSweeps(S, G, M, NodeLat, ClusterOf, Total, End) &&
      !asapWaves(S, G, M, NodeLat, ClusterOf, Total, End))
    return false;
  ItLengthNs = Grid.toNs(End);
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
