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

void PseudoEdgeTable::build(const Loop &L, const DDG &G,
                            const IsaTable &Isa) {
  Isa.nodeLatenciesInto(NodeLat, L);
  const unsigned N = G.size();
  OutStart.resize(N + 1);
  Out.resize(G.numEdges());
  unsigned K = 0;
  for (unsigned V = 0; V < N; ++V) {
    OutStart[V] = K;
    for (unsigned EIx : G.outEdges(V)) {
      const DDG::Edge &E = G.edge(EIx);
      Out[K++] = {E.Dst, edgeLatency(E, NodeLat), E.Distance,
                  isValueCarrying(E.Kind)};
    }
  }
  OutStart[N] = K;
}

namespace {

/// The kernel's step of the ASAP relaxation (sched/AsapFixpoint):
/// visiting node V relaxes V's out-edges. A cross-cluster value edge
/// leaves through V's copy, whose start is a function of V's alone:
/// the first such edge derives the copy's completion on the bus, and
/// each edge its consumer cluster's arrival from that. Starts only
/// grow, so that completion is the latest the copy ever had. End
/// tracks the latest completion of a node or a copy: the last sweep
/// sees each one final, so a running maximum over every visit is the
/// fixpoint's.
struct KernelStep {
  // Raw arrays, not vector references, so their loads stay out of the
  // hot loop.
  const PseudoEdgeTable::Edge *Out;
  const unsigned *OutStart, *NodeLat, *ClusterOf;
  const PseudoKernelScratch::SweepCluster *Cl;
  const unsigned N;
  const int64_t BusPeriod, ITLength, CopyLatency, Hyperperiod; ///< ticks
  int64_t End = 0;

  void visit(AsapSweep &Sw, unsigned V) {
    // Held in locals: a raise stores through an int64 pointer, after
    // which the compiler must reload any int64 member.
    const int64_t BusP = BusPeriod, ITTicks = ITLength;
    const unsigned CV = ClusterOf[V];
    const int64_t PV = Cl[CV].Period;
    const int64_t StartV = Sw.Start[V];
    const uint64_t DepthV = Sw.Depth[V] + 1;
    const int64_t Ready = StartV + static_cast<int64_t>(NodeLat[V]) * PV;
    // V's copy lands on a bus tick and completes CopyLatency later.
    bool Copied = false;
    int64_t CopyDone = 0;
    const PseudoEdgeTable::Edge *E = Out + OutStart[V];
    const PseudoEdgeTable::Edge *const EEnd = Out + OutStart[V + 1];
    for (; E != EEnd; ++E) {
      const unsigned CD = ClusterOf[E->Dst];
      const int64_t PD = Cl[CD].Period;
      int64_t Bound;
      if (E->Value && CD != CV) {
        if (!Copied) {
          Copied = true;
          CopyDone = crossDomainArrival(Ready, PV, BusP) + CopyLatency;
        }
        Bound = crossDomainArrival(CopyDone, BusP, PD);
      } else {
        Bound = crossDomainArrival(
            StartV + static_cast<int64_t>(E->Latency) * PV, PV, PD);
      }
      // Every arrival lands on the consumer's tick; only a loop-carried
      // bound under an IT off that tick grid needs rounding up to it.
      Bound -= static_cast<int64_t>(E->Distance) * ITTicks;
      if (Sw.Start[E->Dst] < Bound)
        Sw.raise(E->Dst,
                 E->Distance != 0 && Cl[CD].OffGrid ? alignUpToTick(Bound, PD)
                                                    : Bound,
                 DepthV, E->Dst <= V);
    }
    // A copy completes after its producer's value is ready.
    End = std::max(End, Copied ? CopyDone : Ready);
  }

  /// D: H / P residues per node; copies are no nodes here.
  uint64_t depthLimit() const {
    uint64_t D = 0;
    for (unsigned V = 0; V < N; ++V)
      D += static_cast<uint64_t>(Hyperperiod / Cl[ClusterOf[V]].Period);
    return D;
  }
};

} // namespace

bool hcvliw::pseudoScheduleAsap(PseudoKernelScratch &S,
                                const PseudoEdgeTable &T,
                                const PlanGrid &Grid, unsigned BusLatency,
                                const std::vector<unsigned> &ClusterOf,
                                Rational &ItLengthNs) {
  if (!Grid.valid())
    throw std::invalid_argument(std::string("pseudo-schedule: ") +
                                PlanGrid::NoGridReason);
  const unsigned NC = Grid.numClusters();
  S.SweepClusters.resize(NC);
  for (unsigned C = 0; C < NC; ++C) {
    PseudoKernelScratch::SweepCluster &Cl = S.SweepClusters[C];
    Cl.Period = Grid.clusterPeriodTicks(C);
    Cl.OffGrid = Grid.itTicks() % Cl.Period != 0;
  }
  const int64_t BusP = Grid.busPeriodTicks();
  KernelStep Step{T.Out.data(), T.OutStart.data(), T.NodeLat.data(),
                  ClusterOf.data(), S.SweepClusters.data(), T.size(), BusP,
                  Grid.itTicks(), static_cast<int64_t>(BusLatency) * BusP,
                  Grid.hyperperiodTicks()};
  if (!sweepAsapFixpoint(Step, S.Asap, S.Depth, T.size(), T.size(),
                         S.LastSweeps))
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

  // One copy per (value, consuming cluster) pair, in the cluster of
  // its consumers.
  const unsigned N = G.size();
  S.CopySeen.assign(static_cast<size_t>(N) * NC, 0);
  for (const DDG::Edge &E : G.edges()) {
    const unsigned To = P.cluster(E.Dst);
    if (!isValueCarrying(E.Kind) || P.cluster(E.Src) == To)
      continue;
    uint8_t &Seen = S.CopySeen[static_cast<size_t>(E.Src) * NC + To];
    if (Seen)
      continue;
    Seen = 1;
    ++T.CopiesIn[To];
    ++T.Comms;
  }
  PS.Comms = T.Comms;

  // Recurrence feasibility + it_length from the exact ASAP fixpoint on
  // the plan's integer tick grid.
  PlanGrid::computeInto(S.Grid, Plan);
  S.Edges.build(L, G, M.Isa);
  bool RecurrenceInfeasible =
      !pseudoScheduleAsap(S.Kernel, S.Edges, S.Grid, M.BusLatency,
                          P.ClusterOf, PS.ItLengthNs);

  for (unsigned C = 0; C < NC; ++C)
    PS.LifetimeProxy[C] = lifetimeProxy(T, Plan, C);
  slotCapacityInto(S.Cap, M, Plan);
  PS.Overflow = 0;
  const char *Reason = gradePartitionBudgets(M, Plan, S.Cap, T,
                                             RecurrenceInfeasible, PS.Overflow);
  PS.Reason = Reason ? Reason : "";
  PS.Feasible = Reason == nullptr;
}
