//===- sched/PseudoScheduler.cpp - Fast schedule estimates ------------------===//

#include "sched/PseudoScheduler.h"

#include <algorithm>
#include <cassert>
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
      unsigned Cnt = T.Counts[C * NumFUKinds + K];
      if (static_cast<FUKind>(K) == FUKind::Bus || Cnt == 0)
        continue;
      int64_t Slots = Cap[C * NumFUKinds + K];
      if (Slots <= 0) {
        flag("cluster capacity exceeded", Cnt);
        continue;
      }
      if (static_cast<int64_t>(Cnt) > Slots)
        flag("cluster capacity exceeded",
             (static_cast<double>(Cnt) - static_cast<double>(Slots)) /
                 static_cast<double>(Slots));
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

void hcvliw::estimatePseudoScheduleInto(PseudoSchedule &PS, const Loop &L,
                                        const DDG &G,
                                        const MachineDescription &M,
                                        const MachinePlan &Plan,
                                        const Partition &P,
                                        PseudoScratch *Scratch) {
  PseudoScratch Local;
  PseudoScratch &S = Scratch ? *Scratch : Local;

  // Reset every field (PS may be a reused scratch result).
  PS.Comms = 0;
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

  // Materialize copies; each lands in the cluster of its consumers.
  M.Isa.nodeLatenciesInto(S.NodeLat, L);
  PartitionedGraph::buildInto(S.PG, L, G, M.Isa, P, NC, M.BusLatency,
                              &S.CopySlots, &S.NodeLat);
  const PartitionedGraph &PG = S.PG;
  T.Comms = PS.Comms = PG.numCopies();
  for (unsigned N = G.size(); N < PG.size(); ++N) {
    for (unsigned EIx : PG.outEdges(N)) {
      unsigned Dst = PG.node(PG.edge(EIx).Dst).Domain;
      if (Dst != PG.busDomain()) {
        ++T.CopiesIn[Dst];
        break;
      }
    }
  }

  // Recurrence feasibility + it_length from the exact ASAP fixpoint on
  // the plan's integer tick grid (this estimate runs once per
  // refinement candidate, so it is the partitioner's hottest clock
  // math).
  if (!TickGraph::buildInto(S.Ticks, PG, Plan))
    throw std::invalid_argument(std::string("pseudo-schedule: ") +
                                PlanGrid::NoGridReason);
  const TickGraph &TG = S.Ticks;
  bool RecurrenceInfeasible = false;
  if (!TG.computeAsapTicksInto(S.Asap)) {
    RecurrenceInfeasible = true;
  } else {
    int64_t End = 0;
    for (unsigned N = 0; N < PG.size(); ++N)
      End = std::max(End, S.Asap[N] +
                              static_cast<int64_t>(PG.node(N).LatencyCycles) *
                                  TG.periodTicks(N));
    PS.ItLengthNs = TG.grid().toNs(End);
  }

  for (unsigned C = 0; C < NC; ++C)
    PS.LifetimeProxy[C] = lifetimeProxy(T, Plan, C);
  slotCapacityInto(S.Cap, M, Plan);
  PS.Overflow = 0;
  const char *Reason = gradePartitionBudgets(M, Plan, S.Cap, T,
                                             RecurrenceInfeasible, PS.Overflow);
  PS.Reason = Reason ? Reason : "";
  PS.Feasible = Reason == nullptr;
}
