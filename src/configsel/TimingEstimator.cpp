//===- configsel/TimingEstimator.cpp - Section 3.2 timing model -------------===//

#include "configsel/TimingEstimator.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace hcvliw;

namespace {

/// Best-fit-decreasing packing of the loop's DDG components into the
/// clusters' (II * FU) slot capacities. Components are atomic (splitting
/// one costs communications) and a component containing a recurrence
/// needs a cluster whose II accommodates its recMII. This is what makes
/// the Section 3.2 estimate honest about imbalance: raw slot sums
/// over-promise capacity that indivisible lanes cannot use.
bool packComponents(const LoopProfile &LP, const MachineDescription &M,
                    const MachinePlan &Plan, int64_t EffRecMII) {
  if (LP.Components.empty())
    return true;
  // The real partitioner splits a component across clusters when
  // capacity demands it (paying communications); the estimate allows
  // one such split per loop before declaring the IT infeasible.
  unsigned SplitBudget = 1;
  unsigned NC = M.numClusters();
  std::vector<std::vector<int64_t>> Free(NC,
                                         std::vector<int64_t>(NumFUKinds));
  for (unsigned C = 0; C < NC; ++C)
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Free[C][K] = Plan.Clusters[C].II *
                   static_cast<int64_t>(
                       M.Clusters[C].fuCount(static_cast<FUKind>(K)));

  std::vector<unsigned> Order(LP.Components.size());
  for (unsigned I = 0; I < Order.size(); ++I)
    Order[I] = I;
  auto totalSize = [&](unsigned I) {
    unsigned S = 0;
    for (unsigned K = 0; K < NumFUKinds; ++K)
      S += LP.Components[I].FUCounts[K];
    return S;
  };
  std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
    if (LP.Components[A].RecMII != LP.Components[B].RecMII)
      return LP.Components[A].RecMII > LP.Components[B].RecMII;
    return totalSize(A) > totalSize(B);
  });

  for (unsigned I : Order) {
    const LoopComponent &CP = LP.Components[I];
    // The loop's critical component inherits the achievable (profiled)
    // recurrence II rather than the analytic one.
    int64_t CompRecMII =
        CP.RecMII == LP.RecMII ? std::max(CP.RecMII, EffRecMII) : CP.RecMII;
    int Best = -1;
    int64_t BestSlack = 0;
    for (unsigned C = 0; C < NC; ++C) {
      if (Plan.Clusters[C].II < CompRecMII)
        continue;
      bool Fits = true;
      int64_t Slack = 0;
      for (unsigned K = 0; K < NumFUKinds; ++K) {
        int64_t Rem = Free[C][K] - CP.FUCounts[K];
        if (Rem < 0)
          Fits = false;
        Slack += Rem;
      }
      if (!Fits)
        continue;
      if (Best < 0 || Slack < BestSlack) {
        Best = static_cast<int>(C);
        BestSlack = Slack;
      }
    }
    if (Best >= 0) {
      for (unsigned K = 0; K < NumFUKinds; ++K)
        Free[static_cast<unsigned>(Best)][K] -= CP.FUCounts[K];
      continue;
    }

    // The component fits nowhere atomically. Structurally oversized
    // components (too big even for an empty cluster) must be split;
    // otherwise one split per loop is allowed before the IT grows.
    bool FitsEmptyCluster = false;
    for (unsigned C = 0; C < NC && !FitsEmptyCluster; ++C) {
      if (Plan.Clusters[C].II < CompRecMII)
        continue;
      bool Fits = true;
      for (unsigned K = 0; K < NumFUKinds; ++K)
        if (static_cast<int64_t>(CP.FUCounts[K]) >
            Plan.Clusters[C].II *
                static_cast<int64_t>(
                    M.Clusters[C].fuCount(static_cast<FUKind>(K))))
          Fits = false;
      FitsEmptyCluster = Fits;
    }
    if (FitsEmptyCluster) {
      if (SplitBudget == 0)
        return false; // residual-space failure: grow the IT
      --SplitBudget;
    }
    if (CompRecMII > 0) {
      int Host = -1;
      for (unsigned C = 0; C < NC; ++C)
        if (Plan.Clusters[C].II >= CompRecMII &&
            (Host < 0 || Free[C][0] + Free[C][1] + Free[C][2] >
                             Free[static_cast<unsigned>(Host)][0] +
                                 Free[static_cast<unsigned>(Host)][1] +
                                 Free[static_cast<unsigned>(Host)][2]))
          Host = static_cast<int>(C);
      if (Host < 0)
        return false;
    }
    std::vector<int64_t> Need(CP.FUCounts.begin(), CP.FUCounts.end());
    for (unsigned C = 0; C < NC; ++C)
      for (unsigned K = 0; K < NumFUKinds; ++K) {
        int64_t Take = std::min(Need[K], Free[C][K]);
        Need[K] -= Take;
        Free[C][K] -= Take;
      }
    for (unsigned K = 0; K < NumFUKinds; ++K)
      if (Need[K] > 0)
        return false;
  }
  return true;
}

} // namespace

LoopTimingCore hcvliw::estimateLoopTimingCore(const LoopProfile &LP,
                                              const MachineDescription &M,
                                              const HeteroConfig &C,
                                              const FrequencyMenu &Menu) {
  LoopTimingCore E;
  DomainPlanner Planner(M, C, Menu);

  // The achievable recurrence II can exceed the analytic recMII when a
  // zero-slack cycle collides with itself on a functional unit; the
  // reference schedule's II captures that, so recurrence-limited loops
  // use the measured value (profile-driven, in the Section 3 spirit).
  int64_t EffRecMII = LP.RecMII;
  if (LP.RecMII >= LP.ResMII)
    EffRecMII = std::max(EffRecMII, LP.IIHom);

  Rational IT = Planner.computeMIT(EffRecMII, LP.OpCounts);
  constexpr unsigned MaxSteps = 512;
  for (unsigned Step = 0; Step < MaxSteps; ++Step) {
    auto Plan = Planner.planForIT(IT);
    if (Plan && Planner.hasCapacity(*Plan, LP.OpCounts) &&
        packComponents(LP, M, *Plan, EffRecMII)) {
      // Bus slots for the reference schedule's communications.
      bool CommsOK = Plan->Bus.II * static_cast<int64_t>(M.Buses) >=
                     static_cast<int64_t>(LP.PerIter.Comms);
      // Register-lifetime slots for the reference lifetimes.
      int64_t LifetimeSlots = 0;
      for (unsigned Cl = 0; Cl < M.numClusters(); ++Cl)
        LifetimeSlots += Plan->Clusters[Cl].II *
                         static_cast<int64_t>(M.Clusters[Cl].Registers);
      bool LifetimesOK = LifetimeSlots >= LP.SumLifetimesRef;
      if (CommsOK && LifetimesOK) {
        E.Feasible = true;
        E.ITNs = IT;

        double TotalSlots = 0;
        E.ClusterShare.assign(M.numClusters(), 0);
        for (unsigned Cl = 0; Cl < M.numClusters(); ++Cl) {
          double Slots = static_cast<double>(Plan->Clusters[Cl].II) *
                         (M.Clusters[Cl].IntFUs + M.Clusters[Cl].FpFUs +
                          M.Clusters[Cl].MemPorts);
          E.ClusterShare[Cl] = Slots;
          TotalSlots += Slots;
        }
        for (double &S : E.ClusterShare)
          S /= TotalSlots;
        return E;
      }
    }
    IT = Planner.nextIT(IT);
  }
  return E; // infeasible within the step budget
}

LoopTimingEstimate
hcvliw::loopTimingAt(const LoopProfile &LP, const MachineDescription &M,
                     LoopTimingCore Core, const Rational &ITScale,
                     const Rational &SlowestClusterPeriodNs) {
  LoopTimingEstimate E;
  if (!Core.Feasible)
    return E;
  static_cast<LoopTimingCore &>(E) = std::move(Core);
  E.ITNs = E.ITNs * ITScale;
  // The reference cycle count times the slowest cluster period
  // (TimingEstimator.h says why not the mean).
  double RefCycles = LP.ItLengthRefNs.toDouble() / M.RefPeriodNs.toDouble();
  E.ItLengthNs = RefCycles * SlowestClusterPeriodNs.toDouble();
  E.TexecNs = (static_cast<double>(LP.TripCount) - 1) * E.ITNs.toDouble() +
              E.ItLengthNs;
  return E;
}

LoopTimingEstimate hcvliw::estimateLoopTiming(const LoopProfile &LP,
                                              const MachineDescription &M,
                                              const HeteroConfig &C,
                                              const FrequencyMenu &Menu) {
  Rational SlowestPeriod = C.Clusters.front().PeriodNs;
  for (const auto &D : C.Clusters)
    SlowestPeriod = Rational::max(SlowestPeriod, D.PeriodNs);
  return loopTimingAt(LP, M, estimateLoopTimingCore(LP, M, C, Menu),
                      Rational(1), SlowestPeriod);
}
