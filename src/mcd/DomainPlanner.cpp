//===- mcd/DomainPlanner.cpp - Per-domain (II, frequency) plans -------------===//

#include "mcd/DomainPlanner.h"

#include <cassert>
#include <stdexcept>

using namespace hcvliw;

DomainPlanner::DomainPlanner(const MachineDescription &M,
                             const HeteroConfig &C, const FrequencyMenu &Mn)
    : Machine(&M), Config(C), Menu(Mn) {
  assert(C.numClusters() == M.numClusters() &&
         "configuration does not match the machine");
}

static std::optional<DomainPlan> planDomain(const FrequencyMenu &Menu,
                                            const Rational &ITNs,
                                            const DomainOperatingPoint &P) {
  auto Sel = Menu.selectIIFreq(ITNs, P.fmaxGHz());
  if (!Sel)
    return std::nullopt;
  DomainPlan D;
  D.II = Sel->first;
  D.FreqGHz = Sel->second;
  D.PeriodNs = D.FreqGHz.reciprocal();
  return D;
}

bool DomainPlanner::planForITInto(MachinePlan &Plan,
                                  const Rational &ITNs) const {
  Plan.ITNs = ITNs;
  Plan.Clusters.clear();
  Plan.Clusters.reserve(Config.numClusters());
  for (const auto &C : Config.Clusters) {
    auto D = planDomain(Menu, ITNs, C);
    if (!D)
      return false;
    Plan.Clusters.push_back(*D);
  }
  auto B = planDomain(Menu, ITNs, Config.Icn);
  if (!B)
    return false;
  Plan.Bus = *B;
  auto M = planDomain(Menu, ITNs, Config.Cache);
  if (!M)
    return false;
  Plan.Cache = *M;
  return true;
}

std::optional<MachinePlan>
DomainPlanner::planForIT(const Rational &ITNs) const {
  MachinePlan Plan;
  if (!planForITInto(Plan, ITNs))
    return std::nullopt;
  return Plan;
}

Rational DomainPlanner::nextIT(const Rational &ITNs) const {
  Rational Best = Menu.nextIT(ITNs, Config.Clusters.front().fmaxGHz());
  for (unsigned C = 1; C < Config.numClusters(); ++C)
    Best = Rational::min(Best,
                         Menu.nextIT(ITNs, Config.Clusters[C].fmaxGHz()));
  Best = Rational::min(Best, Menu.nextIT(ITNs, Config.Icn.fmaxGHz()));
  Best = Rational::min(Best, Menu.nextIT(ITNs, Config.Cache.fmaxGHz()));
  // A menu with no frequency at or below some domain's fmax offers that
  // domain no next slot; a caller stepping the IT would then spin.
  if (!(Best > ITNs))
    throw std::invalid_argument("nextIT does not grow the IT past " +
                                ITNs.str() + " ns under this configuration");
  return Best;
}

bool DomainPlanner::hasCapacity(const MachinePlan &Plan,
                                const std::vector<unsigned> &OpCounts) const {
  for (unsigned K = 0; K < NumFUKinds; ++K) {
    FUKind Kind = static_cast<FUKind>(K);
    if (Kind == FUKind::Bus || OpCounts[K] == 0)
      continue;
    int64_t Slots = 0;
    for (unsigned C = 0; C < Machine->numClusters(); ++C)
      Slots += Plan.Clusters[C].II *
               static_cast<int64_t>(Machine->Clusters[C].fuCount(Kind));
    if (Slots < static_cast<int64_t>(OpCounts[K]))
      return false;
  }
  return true;
}

/// The first candidate IT the MIT search need probe: the largest point
/// of the nextIT() sequence at or below the capacity bound
///
///   LB = max_K count_K / sum_C fmax_C * units_{C,K},
///
/// or std::nullopt when no bound applies. Every domain runs at most at
/// its fmax, so II_C <= IT * fmax_C, and below LB some FU kind lacks
/// slots whatever the plan: no IT below LB passes hasCapacity. The
/// returned floor(LB * F) / F, with F the fastest cluster's top menu
/// frequency, is a multiple of 1/F and so a point nextIT() steps
/// through. A bound whose arithmetic leaves the Rational range is
/// skipped (the search then steps from its start, as it always may).
static std::optional<Rational>
capacityStart(const MachineDescription &M, const HeteroConfig &C,
              const FrequencyMenu &Menu,
              const std::vector<unsigned> &OpCounts) {
  auto F = Menu.topFrequency(C.fastestClusterPeriod().reciprocal());
  if (!F)
    return std::nullopt;
  try {
    std::optional<Rational> LB;
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      FUKind Kind = static_cast<FUKind>(K);
      if (Kind == FUKind::Bus || OpCounts[K] == 0)
        continue;
      Rational SlotsPerNs(0);
      for (unsigned Cl = 0; Cl < M.numClusters(); ++Cl)
        SlotsPerNs +=
            C.Clusters[Cl].fmaxGHz() *
            Rational(static_cast<int64_t>(M.Clusters[Cl].fuCount(Kind)));
      if (!SlotsPerNs.isPositive())
        continue; // no slots at any IT: the probes run out as before
      Rational KindLB =
          Rational(static_cast<int64_t>(OpCounts[K])) / SlotsPerNs;
      if (!LB || *LB < KindLB)
        LB = KindLB;
    }
    if (!LB)
      return std::nullopt;
    return Rational((*LB * *F).floor()) / *F;
  } catch (const std::overflow_error &) {
    return std::nullopt;
  }
}

Rational
DomainPlanner::computeMIT(int64_t RecMII,
                          const std::vector<unsigned> &OpCounts) const {
  // recMIT: the recurrence can at best run in the fastest cluster.
  Rational RecMIT = Rational(RecMII) * Config.fastestClusterPeriod();

  // resMIT: grow the IT until every FU kind has enough slots (and every
  // domain has a synchronizable (II, freq) pair), starting at the
  // capacity bound when it lies above recMIT: every IT the one-slot
  // steps would skip fails hasCapacity, so the first feasible IT is the
  // same. One reused probe plan.
  Rational IT = Rational::max(RecMIT, Config.fastestClusterPeriod());
  if (auto Start = capacityStart(*Machine, Config, Menu, OpCounts))
    IT = Rational::max(IT, *Start);
  MachinePlan Probe;
  for (unsigned N = 0; N < MaxMITProbes; ++N) {
    if (planForITInto(Probe, IT) && hasCapacity(Probe, OpCounts))
      return IT;
    IT = nextIT(IT);
  }
  throw std::invalid_argument(
      "computeMIT found no synchronizable IT with enough slots within " +
      std::to_string(MaxMITProbes) + " probes (last tried " + IT.str() +
      " ns)");
}
