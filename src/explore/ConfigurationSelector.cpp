//===- explore/ConfigurationSelector.cpp - Section 3.3 search -------------===//

#include "explore/ConfigurationSelector.h"

using namespace hcvliw;

ConfigurationSelector::ConfigurationSelector(
    const ProgramProfile &P, const MachineDescription &M,
    const EnergyModel &E, const TechnologyModel &T, const FrequencyMenu &Mn,
    const DesignSpaceOptions &S, WorkerPool &Pl, EvalCache *C)
    : Profile(P), Machine(M), Energy(E), Tech(T),
      Alpha(T, M.refFrequency().toDouble(), M.RefVdd, M.RefVth), Space(S),
      Engine(P, M, E, T, Mn, S), Pool(Pl), Cache(C) {}

ExplorationResult ConfigurationSelector::search() const {
  // Frontier bookkeeping is skipped: it never affects evaluation or
  // Best, and the timing cache is an exact memoization.
  ExploreOptions Opts;
  Opts.ComputeFrontier = false;
  Opts.Cache = Cache;
  return Engine.explore(Pool, Opts);
}

std::vector<SelectedDesign> ConfigurationSelector::rankHeterogeneous() const {
  return search().rankedByED2();
}

SelectedDesign ConfigurationSelector::selectHeterogeneous() const {
  return search().Best;
}

SelectedDesign ConfigurationSelector::selectOptimumHomogeneous() const {
  SelectedDesign Best;
  for (const Rational &HF : Space.HomogFactors) {
    Rational Period = Machine.RefPeriodNs * HF;
    double Freq = Period.reciprocal().toDouble();
    // Same schedule as the reference: only the cycle time scales T.
    double TexecNs = Profile.TexecRefNs * HF.toDouble();

    for (double Vdd : Space.HomogVddGrid) {
      auto Vth = Alpha.vthForFrequency(Freq, Vdd);
      if (!Vth)
        continue;
      HeteroConfig C;
      DomainOperatingPoint P;
      P.PeriodNs = Period;
      P.Vdd = Vdd;
      P.Vth = *Vth;
      C.Clusters.assign(Machine.numClusters(), P);
      C.Icn = P;
      C.Cache = P;

      HeteroScaling S = scalingForConfig(C, Machine, Tech);
      double E = Energy.homogeneousEnergy(Profile.Totals, TexecNs,
                                          S.Clusters.front(), S.Icn,
                                          S.Cache);
      double ED2 = computeED2(E, TexecNs);
      if (!Best.Valid || ED2 < Best.EstED2) {
        Best.Valid = true;
        Best.Config = C;
        Best.Scaling = S;
        Best.EstTexecNs = TexecNs;
        Best.EstEnergy = E;
        Best.EstED2 = ED2;
      }
    }
  }
  return Best;
}
