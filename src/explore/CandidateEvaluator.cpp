//===- explore/CandidateEvaluator.cpp - One-candidate estimation ------------===//

#include "explore/CandidateEvaluator.h"

#include "configsel/TimingEstimator.h"

#include <algorithm>
#include <cassert>

using namespace hcvliw;

CandidateEvaluator::CandidateEvaluator(const ProgramProfile &P,
                                       const MachineDescription &M,
                                       const EnergyModel &E,
                                       const TechnologyModel &T,
                                       const FrequencyMenu &Mn,
                                       const DesignSpaceOptions &S,
                                       EvalCache *SharedCache,
                                       CacheCounters *Stats)
    : Profile(P), Machine(M), Energy(E), Tech(T),
      Alpha(T, M.refFrequency().toDouble(), M.RefVdd, M.RefVth), Menu(Mn),
      Space(S), Cache(SharedCache), Counters(Stats) {}

namespace {

/// Greedy per-class voltage choice: the Vdd of \p Grid minimizing
/// Dynamic * delta(Vdd) + LeakPerNs * TexecNs * sigma(Vdd, Vth(f, Vdd)),
/// with Vth derived from the alpha-power law. std::nullopt when no grid
/// voltage supports frequency \p FreqGHz.
std::optional<DomainOperatingPoint>
pickVdd(const AlphaPowerModel &Alpha, const MachineDescription &M,
        const TechnologyModel &Tech, const std::vector<double> &Grid,
        double FreqGHz, const Rational &PeriodNs, double Dynamic,
        double LeakPerNs, double TexecNs) {
  std::optional<DomainOperatingPoint> Best;
  double BestCost = 0;
  for (double Vdd : Grid) {
    auto Vth = Alpha.vthForFrequency(FreqGHz, Vdd);
    if (!Vth)
      continue;
    double Delta = dynamicEnergyScale(Vdd, M.RefVdd);
    double Sigma = staticEnergyScale(Vdd, *Vth, M.RefVdd, M.RefVth,
                                     Tech.SubthresholdSlopeV);
    double Cost = Dynamic * Delta + LeakPerNs * TexecNs * Sigma;
    if (!Best || Cost < BestCost) {
      DomainOperatingPoint P;
      P.PeriodNs = PeriodNs;
      P.Vdd = Vdd;
      P.Vth = *Vth;
      Best = P;
      BestCost = Cost;
    }
  }
  return Best;
}

} // namespace

SelectedDesign CandidateEvaluator::evaluate(const Rational &FastPeriod,
                                            const Rational &SlowPeriod) const {
  SelectedDesign D;
  unsigned NC = Machine.numClusters();
  unsigned NF = std::min(Space.NumFastClusters, NC);

  HeteroConfig C;
  C.Clusters.resize(NC);
  for (unsigned I = 0; I < NC; ++I)
    C.Clusters[I].PeriodNs = I < NF ? FastPeriod : SlowPeriod;
  // Cache and ICN run with the fastest cluster (Section 5).
  C.Icn.PeriodNs = FastPeriod;
  C.Cache.PeriodNs = FastPeriod;

  // Timing + activity accumulation over all loops.
  double TexecNs = 0;
  std::vector<double> WIns(NC, 0.0);
  double Comms = 0, Mem = 0;
  for (unsigned LI = 0; LI < Profile.Loops.size(); ++LI) {
    const LoopProfile &LP = Profile.Loops[LI];
    bool WasHit = false;
    LoopTimingEstimate TE =
        Cache ? Cache->loopTiming(LP, FastPeriod, SlowPeriod, NF, &WasHit)
              : estimateLoopTiming(LP, Machine, C, Menu);
    if (Cache && Counters)
      (WasHit ? Counters->Hits : Counters->Misses)
          .fetch_add(1, std::memory_order_relaxed);
    if (!TE.Feasible)
      return D;
    TexecNs += LP.Invocations * TE.TexecNs;
    double Iters = LP.Invocations * static_cast<double>(LP.TripCount);
    for (unsigned Cl = 0; Cl < NC; ++Cl)
      WIns[Cl] += LP.PerIter.WeightedIns * TE.ClusterShare[Cl] * Iters;
    Comms += LP.PerIter.Comms * Iters;
    Mem += LP.PerIter.MemAccesses * Iters;
  }

  // Voltages, greedily per component class.
  double FastF = FastPeriod.reciprocal().toDouble();
  double SlowF = SlowPeriod.reciprocal().toDouble();
  double WFast = 0, WSlow = 0;
  for (unsigned Cl = 0; Cl < NC; ++Cl)
    (Cl < NF ? WFast : WSlow) += WIns[Cl];

  auto Fast = pickVdd(Alpha, Machine, Tech, Space.ClusterVddGrid, FastF,
                      FastPeriod, WFast * Energy.insUnit(),
                      Energy.clusterLeakPerNs() * NF, TexecNs);
  auto Slow = pickVdd(Alpha, Machine, Tech, Space.ClusterVddGrid, SlowF,
                      SlowPeriod, WSlow * Energy.insUnit(),
                      Energy.clusterLeakPerNs() * (NC - NF), TexecNs);
  auto Icn = pickVdd(Alpha, Machine, Tech, Space.IcnVddGrid, FastF,
                     FastPeriod, Comms * Energy.commUnit(),
                     Energy.icnLeakPerNs(), TexecNs);
  auto Cch = pickVdd(Alpha, Machine, Tech, Space.CacheVddGrid, FastF,
                     FastPeriod, Mem * Energy.accessUnit(),
                     Energy.cacheLeakPerNs(), TexecNs);
  if (!Fast || !Slow || !Icn || !Cch)
    return D;

  for (unsigned I = 0; I < NC; ++I)
    C.Clusters[I] = I < NF ? *Fast : *Slow;
  C.Icn = *Icn;
  C.Cache = *Cch;

  D.Config = C;
  D.Scaling = scalingForConfig(C, Machine, Tech);
  D.EstTexecNs = TexecNs;
  D.EstEnergy = Energy.heteroEnergy(WIns, Comms, Mem, TexecNs, D.Scaling);
  D.EstED2 = computeED2(D.EstEnergy, TexecNs);
  D.Valid = true;
  return D;
}
