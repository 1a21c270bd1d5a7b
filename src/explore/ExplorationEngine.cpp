//===- explore/ExplorationEngine.cpp - Parallel design-space search ---------===//

#include "explore/ExplorationEngine.h"

#include "obs/Stopwatch.h"
#include "runtime/WorkerPool.h"

#include <algorithm>
#include <stdexcept>

using namespace hcvliw;

std::vector<SelectedDesign> ExplorationResult::rankedByED2() const {
  std::vector<SelectedDesign> Ranked;
  Ranked.reserve(Candidates.size());
  for (const ExploreCandidate &C : Candidates)
    if (C.Design.Valid)
      Ranked.push_back(C.Design);
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [](const SelectedDesign &A, const SelectedDesign &B) {
                     return A.EstED2 < B.EstED2;
                   });
  return Ranked;
}

ExplorationEngine::ExplorationEngine(const ProgramProfile &P,
                                     const MachineDescription &M,
                                     const EnergyModel &E,
                                     const TechnologyModel &T,
                                     const FrequencyMenu &Mn,
                                     const DesignSpaceOptions &Sp)
    : Profile(P), Machine(M), Energy(E), Tech(T), Menu(Mn), Space(Sp) {}

std::vector<ExploreCandidate> ExplorationEngine::enumerate() const {
  std::vector<ExploreCandidate> Grid;
  Grid.reserve(Space.numHeteroCandidates());
  for (const Rational &FF : Space.FastFactors) {
    Rational FastPeriod = Machine.RefPeriodNs * FF;
    for (const Rational &SR : Space.SlowRatios) {
      ExploreCandidate C;
      C.FastFactor = FF;
      C.SlowRatio = SR;
      C.FastPeriodNs = FastPeriod;
      C.SlowPeriodNs = FastPeriod * SR;
      Grid.push_back(std::move(C));
    }
  }
  return Grid;
}

ExplorationResult ExplorationEngine::explore(WorkerPool &Pool,
                                             EvalCache *Cache) const {
  // A cache bound elsewhere would serve another machine's or menu's
  // timing as this one's.
  if (Cache && !Cache->compatibleWith(Machine, Menu))
    throw std::invalid_argument(
        "EvalCache bound to a different machine or frequency menu");

  obs::Stopwatch SW;

  ExplorationResult R;
  R.Candidates = enumerate();
  R.Stats.Enumerated = R.Candidates.size();
  R.Stats.ThreadsUsed = Pool.threads();

  // Private hit/miss counters: the shared cache's own totals cover
  // every concurrent user, so this explore's stats are counted at the
  // call sites instead.
  CacheCounters Counters;
  CandidateEvaluator Eval(Profile, Machine, Energy, Tech, Menu, Space,
                          Cache, &Counters);

  // Fan out: workers claim enumeration slots and write results into
  // their own slot; no result ordering depends on thread scheduling.
  Pool.parallelFor(R.Candidates.size(), [&](size_t I) {
    ExploreCandidate &C = R.Candidates[I];
    C.Design = Eval.evaluate(C.FastPeriodNs, C.SlowPeriodNs);
  });

  R.Stats.CacheHits = Counters.Hits.load(std::memory_order_relaxed);
  R.Stats.CacheMisses = Counters.Misses.load(std::memory_order_relaxed);

  // Serial reductions over the enumeration order: the ED2 argmin (first
  // wins on exact ties, matching the serial search) and the frontier.
  for (const ExploreCandidate &C : R.Candidates) {
    if (!C.Design.Valid) {
      ++R.Stats.Infeasible;
      continue;
    }
    ++R.Stats.Feasible;
    if (!R.Best.Valid || C.Design.EstED2 < R.Best.EstED2)
      R.Best = C.Design;
  }

  ParetoFrontier Frontier;
  for (size_t I = 0; I < R.Candidates.size(); ++I) {
    const SelectedDesign &D = R.Candidates[I].Design;
    if (!D.Valid)
      continue;
    ParetoPoint P;
    P.TexecNs = D.EstTexecNs;
    P.Energy = D.EstEnergy;
    P.ED2 = D.EstED2;
    P.Index = I;
    Frontier.insert(P);
  }
  for (const ParetoPoint &P : Frontier.sortedByTexec()) {
    R.Candidates[P.Index].OnFrontier = true;
    R.Frontier.push_back(P.Index);
  }
  R.Stats.FrontierSize = R.Frontier.size();

  R.Stats.WallMs = SW.elapsedMs();
  return R;
}

SelectedDesign ExplorationEngine::selectOptimumHomogeneous() const {
  AlphaPowerModel Alpha(Tech, Machine.refFrequency().toDouble(),
                        Machine.RefVdd, Machine.RefVth);
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
