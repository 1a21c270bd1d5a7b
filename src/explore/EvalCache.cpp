//===- explore/EvalCache.cpp - Memoized loop-timing evaluation --------------===//

#include "explore/EvalCache.h"

#include <cassert>

using namespace hcvliw;

EvalCache::EvalCache(const MachineDescription &M, const FrequencyMenu &Mn)
    : Machine(M), Menu(Mn),
      // Continuous and relative menus decide every (II, freq) pair from
      // IT * fmax products only; absolute menus pin real frequencies.
      ScaleInvariant(Mn.frequencies().empty()) {}

bool EvalCache::compatibleWith(const MachineDescription &M,
                               const FrequencyMenu &Mn) const {
  auto sameMenu = [](const FrequencyMenu &A, const FrequencyMenu &B) {
    return A.isContinuous() == B.isContinuous() &&
           A.frequencies() == B.frequencies() && A.ratios() == B.ratios();
  };
  if (&M != &Machine) {
    // Value equality of the timing-relevant structure (the Isa table is
    // a fixed paper constant and not compared).
    if (M.numClusters() != Machine.numClusters() ||
        M.Buses != Machine.Buses || M.BusLatency != Machine.BusLatency ||
        !(M.RefPeriodNs == Machine.RefPeriodNs))
      return false;
    for (unsigned I = 0; I < M.numClusters(); ++I) {
      const ClusterConfig &A = M.Clusters[I], &B = Machine.Clusters[I];
      if (A.IntFUs != B.IntFUs || A.FpFUs != B.FpFUs ||
          A.MemPorts != B.MemPorts || A.Registers != B.Registers)
        return false;
    }
  }
  return sameMenu(Mn, Menu);
}

LoopTimingCore EvalCache::compute(const Key &K, const LoopProfile &LP,
                                  const Rational &FastPeriod,
                                  const Rational &SlowPeriod) const {
  // Under scale invariance, evaluate at a normalized fast period of
  // 1 ns with the slow clusters at the ratio; otherwise at the actual
  // periods (ITNs is then the actual IT, rescaled by 1).
  Rational NormFast = ScaleInvariant ? Rational(1) : FastPeriod;
  Rational NormSlow =
      ScaleInvariant ? Rational(K.RatioNum, K.RatioDen) : SlowPeriod;

  unsigned NC = Machine.numClusters();
  HeteroConfig C;
  C.Clusters.resize(NC);
  for (unsigned I = 0; I < NC; ++I)
    C.Clusters[I].PeriodNs = I < K.NumFast ? NormFast : NormSlow;
  C.Icn.PeriodNs = NormFast;
  C.Cache.PeriodNs = NormFast;
  return estimateLoopTimingCore(LP, Machine, C, Menu);
}

LoopTimingEstimate EvalCache::loopTiming(const LoopProfile &LP,
                                         const Rational &FastPeriod,
                                         const Rational &SlowPeriod,
                                         unsigned NumFast, bool *WasHit) {
  assert(FastPeriod.isPositive() && SlowPeriod.isPositive() &&
         "periods must be positive");

  Rational Ratio = SlowPeriod / FastPeriod;
  Key K;
  K.LoopFP = LP.timingFingerprint();
  // A ratio of 1 makes every cluster (and the ICN and cache) run at the
  // same period whatever NumFast says; canonicalize so homogeneous
  // shapes reached from different NumFast values share one entry.
  K.NumFast = Ratio == Rational(1) ? Machine.numClusters() : NumFast;
  K.RatioNum = Ratio.num();
  K.RatioDen = Ratio.den();
  if (!ScaleInvariant) {
    K.FastNum = FastPeriod.num();
    K.FastDen = FastPeriod.den();
  }

  std::shared_ptr<const LoopTimingCore> T = Timings.find(K);
  if (WasHit)
    *WasHit = T != nullptr;
  if (!T) {
    T = std::make_shared<const LoopTimingCore>(
        compute(K, LP, FastPeriod, SlowPeriod));
    // First writer wins; concurrent computes of the same key produce
    // identical values, so dropping the duplicate is safe.
    Timings.store(K, T);
  }

  // The estimator's slowest *cluster* period: all-slow and all-fast
  // shapes see only one of the two periods.
  Rational SlowestPeriod =
      NumFast == 0 ? SlowPeriod
                   : (NumFast >= Machine.numClusters()
                          ? FastPeriod
                          : Rational::max(FastPeriod, SlowPeriod));
  return loopTimingAt(LP, Machine, *T,
                      ScaleInvariant ? FastPeriod : Rational(1),
                      SlowestPeriod);
}

std::optional<SelectedDesign> EvalCache::findSelection(uint64_t SelKey) {
  if (auto D = Selections.find(SelKey))
    return *D;
  return std::nullopt;
}

void EvalCache::storeSelection(uint64_t SelKey, const SelectedDesign &D) {
  Selections.store(SelKey, std::make_shared<const SelectedDesign>(D));
}

void EvalCache::exportTimings(
    const std::function<void(const TimingRecord &)> &Fn) const {
  Timings.exportEntries([&Fn](const Key &K, const LoopTimingCore &T) {
    Fn({K.LoopFP, K.NumFast, K.RatioNum, K.RatioDen, K.FastNum, K.FastDen,
        T.Feasible, T.ITNs, T.ClusterShare});
  });
}

bool EvalCache::importTiming(const TimingRecord &R) {
  Key K;
  K.LoopFP = R.LoopFP;
  K.NumFast = R.NumFast;
  K.RatioNum = R.RatioNum;
  K.RatioDen = R.RatioDen;
  K.FastNum = R.FastNum;
  K.FastDen = R.FastDen;
  return Timings.importEntry(K, {R.Feasible, R.ITNorm, R.ClusterShare});
}

void EvalCache::exportSelections(
    const std::function<void(uint64_t, const SelectedDesign &)> &Fn) const {
  Selections.exportEntries(Fn);
}

bool EvalCache::importSelection(uint64_t SelKey, const SelectedDesign &D) {
  return Selections.importEntry(SelKey, D);
}
