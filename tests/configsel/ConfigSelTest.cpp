//===- tests/configsel/ConfigSelTest.cpp - Section 3 selection --------------===//

#include "explore/ExplorationEngine.h"
#include "profiling/Profiler.h"
#include "runtime/WorkerPool.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

struct Fixture {
  MachineDescription M = MachineDescription::paperDefault();
  ProgramProfile Profile;
  TechnologyModel Tech = TechnologyModel::paperDefault();
  WorkerPool Pool{1};

  explicit Fixture(std::vector<Loop> Loops) {
    Profiler Prof(M);
    auto P = Prof.profileProgram("fixture", Loops);
    EXPECT_TRUE(P.has_value());
    Profile = std::move(*P);
  }

  EnergyModel energy(EnergyBreakdown B = EnergyBreakdown()) const {
    return EnergyModel(B, Profile.Totals, Profile.TexecRefNs,
                       M.numClusters());
  }
};

TEST(Scaling, ReferenceConfigIsUnity) {
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  HeteroScaling S =
      scalingForConfig(C, M, TechnologyModel::paperDefault());
  for (const auto &D : S.Clusters) {
    EXPECT_NEAR(D.Delta, 1.0, 1e-12);
    EXPECT_NEAR(D.Sigma, 1.0, 1e-12);
  }
  EXPECT_NEAR(S.Cache.Delta, 1.0, 1e-12);
}

TEST(TimingEstimator, ReferenceConfigMatchesHomogeneousII) {
  Fixture F({makeStreamLoop("s", 5, 64, 1.0)});
  HeteroConfig C = HeteroConfig::reference(F.M);
  LoopTimingEstimate E = estimateLoopTiming(
      F.Profile.Loops[0], F.M, C, FrequencyMenu::continuous());
  ASSERT_TRUE(E.Feasible);
  // On the reference machine the estimate must not beat the measured
  // homogeneous II; it may exceed it by one slot because the estimator
  // packs connected components atomically while the real scheduler may
  // split a lane across clusters (paying communications).
  EXPECT_GE(E.ITNs, Rational(F.Profile.Loops[0].ResMII));
  EXPECT_LE(E.ITNs, Rational(F.Profile.Loops[0].IIHom + 1));
  // Equal cluster shares on a uniform machine.
  for (double S : E.ClusterShare)
    EXPECT_NEAR(S, 0.25, 1e-12);
}

TEST(TimingEstimator, SlowerClustersRaiseIT) {
  Fixture F({makeStreamLoop("s", 6, 64, 1.0)});
  HeteroConfig Ref = HeteroConfig::reference(F.M);
  HeteroConfig Het = Ref;
  for (unsigned I = 1; I < 4; ++I)
    Het.Clusters[I].PeriodNs = Rational(3, 2);
  LoopTimingEstimate ERef = estimateLoopTiming(
      F.Profile.Loops[0], F.M, Ref, FrequencyMenu::continuous());
  LoopTimingEstimate EHet = estimateLoopTiming(
      F.Profile.Loops[0], F.M, Het, FrequencyMenu::continuous());
  ASSERT_TRUE(ERef.Feasible && EHet.Feasible);
  // The split allowance can absorb the capacity loss at equal IT, but
  // never below the reference; the iteration tail strictly stretches.
  EXPECT_GE(EHet.ITNs, ERef.ITNs);
  EXPECT_GT(EHet.ItLengthNs, ERef.ItLengthNs);
}

TEST(TimingEstimator, RecurrenceBoundUsesFastCluster) {
  Fixture F({makeChainRecurrenceLoop("r", 1, 2, 1, 3, 64, 1.0)});
  HeteroConfig Het = HeteroConfig::reference(F.M);
  Het.Clusters[0].PeriodNs = Rational(9, 10);
  for (unsigned I = 1; I < 4; ++I)
    Het.Clusters[I].PeriodNs = Rational(27, 20);
  Het.Icn.PeriodNs = Rational(9, 10);
  Het.Cache.PeriodNs = Rational(9, 10);
  LoopTimingEstimate E = estimateLoopTiming(
      F.Profile.Loops[0], F.M, Het, FrequencyMenu::continuous());
  ASSERT_TRUE(E.Feasible);
  // recMIT = recMII(12) * 0.9 = 10.8: the recurrence rides the fast
  // cluster, beating the homogeneous 12 ns.
  EXPECT_LT(E.ITNs, Rational(12));
  EXPECT_GE(E.ITNs, Rational(54, 5));
}

TEST(Selector, PaperDefaultSpace) {
  DesignSpaceOptions S = DesignSpaceOptions::paperDefault();
  EXPECT_EQ(S.FastFactors.size(), 5u);
  EXPECT_EQ(S.SlowRatios.size(), 4u);
  EXPECT_EQ(S.NumFastClusters, 1u);
  EXPECT_DOUBLE_EQ(S.ClusterVddGrid.front(), 0.70);
  EXPECT_DOUBLE_EQ(S.ClusterVddGrid.back(), 1.20);
  EXPECT_DOUBLE_EQ(S.IcnVddGrid.back(), 1.10);
  EXPECT_DOUBLE_EQ(S.CacheVddGrid.back(), 1.40);
}

TEST(Selector, SelectsValidDesignsAndHetBeatsHomEstimate) {
  Fixture F({makeChainRecurrenceLoop("r1", 1, 2, 1, 4, 64, 0.7),
             makeStreamLoop("s1", 5, 64, 0.3)});
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  SelectedDesign Het = Eng.explore(F.Pool).Best;
  SelectedDesign Hom = Eng.selectOptimumHomogeneous();
  ASSERT_TRUE(Het.Valid);
  ASSERT_TRUE(Hom.Valid);
  EXPECT_LE(Het.EstED2, Hom.EstED2);
  // Voltages respect the per-component ranges.
  for (const auto &Cl : Het.Config.Clusters) {
    EXPECT_GE(Cl.Vdd, 0.70 - 1e-9);
    EXPECT_LE(Cl.Vdd, 1.20 + 1e-9);
    EXPECT_GT(Cl.Vth, 0.0);
  }
  EXPECT_GE(Het.Config.Cache.Vdd, 1.00 - 1e-9);
  EXPECT_LE(Het.Config.Cache.Vdd, 1.40 + 1e-9);
  // Cache and ICN clock with the fastest cluster (Section 5).
  EXPECT_EQ(Het.Config.Cache.PeriodNs, Het.Config.fastestClusterPeriod());
  EXPECT_EQ(Het.Config.Icn.PeriodNs, Het.Config.fastestClusterPeriod());
}

TEST(Selector, RankedCandidatesSorted) {
  Fixture F({makeChainRecurrenceLoop("r1", 1, 2, 1, 4, 64, 1.0)});
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  auto Ranked = Eng.explore(F.Pool).rankedByED2();
  ASSERT_FALSE(Ranked.empty());
  for (size_t I = 1; I < Ranked.size(); ++I)
    EXPECT_LE(Ranked[I - 1].EstED2, Ranked[I].EstED2);
}

// Regression pin: the engine must keep reproducing the design the seed's
// exhaustive serial search picked on the paper-default grids for this
// fixture. If an intentional model change moves the
// optimum, update these literals alongside the change.
TEST(Selector, PaperDefaultSelectedDesignRegression) {
  Fixture F({makeChainRecurrenceLoop("r1", 1, 2, 1, 4, 64, 0.7),
             makeStreamLoop("s1", 5, 64, 0.3)});
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  SelectedDesign D = Eng.explore(F.Pool).Best;
  ASSERT_TRUE(D.Valid);
  EXPECT_EQ(D.Config.Clusters.front().PeriodNs, Rational(1));
  EXPECT_EQ(D.Config.Clusters.back().PeriodNs, Rational(5, 4));
  EXPECT_DOUBLE_EQ(D.Config.Clusters.front().Vdd, 1.05);
  EXPECT_DOUBLE_EQ(D.Config.Clusters.back().Vdd, 0.85);
  EXPECT_DOUBLE_EQ(D.Config.Icn.Vdd, 0.95);
  EXPECT_DOUBLE_EQ(D.Config.Cache.Vdd, 1.25);
  EXPECT_NEAR(D.EstTexecNs, 1078626.9430051814, 1e-6);
  EXPECT_NEAR(D.EstEnergy, 0.69296920124225836, 1e-12);
  EXPECT_NEAR(D.EstED2, 806225372562.41223, 1.0);

  // A parallel run must agree on the selected design exactly.
  WorkerPool Pool(4);
  auto R = Eng.explore(Pool);
  ASSERT_TRUE(R.Best.Valid);
  EXPECT_EQ(R.Best.EstED2, D.EstED2);
  EXPECT_EQ(R.Best.EstTexecNs, D.EstTexecNs);
  EXPECT_EQ(R.Best.Config.Clusters.front().PeriodNs,
            D.Config.Clusters.front().PeriodNs);
  EXPECT_EQ(R.Best.Config.Clusters.back().PeriodNs,
            D.Config.Clusters.back().PeriodNs);

  // Session substrate: a search on a shared cache and a long-lived
  // pool must reproduce the same pinned design, and a second search
  // must run entirely from the cache.
  EvalCache Shared(F.M, FrequencyMenu::continuous());
  SelectedDesign DS = Eng.explore(Pool, &Shared).Best;
  ASSERT_TRUE(DS.Valid);
  EXPECT_EQ(DS.EstED2, D.EstED2);
  EXPECT_EQ(DS.EstTexecNs, D.EstTexecNs);
  EXPECT_EQ(DS.EstEnergy, D.EstEnergy);
  uint64_t Misses = Shared.misses();
  SelectedDesign DS2 = Eng.explore(Pool, &Shared).Best;
  EXPECT_EQ(DS2.EstED2, D.EstED2);
  EXPECT_EQ(Shared.misses(), Misses) << "re-selection re-ran the estimator";
}

TEST(Selector, HomogeneousOptimumNoWorseThanReferencePoint) {
  Fixture F({makeStreamLoop("s", 5, 64, 1.0)});
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  SelectedDesign Hom = Eng.selectOptimumHomogeneous();
  ASSERT_TRUE(Hom.Valid);
  // Estimated ED2 of the reference point itself (factor 1, Vdd 1.0).
  double RefED2 = computeED2(1.0, F.Profile.TexecRefNs);
  EXPECT_LE(Hom.EstED2, RefED2 * 1.0001);
}

} // namespace
