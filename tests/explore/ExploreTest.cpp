//===- tests/explore/ExploreTest.cpp - Exploration engine tests -------------===//

#include "explore/ExplorationEngine.h"
#include "explore/ExplorationReport.h"
#include "profiling/Profiler.h"
#include "runtime/WorkerPool.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace hcvliw;

namespace {

struct Fixture {
  MachineDescription M = MachineDescription::paperDefault();
  ProgramProfile Profile;
  TechnologyModel Tech = TechnologyModel::paperDefault();

  explicit Fixture(std::vector<Loop> Loops) {
    Profiler Prof(M);
    auto P = Prof.profileProgram("fixture", Loops);
    EXPECT_TRUE(P.has_value());
    Profile = std::move(*P);
  }

  EnergyModel energy() const {
    return EnergyModel(EnergyBreakdown(), Profile.Totals,
                       Profile.TexecRefNs, M.numClusters());
  }
};

std::vector<Loop> mixedLoops() {
  return {makeChainRecurrenceLoop("r1", 1, 2, 1, 4, 64, 0.7),
          makeStreamLoop("s1", 5, 64, 0.3)};
}

// --- Pareto dominance ------------------------------------------------------

ParetoPoint pt(double T, double E, double D, size_t I = 0) {
  ParetoPoint P;
  P.TexecNs = T;
  P.Energy = E;
  P.ED2 = D;
  P.Index = I;
  return P;
}

TEST(Pareto, DominanceIsStrictInAtLeastOneObjective) {
  EXPECT_TRUE(dominates(pt(1, 1, 1), pt(2, 2, 2)));
  EXPECT_TRUE(dominates(pt(1, 2, 2), pt(2, 2, 2)));
  EXPECT_FALSE(dominates(pt(2, 2, 2), pt(2, 2, 2))); // equal: neither
  EXPECT_FALSE(dominates(pt(1, 3, 1), pt(2, 2, 2))); // trade-off
  EXPECT_FALSE(dominates(pt(2, 2, 2), pt(1, 1, 1)));
}

TEST(Pareto, InsertRejectsDominatedAndEvictsDominated) {
  ParetoFrontier F;
  EXPECT_TRUE(F.insert(pt(2, 2, 2, 0)));
  EXPECT_FALSE(F.insert(pt(3, 3, 3, 1))); // dominated: rejected
  EXPECT_EQ(F.size(), 1u);
  EXPECT_TRUE(F.insert(pt(1, 3, 2.9, 2))); // trade-off: kept
  EXPECT_EQ(F.size(), 2u);
  EXPECT_TRUE(F.insert(pt(1, 1, 1, 3))); // dominates both: evicts
  EXPECT_EQ(F.size(), 1u);
  EXPECT_EQ(F.points().front().Index, 3u);
}

TEST(Pareto, EqualPointsCoexist) {
  ParetoFrontier F;
  EXPECT_TRUE(F.insert(pt(1, 1, 1, 0)));
  EXPECT_TRUE(F.insert(pt(1, 1, 1, 1)));
  EXPECT_EQ(F.size(), 2u);
}

TEST(Pareto, SortedByTexecIsDeterministic) {
  ParetoFrontier F;
  F.insert(pt(3, 1, 9, 0));
  F.insert(pt(1, 3, 3, 1));
  F.insert(pt(2, 2, 8, 2));
  auto S = F.sortedByTexec();
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0].Index, 1u);
  EXPECT_EQ(S[1].Index, 2u);
  EXPECT_EQ(S[2].Index, 0u);
}

// --- Engine ---------------------------------------------------------------

TEST(Engine, EnumerationOrderIsFastFactorMajor) {
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  DesignSpaceOptions Space = DesignSpaceOptions::paperDefault();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(), Space);
  auto Grid = Eng.enumerate();
  ASSERT_EQ(Grid.size(), Space.numHeteroCandidates());
  size_t I = 0;
  for (const Rational &FF : Space.FastFactors)
    for (const Rational &SR : Space.SlowRatios) {
      EXPECT_EQ(Grid[I].FastFactor, FF);
      EXPECT_EQ(Grid[I].SlowRatio, SR);
      EXPECT_EQ(Grid[I].SlowPeriodNs, Grid[I].FastPeriodNs * SR);
      ++I;
    }
}

TEST(Engine, CachedEvaluationIsBitIdenticalToDirect) {
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  WorkerPool Pool(1);
  EvalCache Cache(F.M, FrequencyMenu::continuous());
  ExploreOptions Cached;
  Cached.Cache = &Cache;
  auto RC = Eng.explore(Pool, Cached);
  auto RD = Eng.explore(Pool);
  ASSERT_EQ(RC.Candidates.size(), RD.Candidates.size());
  for (size_t I = 0; I < RC.Candidates.size(); ++I) {
    const SelectedDesign &A = RC.Candidates[I].Design;
    const SelectedDesign &B = RD.Candidates[I].Design;
    ASSERT_EQ(A.Valid, B.Valid);
    if (!A.Valid)
      continue;
    // Bit-identical, not approximately equal: the cache's rescaling is
    // exact Rational arithmetic plus the estimator's own expressions.
    EXPECT_EQ(A.EstTexecNs, B.EstTexecNs);
    EXPECT_EQ(A.EstEnergy, B.EstEnergy);
    EXPECT_EQ(A.EstED2, B.EstED2);
    EXPECT_EQ(A.Config.Clusters.front().Vdd, B.Config.Clusters.front().Vdd);
    EXPECT_EQ(A.Config.Clusters.back().Vdd, B.Config.Clusters.back().Vdd);
  }
  // Paper default has 5 fast factors x 4 ratios but only 4 distinct
  // frequency shapes per loop, so the cache must have been hit.
  EXPECT_GT(RC.Stats.CacheHits, 0u);
  EXPECT_LT(RC.Stats.CacheMisses, RC.Stats.CacheHits + RC.Stats.CacheMisses);
  EXPECT_EQ(RD.Stats.CacheHits, 0u);
  EXPECT_EQ(RD.Stats.CacheMisses, 0u);
}

TEST(Engine, SameFrontierForOneAndManyThreads) {
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  WorkerPool OnePool(1), ManyPool(4);
  EvalCache OneCache(F.M, FrequencyMenu::continuous());
  EvalCache ManyCache(F.M, FrequencyMenu::continuous());
  ExploreOptions One, Many;
  One.Cache = &OneCache;
  Many.Cache = &ManyCache;
  auto R1 = Eng.explore(OnePool, One);
  auto RN = Eng.explore(ManyPool, Many);
  EXPECT_EQ(RN.Stats.ThreadsUsed, 4u);
  ASSERT_EQ(R1.Frontier.size(), RN.Frontier.size());
  EXPECT_EQ(R1.Frontier, RN.Frontier);
  ASSERT_TRUE(R1.Best.Valid && RN.Best.Valid);
  EXPECT_EQ(R1.Best.EstED2, RN.Best.EstED2);
  EXPECT_EQ(R1.Best.EstTexecNs, RN.Best.EstTexecNs);
  EXPECT_EQ(R1.Best.EstEnergy, RN.Best.EstEnergy);
  for (size_t I = 0; I < R1.Candidates.size(); ++I) {
    EXPECT_EQ(R1.Candidates[I].Design.Valid, RN.Candidates[I].Design.Valid);
    EXPECT_EQ(R1.Candidates[I].OnFrontier, RN.Candidates[I].OnFrontier);
    if (R1.Candidates[I].Design.Valid) {
      EXPECT_EQ(R1.Candidates[I].Design.EstED2,
                RN.Candidates[I].Design.EstED2);
    }
  }
}

TEST(Engine, BestIsOnFrontierAndFrontierIsNonDominated) {
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  WorkerPool Pool(1);
  auto R = Eng.explore(Pool);
  ASSERT_TRUE(R.Best.Valid);
  ASSERT_FALSE(R.Frontier.empty());
  bool BestOnFrontier = false;
  for (size_t Idx : R.Frontier)
    if (R.Candidates[Idx].Design.EstED2 == R.Best.EstED2)
      BestOnFrontier = true;
  EXPECT_TRUE(BestOnFrontier);
  // Mutual non-dominance, and every non-frontier candidate dominated.
  auto toPoint = [&](size_t Idx) {
    const SelectedDesign &D = R.Candidates[Idx].Design;
    return pt(D.EstTexecNs, D.EstEnergy, D.EstED2, Idx);
  };
  for (size_t A : R.Frontier)
    for (size_t B : R.Frontier)
      EXPECT_FALSE(dominates(toPoint(A), toPoint(B)) && A != B);
  for (size_t I = 0; I < R.Candidates.size(); ++I) {
    if (!R.Candidates[I].Design.Valid || R.Candidates[I].OnFrontier)
      continue;
    bool Dominated = false;
    for (size_t A : R.Frontier)
      Dominated |= dominates(toPoint(A), toPoint(I));
    EXPECT_TRUE(Dominated) << "candidate " << I
                           << " off-frontier but undominated";
  }
  // Frontier is ordered by ascending Texec.
  for (size_t I = 1; I < R.Frontier.size(); ++I)
    EXPECT_LE(R.Candidates[R.Frontier[I - 1]].Design.EstTexecNs,
              R.Candidates[R.Frontier[I]].Design.EstTexecNs);
}

TEST(Engine, AllSlowAndAllFastShapesCacheExactly) {
  // Regression: with NumFastClusters=0 (all clusters slow) the slowest
  // cluster period is the slow one even when ratio < 1; the cache's
  // rescaling must match direct evaluation for these shapes too.
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  WorkerPool Pool(1);
  for (unsigned NumFast : {0u, 4u}) {
    DesignSpaceOptions Space = DesignSpaceOptions::paperDefault();
    Space.NumFastClusters = NumFast;
    Space.SlowRatios.push_back(Rational(9, 10)); // slow faster than fast
    ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                          FrequencyMenu::continuous(), Space);
    EvalCache Cache(F.M, FrequencyMenu::continuous());
    ExploreOptions Cached;
    Cached.Cache = &Cache;
    auto RC = Eng.explore(Pool, Cached);
    auto RD = Eng.explore(Pool);
    for (size_t I = 0; I < RC.Candidates.size(); ++I) {
      ASSERT_EQ(RC.Candidates[I].Design.Valid,
                RD.Candidates[I].Design.Valid);
      if (!RC.Candidates[I].Design.Valid)
        continue;
      EXPECT_EQ(RC.Candidates[I].Design.EstTexecNs,
                RD.Candidates[I].Design.EstTexecNs)
          << "NumFast=" << NumFast << " candidate " << I;
      EXPECT_EQ(RC.Candidates[I].Design.EstED2,
                RD.Candidates[I].Design.EstED2);
    }
  }
}

TEST(Engine, RelativeMenuIsAlsoCacheable) {
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::relativeLadder(8),
                        DesignSpaceOptions::paperDefault());
  WorkerPool Pool(1);
  EvalCache Cache(F.M, FrequencyMenu::relativeLadder(8));
  ExploreOptions Cached;
  Cached.Cache = &Cache;
  auto RC = Eng.explore(Pool, Cached);
  auto RD = Eng.explore(Pool);
  EXPECT_GT(RC.Stats.CacheHits, 0u);
  for (size_t I = 0; I < RC.Candidates.size(); ++I) {
    ASSERT_EQ(RC.Candidates[I].Design.Valid, RD.Candidates[I].Design.Valid);
    if (RC.Candidates[I].Design.Valid) {
      EXPECT_EQ(RC.Candidates[I].Design.EstED2,
                RD.Candidates[I].Design.EstED2);
    }
  }
}

TEST(Engine, MismatchedCacheIsRefused) {
  // A cache bound to another machine or menu would serve that
  // binding's timing as this one's: refused in every build type.
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  WorkerPool Pool(1);
  MachineDescription TwoBuses = MachineDescription::paperDefault(2);
  EvalCache OtherMachine(TwoBuses, FrequencyMenu::continuous());
  EvalCache OtherMenu(F.M, FrequencyMenu::relativeLadder(8));
  for (EvalCache *Bad : {&OtherMachine, &OtherMenu}) {
    ExploreOptions Opts;
    Opts.Cache = Bad;
    EXPECT_THROW(Eng.explore(Pool, Opts), std::invalid_argument);
    EXPECT_EQ(Bad->size(), 0u);
  }
}

TEST(Engine, LongLivedPoolAndCacheAreBitIdenticalToSerialFreshCache) {
  // The Session substrate: a long-lived WorkerPool plus a shared
  // EvalCache must reproduce a serial run on a fresh cache exactly, and
  // a second explore over the same grid must be served entirely from
  // the shared cache (zero new misses).
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  WorkerPool SerialPool(1);
  EvalCache Fresh(F.M, FrequencyMenu::continuous());
  ExploreOptions SerialOpts;
  SerialOpts.Cache = &Fresh;
  auto Serial = Eng.explore(SerialPool, SerialOpts);

  WorkerPool Pool(4);
  EvalCache Shared(F.M, FrequencyMenu::continuous());
  ExploreOptions Opts;
  Opts.Cache = &Shared;
  auto First = Eng.explore(Pool, Opts);
  EXPECT_EQ(First.Stats.ThreadsUsed, 4u);
  ASSERT_EQ(First.Candidates.size(), Serial.Candidates.size());
  for (size_t I = 0; I < First.Candidates.size(); ++I) {
    ASSERT_EQ(First.Candidates[I].Design.Valid,
              Serial.Candidates[I].Design.Valid);
    if (!First.Candidates[I].Design.Valid)
      continue;
    EXPECT_EQ(First.Candidates[I].Design.EstED2,
              Serial.Candidates[I].Design.EstED2);
    EXPECT_EQ(First.Candidates[I].Design.EstTexecNs,
              Serial.Candidates[I].Design.EstTexecNs);
    EXPECT_EQ(First.Candidates[I].Design.EstEnergy,
              Serial.Candidates[I].Design.EstEnergy);
  }
  EXPECT_EQ(First.Frontier, Serial.Frontier);
  // Stats report this explore's own calls, not the cache's lifetime
  // totals. Under concurrency two workers may race to first query a
  // key and both count a miss (duplicate computes are by-design), so
  // the split is only bounded, while the total is exact.
  EXPECT_EQ(First.Stats.CacheHits + First.Stats.CacheMisses,
            Serial.Stats.CacheHits + Serial.Stats.CacheMisses);
  EXPECT_GE(First.Stats.CacheMisses, Serial.Stats.CacheMisses);
  EXPECT_GT(First.Stats.CacheHits, 0u);

  // A fully populated cache cannot miss: the second explore's stats
  // are deterministic for any thread count.
  auto Second = Eng.explore(Pool, Opts);
  EXPECT_EQ(Second.Stats.CacheMisses, 0u);
  EXPECT_GT(Second.Stats.CacheHits, 0u);
  EXPECT_EQ(Second.Best.EstED2, Serial.Best.EstED2);
}

TEST(Engine, SharedCacheHitsAcrossStructurallyIdenticalPrograms) {
  // Two "programs" containing the same loop structures under different
  // names and weights share every timing entry: the second explore
  // sees zero misses through the loop-fingerprint keys.
  Fixture A({makeChainRecurrenceLoop("a_rec", 1, 2, 1, 4, 64, 0.7),
             makeStreamLoop("a_s", 5, 64, 0.3)});
  Fixture B({makeChainRecurrenceLoop("b_rec", 1, 2, 1, 4, 64, 0.2),
             makeStreamLoop("b_s", 5, 64, 0.8)});
  EnergyModel EA = A.energy(), EB = B.energy();
  WorkerPool Pool(2);
  EvalCache Shared(A.M, FrequencyMenu::continuous());
  ExploreOptions Opts;
  Opts.Cache = &Shared;

  ExplorationEngine EngA(A.Profile, A.M, EA, A.Tech,
                         FrequencyMenu::continuous(),
                         DesignSpaceOptions::paperDefault());
  auto RA = EngA.explore(Pool, Opts);
  ASSERT_TRUE(RA.Best.Valid);
  EXPECT_GT(RA.Stats.CacheMisses, 0u);

  // B's machine is a distinct object with equal structure: the cache
  // accepts it by value equality.
  ExplorationEngine EngB(B.Profile, B.M, EB, B.Tech,
                         FrequencyMenu::continuous(),
                         DesignSpaceOptions::paperDefault());
  auto RB = EngB.explore(Pool, Opts);
  ASSERT_TRUE(RB.Best.Valid);
  EXPECT_EQ(RB.Stats.CacheMisses, 0u)
      << "all loop structures were already cached by program A";
  EXPECT_GT(RB.Stats.CacheHits, 0u);
}

// --- Report ---------------------------------------------------------------

TEST(Report, CsvHasOneRowPerCandidatePlusHeader) {
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  WorkerPool Pool(1);
  auto R = Eng.explore(Pool);
  ExplorationReport Rep("fixture", R);
  std::string Csv = Rep.csv();
  size_t Lines = 0;
  for (char C : Csv)
    Lines += C == '\n';
  EXPECT_EQ(Lines, R.Candidates.size() + 1);
  EXPECT_EQ(Csv.rfind("index,fast_factor,slow_ratio", 0), 0u);
}

TEST(Report, JsonMentionsStatsFrontierAndBest) {
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  WorkerPool Pool(1);
  auto R = Eng.explore(Pool);
  ExplorationReport Rep("fixture", R);
  std::string Json = Rep.json();
  EXPECT_NE(Json.find("\"stats\""), std::string::npos);
  EXPECT_NE(Json.find("\"frontier\""), std::string::npos);
  EXPECT_NE(Json.find("\"best\""), std::string::npos);
  EXPECT_NE(Json.find("\"candidates\""), std::string::npos);
  EXPECT_NE(Json.find("\"program\": \"fixture\""), std::string::npos);
}

TEST(Report, WritesFiles) {
  Fixture F(mixedLoops());
  EnergyModel E = F.energy();
  ExplorationEngine Eng(F.Profile, F.M, E, F.Tech,
                        FrequencyMenu::continuous(),
                        DesignSpaceOptions::paperDefault());
  WorkerPool Pool(1);
  auto R = Eng.explore(Pool);
  ExplorationReport Rep("fixture", R);
  std::string Base = ::testing::TempDir();
  ASSERT_TRUE(Rep.writeCsv(Base + "explore_test.csv"));
  ASSERT_TRUE(Rep.writeJson(Base + "explore_test.json"));
  std::FILE *In = std::fopen((Base + "explore_test.csv").c_str(), "rb");
  ASSERT_NE(In, nullptr);
  std::fclose(In);
}

} // namespace
