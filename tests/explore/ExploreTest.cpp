//===- tests/explore/ExploreTest.cpp - Exploration engine tests -------------===//

#include "explore/ExplorationEngine.h"
#include "explore/ExplorationReport.h"
#include "profiling/Profiler.h"
#include "runtime/WorkerPool.h"
#include "workloads/SpecFPSuite.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

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

/// Bit pattern of \p D: cached and direct evaluation must agree
/// exactly, not approximately.
uint64_t bits(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

void expectSameOperatingPoint(const DomainOperatingPoint &A,
                              const DomainOperatingPoint &B,
                              const std::string &Where) {
  EXPECT_EQ(A.PeriodNs, B.PeriodNs) << Where;
  EXPECT_EQ(bits(A.Vdd), bits(B.Vdd)) << Where;
  EXPECT_EQ(bits(A.Vth), bits(B.Vth)) << Where;
}

TEST(Engine, CachedEvaluationIsBitIdenticalToDirectUnderEveryMenu) {
  // The cache keys continuous and relative menus on the slow/fast ratio
  // and rescales; absolute menus key on the exact period pair. Every
  // candidate of every SPECfp program must come out bit-identical to
  // direct evaluation on both key paths, at the paper's one fast
  // cluster and at the all-slow and all-fast edge shapes (where the
  // slowest cluster period is one of the two periods whatever the
  // ratio).
  MachineDescription M = MachineDescription::paperDefault();
  TechnologyModel Tech = TechnologyModel::paperDefault();
  Profiler Prof(M);
  std::vector<ProgramProfile> Profiles;
  for (const BenchmarkProgram &Prog : buildSpecFPSuite()) {
    auto P = Prof.profileProgram(Prog.Name, Prog.Loops);
    ASSERT_TRUE(P.has_value()) << Prog.Name;
    Profiles.push_back(std::move(*P));
  }
  ASSERT_EQ(Profiles.size(), 10u);

  const std::pair<const char *, FrequencyMenu> Menus[] = {
      {"continuous", FrequencyMenu::continuous()},
      {"relativeLadder(16)", FrequencyMenu::relativeLadder(16)},
      {"dividerLadder(16, 6/5)",
       FrequencyMenu::dividerLadder(16, Rational(6, 5))},
      {"uniform(8, 6/5)", FrequencyMenu::uniform(8, Rational(6, 5))}};
  WorkerPool Pool(1);
  size_t Compared = 0;
  for (const auto &[MenuName, Menu] : Menus) {
    for (unsigned NumFast : {1u, 0u, 4u}) {
      DesignSpaceOptions Space = DesignSpaceOptions::paperDefault();
      Space.NumFastClusters = NumFast;
      if (NumFast != 1)
        Space.SlowRatios.push_back(Rational(9, 10)); // slow faster than fast
      // One cache across the suite, as a Session shares it.
      EvalCache Cache(M, Menu);
      for (const ProgramProfile &P : Profiles) {
        EnergyModel E(EnergyBreakdown(), P.Totals, P.TexecRefNs,
                      M.numClusters());
        ExplorationEngine Eng(P, M, E, Tech, Menu, Space);
        auto RC = Eng.explore(Pool, &Cache);
        auto RD = Eng.explore(Pool);
        EXPECT_EQ(RD.Stats.CacheHits + RD.Stats.CacheMisses, 0u);
        ASSERT_EQ(RC.Candidates.size(), RD.Candidates.size());
        for (size_t I = 0; I < RC.Candidates.size(); ++I) {
          const SelectedDesign &A = RC.Candidates[I].Design;
          const SelectedDesign &B = RD.Candidates[I].Design;
          std::string Where = std::string(MenuName) + " NumFast=" +
                              std::to_string(NumFast) + " " + P.Name +
                              " candidate " + std::to_string(I);
          ASSERT_EQ(A.Valid, B.Valid) << Where;
          ++Compared;
          if (!A.Valid)
            continue;
          EXPECT_EQ(bits(A.EstTexecNs), bits(B.EstTexecNs)) << Where;
          EXPECT_EQ(bits(A.EstEnergy), bits(B.EstEnergy)) << Where;
          EXPECT_EQ(bits(A.EstED2), bits(B.EstED2)) << Where;
          ASSERT_EQ(A.Config.Clusters.size(), B.Config.Clusters.size());
          for (size_t C = 0; C < A.Config.Clusters.size(); ++C)
            expectSameOperatingPoint(A.Config.Clusters[C],
                                     B.Config.Clusters[C], Where);
          expectSameOperatingPoint(A.Config.Icn, B.Config.Icn, Where);
          expectSameOperatingPoint(A.Config.Cache, B.Config.Cache, Where);
        }
        EXPECT_EQ(RC.Frontier, RD.Frontier) << MenuName << " " << P.Name;
      }
      // Ratio-keyed menus share entries between fast factors, so the
      // first program already hits; absolute menus hit across programs.
      EXPECT_GT(Cache.hits(), 0u) << MenuName << " NumFast=" << NumFast;
    }
  }
  EXPECT_EQ(Compared, 4u * 10u * (20u + 2u * 25u));
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
  auto R1 = Eng.explore(OnePool, &OneCache);
  auto RN = Eng.explore(ManyPool, &ManyCache);
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
    EXPECT_THROW(Eng.explore(Pool, Bad), std::invalid_argument);
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
  auto Serial = Eng.explore(SerialPool, &Fresh);

  WorkerPool Pool(4);
  EvalCache Shared(F.M, FrequencyMenu::continuous());
  auto First = Eng.explore(Pool, &Shared);
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
  auto Second = Eng.explore(Pool, &Shared);
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

  ExplorationEngine EngA(A.Profile, A.M, EA, A.Tech,
                         FrequencyMenu::continuous(),
                         DesignSpaceOptions::paperDefault());
  auto RA = EngA.explore(Pool, &Shared);
  ASSERT_TRUE(RA.Best.Valid);
  EXPECT_GT(RA.Stats.CacheMisses, 0u);

  // B's machine is a distinct object with equal structure: the cache
  // accepts it by value equality.
  ExplorationEngine EngB(B.Profile, B.M, EB, B.Tech,
                         FrequencyMenu::continuous(),
                         DesignSpaceOptions::paperDefault());
  auto RB = EngB.explore(Pool, &Shared);
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
