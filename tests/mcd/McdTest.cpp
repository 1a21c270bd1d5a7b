//===- tests/mcd/McdTest.cpp - Multi-clock-domain model tests ---------------===//

#include "mcd/DomainPlanner.h"
#include "mcd/SyncModel.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <stdexcept>

using namespace hcvliw;

namespace {

TEST(FrequencyMenu, ContinuousPicksFloor) {
  FrequencyMenu M = FrequencyMenu::continuous();
  // fmax = 1 GHz, IT = 3.5 ns -> II = 3, f = 6/7 GHz.
  auto Sel = M.selectIIFreq(Rational(7, 2), Rational(1));
  ASSERT_TRUE(Sel.has_value());
  EXPECT_EQ(Sel->first, 3);
  EXPECT_EQ(Sel->second, Rational(6, 7));
}

TEST(FrequencyMenu, ContinuousFailsBelowOneSlot) {
  FrequencyMenu M = FrequencyMenu::continuous();
  EXPECT_FALSE(M.selectIIFreq(Rational(1, 2), Rational(1)).has_value());
}

TEST(FrequencyMenu, PaperFigure3Example) {
  // Clusters at 1 ns and 1.5 ns, IT = 3 ns: II = 3 and II = 2.
  FrequencyMenu M = FrequencyMenu::continuous();
  auto C1 = M.selectIIFreq(Rational(3), Rational(1));
  auto C2 = M.selectIIFreq(Rational(3), Rational(2, 3));
  ASSERT_TRUE(C1 && C2);
  EXPECT_EQ(C1->first, 3);
  EXPECT_EQ(C2->first, 2);
}

TEST(FrequencyMenu, UniformRequiresExactIntegrality) {
  // 4 frequencies {0.25, 0.5, 0.75, 1.0} GHz.
  FrequencyMenu M = FrequencyMenu::uniform(4, Rational(1));
  // IT = 4 ns: best is 1 GHz, II = 4.
  auto A = M.selectIIFreq(Rational(4), Rational(1));
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->first, 4);
  EXPECT_EQ(A->second, Rational(1));
  // IT = 4 ns with fmax 0.9: 0.75 GHz gives 3 slots.
  auto B = M.selectIIFreq(Rational(4), Rational(9, 10));
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->first, 3);
  EXPECT_EQ(B->second, Rational(3, 4));
  // IT = 10/3 ns: 0.75 GHz gives 2.5 slots (not integral), 0.5 never
  // integral either (5/3); 0.25: 5/6 -> no pair at all.
  EXPECT_FALSE(M.selectIIFreq(Rational(10, 3), Rational(1)).has_value());
}

TEST(FrequencyMenu, NextITStrictlyIncreasesAndIsFeasible) {
  for (const FrequencyMenu &M :
       {FrequencyMenu::continuous(), FrequencyMenu::uniform(8, Rational(1)),
        FrequencyMenu::relativeLadder(8)}) {
    Rational IT(3, 2);
    Rational Fmax(4, 5);
    for (int I = 0; I < 20; ++I) {
      Rational Next = M.nextIT(IT, Fmax);
      EXPECT_GT(Next, IT);
      EXPECT_TRUE(M.selectIIFreq(Next, Fmax).has_value());
      IT = Next;
    }
  }
}

TEST(FrequencyMenu, RelativeLadderKeepsFmax) {
  FrequencyMenu M = FrequencyMenu::relativeLadder(4);
  // Ratios: 1, 1/2, 2/3, 3/4. At a synchronizable IT, fmax itself wins.
  auto Sel = M.selectIIFreq(Rational(5), Rational(4, 5));
  ASSERT_TRUE(Sel.has_value());
  EXPECT_EQ(Sel->first, 4);
  EXPECT_EQ(Sel->second, Rational(4, 5));
}

TEST(FrequencyMenu, RelativeLadderRatios) {
  FrequencyMenu M = FrequencyMenu::relativeLadder(6);
  const auto &R = M.ratios();
  ASSERT_EQ(R.size(), 6u);
  EXPECT_EQ(R.front(), Rational(1));
  for (size_t I = 1; I < R.size(); ++I)
    EXPECT_LT(R[I], R[I - 1]); // sorted descending, distinct
  EXPECT_GE(R.back(), Rational(1, 2));
}

TEST(SyncModel, AlignUp) {
  EXPECT_EQ(alignUpToTick(Rational(5, 2), Rational(1)), Rational(3));
  EXPECT_EQ(alignUpToTick(Rational(3), Rational(1)), Rational(3));
  EXPECT_EQ(alignUpToTick(Rational(0), Rational(3, 2)), Rational(0));
}

TEST(SyncModel, SameFrequencyNoPenalty) {
  EXPECT_EQ(crossDomainArrival(Rational(7, 2), Rational(1), Rational(1)),
            Rational(7, 2));
}

TEST(SyncModel, CrossFrequencyAlignsPlusOneCycle) {
  // Ready at 2.5 ns, consumer period 1.5 ns: align to 3.0, +1.5 queue.
  EXPECT_EQ(crossDomainArrival(Rational(5, 2), Rational(1), Rational(3, 2)),
            Rational(9, 2));
  // Exactly on a tick still pays the queue cycle.
  EXPECT_EQ(crossDomainArrival(Rational(3), Rational(1), Rational(3, 2)),
            Rational(9, 2));
}

class PlannerTest : public ::testing::Test {
protected:
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);

  void makeHeterogeneous() {
    C.Clusters[0].PeriodNs = Rational(9, 10);
    for (unsigned I = 1; I < 4; ++I)
      C.Clusters[I].PeriodNs = Rational(27, 20); // 1.35 ns
    C.Icn.PeriodNs = Rational(9, 10);
    C.Cache.PeriodNs = Rational(9, 10);
  }
};

TEST_F(PlannerTest, HomogeneousPlanIIsEqual) {
  DomainPlanner P(M, C, FrequencyMenu::continuous());
  auto Plan = P.planForIT(Rational(5));
  ASSERT_TRUE(Plan.has_value());
  for (const auto &D : Plan->Clusters) {
    EXPECT_EQ(D.II, 5);
    EXPECT_EQ(D.PeriodNs, Rational(1));
  }
  EXPECT_EQ(Plan->Bus.II, 5);
  EXPECT_EQ(Plan->Cache.II, 5);
}

TEST_F(PlannerTest, HeterogeneousIIsFollowPeriods) {
  makeHeterogeneous();
  DomainPlanner P(M, C, FrequencyMenu::continuous());
  // IT = 5.4 ns: fast 0.9 ns -> II 6; slow 1.35 ns -> II 4.
  auto Plan = P.planForIT(Rational(27, 5));
  ASSERT_TRUE(Plan.has_value());
  EXPECT_EQ(Plan->Clusters[0].II, 6);
  EXPECT_EQ(Plan->Clusters[1].II, 4);
  // II * running period == IT in every domain.
  for (const auto &D : Plan->Clusters)
    EXPECT_EQ(Rational(D.II) * D.PeriodNs, Rational(27, 5));
}

TEST_F(PlannerTest, ConfigFastest) {
  makeHeterogeneous();
  EXPECT_EQ(C.fastestClusterPeriod(), Rational(9, 10));
  EXPECT_EQ(C.fastestCluster(), 0u);
  EXPECT_FALSE(C.hasUniformClusterFrequency());
  EXPECT_TRUE(HeteroConfig::reference(M).hasUniformClusterFrequency());
}

TEST_F(PlannerTest, MITIsRecurrenceBound) {
  makeHeterogeneous();
  DomainPlanner P(M, C, FrequencyMenu::continuous());
  // recMII 10 with a tiny body: recMIT = 10 * 0.9 = 9 ns dominates.
  std::vector<unsigned> Counts(NumFUKinds, 0);
  Counts[static_cast<unsigned>(FUKind::FpFU)] = 2;
  EXPECT_EQ(P.computeMIT(10, Counts), Rational(9));
}

TEST_F(PlannerTest, MITIsResourceBound) {
  makeHeterogeneous();
  DomainPlanner P(M, C, FrequencyMenu::continuous());
  // 20 FP ops, no recurrence: capacity needs
  // II_fast + 3*II_slow >= 20.
  std::vector<unsigned> Counts(NumFUKinds, 0);
  Counts[static_cast<unsigned>(FUKind::FpFU)] = 20;
  Rational MIT = P.computeMIT(0, Counts);
  auto Plan = P.planForIT(MIT);
  ASSERT_TRUE(Plan.has_value());
  EXPECT_TRUE(P.hasCapacity(*Plan, Counts));
  // And the step before would not have had capacity (minimality): MIT
  // must be at least 20/ (1/0.9 + 3/1.35) ns.
  EXPECT_GE(MIT, Rational(20) / (Rational(10, 9) + Rational(3) *
                                                       Rational(20, 27)));
}

TEST_F(PlannerTest, PaperFigure4ResMITExample) {
  // Two clusters, 1 ns and 5/3 ns, one "slot" per cycle each, five
  // unit ops -> IT = 10/3 ns (3 slots + 2 slots), as in Figure 4.
  MachineDescription M2 = MachineDescription::paperDefault(1, 2);
  // One FU of each kind per cluster; use INT ops only.
  HeteroConfig C2 = HeteroConfig::reference(M2);
  C2.Clusters[0].PeriodNs = Rational(1);
  C2.Clusters[1].PeriodNs = Rational(5, 3);
  DomainPlanner P(M2, C2, FrequencyMenu::continuous());
  std::vector<unsigned> Counts(NumFUKinds, 0);
  Counts[static_cast<unsigned>(FUKind::IntFU)] = 5;
  // recMIT from the paper's example: 3 cycles * 1 ns = 3 ns; resMIT
  // pushes it to 10/3.
  EXPECT_EQ(P.computeMIT(3, Counts), Rational(10, 3));
}

TEST_F(PlannerTest, NextITMonotone) {
  makeHeterogeneous();
  for (const FrequencyMenu &Menu :
       {FrequencyMenu::continuous(), FrequencyMenu::relativeLadder(8)}) {
    DomainPlanner P(M, C, Menu);
    Rational IT(2);
    for (int I = 0; I < 30; ++I) {
      Rational Next = P.nextIT(IT);
      EXPECT_GT(Next, IT);
      IT = Next;
    }
  }
}

/// The MIT search as it ran before it started at the capacity bound:
/// every point of the nextIT() sequence from max(recMIT, one
/// fastest-cluster cycle) upward, one slot at a time, for at most
/// \p Budget probes; std::nullopt when they run out. \p Probes, when
/// given, receives the probes taken.
std::optional<Rational> steppingMIT(const DomainPlanner &P,
                                    const HeteroConfig &C, int64_t RecMII,
                                    const std::vector<unsigned> &Counts,
                                    unsigned Budget,
                                    unsigned *Probes = nullptr) {
  Rational IT = Rational::max(Rational(RecMII) * C.fastestClusterPeriod(),
                              C.fastestClusterPeriod());
  MachinePlan Probe;
  for (unsigned N = 0; N < Budget; ++N) {
    if (Probes)
      *Probes = N + 1;
    if (P.planForITInto(Probe, IT) && P.hasCapacity(Probe, Counts))
      return IT;
    IT = P.nextIT(IT);
  }
  return std::nullopt;
}

TEST_F(PlannerTest, MITMatchesTheSteppingOracle) {
  // Seeded cases: reference or random heterogeneous periods (k/20 ns,
  // k in [18, 30], so every domain is within 2x of the fastest and
  // every absolute menu has an entry below each fmax), random per-kind
  // op counts and recMII, on every menu family.
  RNG Rng(20071);
  unsigned ResourceBound = 0;
  for (unsigned Case = 0; Case < 200; ++Case) {
    HeteroConfig Cfg = HeteroConfig::reference(M);
    if (Rng.nextBool(0.75)) {
      // The Section 3.2 shape: fast clusters first, slow ones after.
      Rational Fast(Rng.nextInt(18, 24), 20), Slow(Rng.nextInt(24, 30), 20);
      int64_t NumFast = Rng.nextInt(1, 3);
      for (unsigned I = 0; I < Cfg.numClusters(); ++I)
        Cfg.Clusters[I].PeriodNs = I < NumFast ? Fast : Slow;
      Cfg.Icn.PeriodNs = Rng.nextBool(0.5) ? Fast : Slow;
      Cfg.Cache.PeriodNs = Rng.nextBool(0.5) ? Fast : Slow;
    }
    Rational MaxGHz = Cfg.fastestClusterPeriod().reciprocal();
    for (const auto &D : {Cfg.Icn, Cfg.Cache})
      MaxGHz = Rational::max(MaxGHz, D.fmaxGHz());
    FrequencyMenu Menu = FrequencyMenu::continuous();
    switch (Rng.nextInt(0, 5)) {
    case 0:
      break;
    case 1:
      Menu = FrequencyMenu::relativeLadder(4);
      break;
    case 2:
      Menu = FrequencyMenu::relativeLadder(8);
      break;
    case 3:
      Menu = FrequencyMenu::relativeLadder(16);
      break;
    case 4:
      Menu = FrequencyMenu::uniform(Rng.nextBool(0.5) ? 4 : 8, MaxGHz);
      break;
    case 5:
      Menu = FrequencyMenu::dividerLadder(Rng.nextBool(0.5) ? 4 : 8, MaxGHz);
      break;
    }
    std::vector<unsigned> Counts(NumFUKinds, 0);
    for (FUKind K : {FUKind::IntFU, FUKind::FpFU, FUKind::MemPort})
      Counts[static_cast<unsigned>(K)] =
          static_cast<unsigned>(Rng.nextInt(0, 240));
    int64_t RecMII = Rng.nextInt(0, 40);

    DomainPlanner P(M, Cfg, Menu);
    unsigned Probes = 0;
    std::optional<Rational> Want =
        steppingMIT(P, Cfg, RecMII, Counts, 1u << 13, &Probes);
    ASSERT_TRUE(Want.has_value()) << Case;
    EXPECT_EQ(P.computeMIT(RecMII, Counts), *Want) << Case;
    ResourceBound += Probes > 1;
  }
  // Most cases are resource-bound, where the capacity start skips
  // probes.
  EXPECT_GT(ResourceBound, 150u);
}

TEST_F(PlannerTest, MITFarAboveRecMITNeedsNoProbeBudget) {
  // 40000 FP ops on the reference machine: the MIT lies thousands of
  // one-slot (1 ns) steps above recMIT, past the probe budget of a walk
  // from recMIT, but is the capacity start's first probe.
  DomainPlanner P(M, C, FrequencyMenu::continuous());
  std::vector<unsigned> Counts(NumFUKinds, 0);
  Counts[static_cast<unsigned>(FUKind::FpFU)] = 40000;
  unsigned FpUnits = 0;
  for (const auto &Cl : M.Clusters)
    FpUnits += Cl.fuCount(FUKind::FpFU);
  ASSERT_GT(FpUnits, 0u);
  Rational Want((40000 + FpUnits - 1) / FpUnits);
  ASSERT_GT(Want, Rational(DomainPlanner::MaxMITProbes));
  EXPECT_FALSE(
      steppingMIT(P, C, 1, Counts, DomainPlanner::MaxMITProbes).has_value());
  EXPECT_EQ(P.computeMIT(1, Counts), Want);
  EXPECT_EQ(steppingMIT(P, C, 1, Counts, 1u << 16), Want);
}

// Hostile clock periods: computeMIT must end with an exception, in every
// build type and well under a second, instead of spinning.
class HostilePlannerTest : public PlannerTest {
protected:
  void setPeriods(Rational Even, Rational Odd) {
    for (unsigned I = 0; I < C.numClusters(); ++I)
      C.Clusters[I].PeriodNs = I % 2 ? Odd : Even;
  }

  /// Runs computeMIT on a 20-FP-op loop; returns the wall time in ms.
  template <typename Exception>
  double expectMITThrows(const FrequencyMenu &Menu) {
    DomainPlanner P(M, C, Menu);
    std::vector<unsigned> Counts(NumFUKinds, 0);
    Counts[static_cast<unsigned>(FUKind::FpFU)] = 20;
    auto Start = std::chrono::steady_clock::now();
    EXPECT_THROW(P.computeMIT(0, Counts), Exception);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }
};

TEST_F(HostilePlannerTest, CoprimePeriodsNear4e9Throw) {
  // Slot arithmetic on these periods leaves the int64 Rational range;
  // without the range check the IT stopped growing and the probe loop
  // never ended.
  setPeriods(Rational(4000000009, 4000000007),
             Rational(4000000007, 4000000009));
  EXPECT_LT(expectMITThrows<std::overflow_error>(FrequencyMenu::continuous()),
            1000.0);
}

TEST_F(HostilePlannerTest, UnalignedPeriodsOnALadderExhaustTheProbes) {
  // The IT grows, but the two clusters' slot grids under a 4-step ladder
  // almost never coincide, so no probe yields a plan.
  setPeriods(Rational(1000003, 1000000), Rational(999983, 1000000));
  EXPECT_LT(expectMITThrows<std::invalid_argument>(
                FrequencyMenu::relativeLadder(4)),
            1000.0);
}

} // namespace
