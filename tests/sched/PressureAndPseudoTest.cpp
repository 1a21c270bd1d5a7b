//===- tests/sched/PressureAndPseudoTest.cpp - MaxLive + pseudo-schedules ---===//

#include "ir/LoopDSL.h"
#include "mcd/DomainPlanner.h"
#include "sched/PseudoScheduler.h"
#include "sched/RegisterPressure.h"
#include "partition/LoopScheduler.h"
#include "support/RNG.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace hcvliw;

namespace {

MachinePlan planAt(const MachineDescription &M, const HeteroConfig &C,
                   const Rational &IT) {
  DomainPlanner P(M, C, FrequencyMenu::continuous());
  auto Plan = P.planForIT(IT);
  EXPECT_TRUE(Plan.has_value());
  return *Plan;
}

TEST(RegisterPressure, LongLifetimeCountsMultipleRegisters) {
  // A value produced every II cycles but alive for ~2*II must occupy
  // two registers at some modulo slot.
  Loop L = parseSingleLoop(R"(
loop lt trip=16
  arrays A O
  x = load A
  y = fdiv x #3
  z = fadd y x
  store O z
endloop
)");
  MachineDescription M = MachineDescription::paperDefault(1, 1);
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success) << R.Failure;
  RegisterPressureResult P = computeRegisterPressure(R.PG, R.Sched);
  // x lives from its load until z reads it, across the fdiv's 18
  // cycles, while II is ~2-3: several overlapping copies of x.
  int64_t II = R.Sched.Plan.Clusters[0].II;
  EXPECT_GE(P.MaxLive[0], 18 / II);
  EXPECT_GT(P.SumLifetimes[0], 18);
}

TEST(RegisterPressure, FitsChecksPerCluster) {
  RegisterPressureResult R;
  R.MaxLive = {16, 3, 2, 1};
  R.SumLifetimes = {0, 0, 0, 0};
  MachineDescription M = MachineDescription::paperDefault();
  EXPECT_TRUE(R.fits(M));
  R.MaxLive[0] = 17;
  EXPECT_FALSE(R.fits(M));
}

/// The per-slot formula moduloMaxLiveInto replaces: every lifetime adds
/// floor(Len / II) at every modulo slot M plus one where
/// (M - DefSlot) mod II < Len mod II.
std::vector<int64_t> perSlotMaxLive(const std::vector<RegLifetime> &Lts,
                                    const MachinePlan &Plan) {
  const unsigned NC = static_cast<unsigned>(Plan.Clusters.size());
  std::vector<std::vector<int64_t>> Pressure(NC);
  for (unsigned C = 0; C < NC; ++C)
    Pressure[C].assign(static_cast<size_t>(Plan.Clusters[C].II), 0);
  for (const RegLifetime &L : Lts) {
    int64_t II = Plan.Clusters[L.Home].II;
    for (int64_t M = 0; M < II; ++M) {
      int64_t Shift = (M - L.DefSlot) % II;
      if (Shift < 0)
        Shift += II;
      Pressure[L.Home][static_cast<size_t>(M)] +=
          L.Len / II + (Shift < L.Len % II ? 1 : 0);
    }
  }
  std::vector<int64_t> MaxLive(NC, 0);
  for (unsigned C = 0; C < NC; ++C)
    for (int64_t V : Pressure[C])
      MaxLive[C] = std::max(MaxLive[C], V);
  return MaxLive;
}

TEST(RegisterPressure, DifferenceArrayMatchesPerSlotFormula) {
  // Seeded random lifetimes: IIs from 1 to 40, defs on either side of
  // 0, lengths from one slot to several IIs, so runs wrap past slot
  // II - 1 and whole IIs stack. One scratch serves every case.
  RNG Rng(0x9e6);
  PressureScratch Scratch;
  std::vector<int64_t> Got;
  unsigned Wrapped = 0, Stacked = 0;
  for (unsigned Case = 0; Case < 2000; ++Case) {
    MachinePlan Plan;
    Plan.Clusters.resize(static_cast<size_t>(Rng.nextInt(1, 4)));
    for (DomainPlan &D : Plan.Clusters)
      D.II = Rng.nextInt(1, 40);
    std::vector<RegLifetime> Lts(static_cast<size_t>(Rng.nextInt(0, 60)));
    for (RegLifetime &L : Lts) {
      L.Home = static_cast<unsigned>(
          Rng.nextInt(0, static_cast<int64_t>(Plan.Clusters.size()) - 1));
      const int64_t II = Plan.Clusters[L.Home].II;
      L.DefSlot = Rng.nextInt(-3 * II, 5 * II);
      L.Len = Rng.nextInt(1, 4 * II + 3);
      int64_t First = ((L.DefSlot % II) + II) % II;
      Wrapped += First + L.Len % II > II;
      Stacked += L.Len > II;
    }
    moduloMaxLiveInto(Got, Lts, Plan, Scratch);
    ASSERT_EQ(Got, perSlotMaxLive(Lts, Plan)) << "case " << Case;
  }
  EXPECT_GT(Wrapped, 0u);
  EXPECT_GT(Stacked, 0u);
}

TEST(PseudoScheduler, DetectsClusterOverCapacity) {
  Loop L = makeStreamLoop("s", 6, 16, 1.0); // 18 mem ops
  MachineDescription M = MachineDescription::paperDefault();
  DDG G = DDG::build(L);
  HeteroConfig C = HeteroConfig::reference(M);
  MachinePlan Plan = planAt(M, C, Rational(5));
  // Everything in one cluster: 18 memory ops >> 5 slots.
  Partition P = Partition::allInCluster(G.size(), 0);
  PseudoSchedule PS = estimatePseudoSchedule(L, G, M, Plan, P);
  EXPECT_FALSE(PS.Feasible);
  EXPECT_EQ(PS.Reason, "cluster capacity exceeded");
}

TEST(PseudoScheduler, DetectsBusOverCapacity) {
  Loop L = makeStreamLoop("s", 4, 16, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  DDG G = DDG::build(L);
  HeteroConfig C = HeteroConfig::reference(M);
  MachinePlan Plan = planAt(M, C, Rational(3));
  // Round-robin by op: every lane is cut several times -> many copies.
  Partition P;
  P.ClusterOf.resize(G.size());
  for (unsigned I = 0; I < G.size(); ++I)
    P.ClusterOf[I] = I % 4;
  PseudoSchedule PS = estimatePseudoSchedule(L, G, M, Plan, P);
  EXPECT_FALSE(PS.Feasible);
  EXPECT_EQ(PS.Reason, "bus capacity exceeded");
}

TEST(PseudoScheduler, DetectsInfeasibleRecurrence) {
  Loop L = makeWideRecurrenceLoop("r", 2, 1, 1, 16, 1.0); // recMII 6
  MachineDescription M = MachineDescription::paperDefault();
  DDG G = DDG::build(L);
  HeteroConfig C = HeteroConfig::reference(M);
  MachinePlan Plan = planAt(M, C, Rational(4));
  Partition P = Partition::allInCluster(G.size(), 0);
  PseudoSchedule PS = estimatePseudoSchedule(L, G, M, Plan, P);
  EXPECT_FALSE(PS.Feasible);
  EXPECT_EQ(PS.Reason, "recurrence infeasible");
}

TEST(PseudoScheduler, FeasibleReportsActivity) {
  Loop L = makeStreamLoop("s", 4, 16, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  DDG G = DDG::build(L);
  HeteroConfig C = HeteroConfig::reference(M);
  MachinePlan Plan = planAt(M, C, Rational(4));
  // One lane per cluster: no communications at all.
  Partition P;
  P.ClusterOf.resize(G.size());
  for (unsigned I = 0; I < G.size(); ++I)
    P.ClusterOf[I] = I / 5; // 5 ops per lane
  PseudoSchedule PS = estimatePseudoSchedule(L, G, M, Plan, P);
  ASSERT_TRUE(PS.Feasible) << PS.Reason;
  EXPECT_EQ(PS.Comms, 0u);
  double TotalW = 0;
  for (double W : PS.WInsPerCluster)
    TotalW += W;
  double Expected = 0;
  for (const auto &O : L.Ops)
    Expected += M.Isa.energy(O.Op);
  EXPECT_NEAR(TotalW, Expected, 1e-9);
  EXPECT_GT(PS.ItLengthNs, Rational(0));
}

TEST(PseudoScheduler, ItLengthGrowsWithSlowerClusters) {
  Loop L = makeStreamLoop("s", 4, 16, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  DDG G = DDG::build(L);

  Partition P;
  P.ClusterOf.resize(G.size());
  for (unsigned I = 0; I < G.size(); ++I)
    P.ClusterOf[I] = I / 5;

  HeteroConfig Ref = HeteroConfig::reference(M);
  MachinePlan PlanRef = planAt(M, Ref, Rational(4));
  PseudoSchedule Fast = estimatePseudoSchedule(L, G, M, PlanRef, P);

  HeteroConfig Slow = Ref;
  for (auto &Cl : Slow.Clusters)
    Cl.PeriodNs = Rational(3, 2);
  Slow.Icn.PeriodNs = Rational(3, 2);
  Slow.Cache.PeriodNs = Rational(3, 2);
  MachinePlan PlanSlow = planAt(M, Slow, Rational(6));
  PseudoSchedule Slower = estimatePseudoSchedule(L, G, M, PlanSlow, P);

  ASSERT_TRUE(Fast.Feasible && Slower.Feasible);
  EXPECT_GT(Slower.ItLengthNs, Fast.ItLengthNs);
}

} // namespace
