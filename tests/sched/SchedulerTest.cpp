//===- tests/sched/SchedulerTest.cpp - Modulo scheduler properties ----------===//
//
// Property tests of the heterogeneous modulo scheduler: over random
// loops and machine configurations, every produced schedule must pass
// the independent validator (dependences under the exact cross-domain
// timing rule, modulo resource exclusivity, II*period == IT, register
// pressure) and execute functionally equivalently to sequential code.
//
//===----------------------------------------------------------------------===//

#include "partition/LoopScheduler.h"
#include "sched/HeteroModuloScheduler.h"
#include "sched/TickGraph.h"
#include "vliwsim/PipelinedSimulator.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

HeteroConfig configFor(const MachineDescription &M, unsigned Kind) {
  HeteroConfig C = HeteroConfig::reference(M);
  switch (Kind % 4) {
  case 0: // reference homogeneous
    break;
  case 1: // one fast 0.9, three slow 1.35
    C.Clusters[0].PeriodNs = Rational(9, 10);
    for (unsigned I = 1; I < C.numClusters(); ++I)
      C.Clusters[I].PeriodNs = Rational(27, 20);
    C.Icn.PeriodNs = Rational(9, 10);
    C.Cache.PeriodNs = Rational(9, 10);
    break;
  case 2: // one fast 1.0, three slow 1.25
    for (unsigned I = 1; I < C.numClusters(); ++I)
      C.Clusters[I].PeriodNs = Rational(5, 4);
    break;
  case 3: // fast 1.05, slow 1.4 (= 1.05 * 4/3)
    C.Clusters[0].PeriodNs = Rational(21, 20);
    for (unsigned I = 1; I < C.numClusters(); ++I)
      C.Clusters[I].PeriodNs = Rational(7, 5);
    C.Icn.PeriodNs = Rational(21, 20);
    C.Cache.PeriodNs = Rational(21, 20);
    break;
  }
  return C;
}

class SchedulerPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchedulerPropertyTest, RandomLoopsScheduleValidAndExact) {
  auto [Seed, ConfigKind] = GetParam();
  RNG Rng(static_cast<uint64_t>(Seed) * 7919 + 13);
  RandomLoopParams Params;
  Params.MinOps = 6;
  Params.MaxOps = 28;
  Params.Trip = 24;
  Loop L = makeRandomLoop(Rng, Params, "prop");
  ASSERT_EQ(L.validate(), "");

  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = configFor(M, static_cast<unsigned>(ConfigKind));
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success) << "seed " << Seed << ": " << R.Failure;

  EXPECT_EQ(validateSchedule(M, R.PG, R.Sched), "");
  EXPECT_TRUE(R.Pressure.fits(M));
  EXPECT_EQ(checkFunctionalEquivalence(L, R.PG, R.Sched, M, L.TripCount),
            "");

  // IT >= MIT by construction, and II * period == IT for each domain.
  EXPECT_GE(R.Sched.Plan.ITNs, R.MITNs);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchedulerPropertyTest,
                         ::testing::Combine(::testing::Range(0, 25),
                                            ::testing::Range(0, 4)));

TEST(Scheduler, AsapDetectsInfeasibleRecurrence) {
  // Accumulator with latency 3 at distance 1 cannot meet IT = 2 ns.
  Loop L = makeWideRecurrenceLoop("tight", 1, 1, 0, 8, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  DDG G = DDG::build(L);
  Partition P = Partition::allInCluster(G.size(), 0);
  PartitionedGraph PG = PartitionedGraph::build(L, G, M.Isa, P, 4, 1);
  HeteroConfig C = HeteroConfig::reference(M);
  DomainPlanner Planner(M, C, FrequencyMenu::continuous());
  auto Plan = Planner.planForIT(Rational(2));
  ASSERT_TRUE(Plan.has_value());
  auto T = TickGraph::build(PG, *Plan);
  ASSERT_TRUE(T.has_value());
  std::vector<int64_t> Asap;
  EXPECT_FALSE(T->computeAsapTicksInto(Asap));
  // And at IT = 3 ns it becomes feasible.
  auto Plan3 = Planner.planForIT(Rational(3));
  ASSERT_TRUE(Plan3.has_value());
  auto T3 = TickGraph::build(PG, *Plan3);
  ASSERT_TRUE(T3.has_value());
  EXPECT_TRUE(T3->computeAsapTicksInto(Asap));
}

TEST(Scheduler, AchievesMITOnSimpleStream) {
  Loop L = makeStreamLoop("s", 4, 32, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success) << R.Failure;
  // 12 memory ops over 4 ports: MII = 3; the schedule should reach it
  // within one IT step.
  EXPECT_LE(R.Sched.Plan.ITNs, Rational(4));
}

TEST(Scheduler, HeterogeneousIIsDifferPerDomain) {
  Loop L = makeChainRecurrenceLoop("r", 1, 2, 1, 3, 32, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = configFor(M, 1);
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success) << R.Failure;
  EXPECT_GT(R.Sched.Plan.Clusters[0].II, R.Sched.Plan.Clusters[1].II);
  for (unsigned D = 0; D < 4; ++D)
    EXPECT_EQ(Rational(R.Sched.Plan.Clusters[D].II) *
                  R.Sched.Plan.Clusters[D].PeriodNs,
              R.Sched.Plan.ITNs);
}

TEST(Scheduler, CriticalRecurrenceLandsInFastCluster) {
  // recMII 12 (1 fmul + 2 fadd at distance 1); fast cluster 0.9 ns,
  // slow 1.35 ns: at IT = 10.8 only the fast cluster has II >= 12.
  Loop L = makeChainRecurrenceLoop("r", 1, 2, 1, 4, 32, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = configFor(M, 1);
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success) << R.Failure;

  DDG G = DDG::build(L);
  RecurrenceInfo Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
  ASSERT_FALSE(Recs.Recurrences.empty());
  int64_t SlowII = R.Sched.Plan.Clusters[1].II;
  if (Recs.Recurrences[0].RecMII > SlowII) {
    for (unsigned N : Recs.Recurrences[0].Nodes)
      EXPECT_EQ(R.Assignment.cluster(N), 0u)
          << "critical recurrence node outside the fast cluster";
  }
}

TEST(Scheduler, ValidatorCatchesCorruption) {
  Loop L = makeStreamLoop("v", 3, 16, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success);
  ASSERT_EQ(validateSchedule(M, R.PG, R.Sched), "");

  // Move a dependent op one slot earlier: some invariant must break.
  Schedule Bad = R.Sched;
  for (unsigned N = 0; N < R.PG.size(); ++N) {
    if (R.PG.inEdges(N).empty())
      continue;
    Bad.Nodes[N].Slot -= 1;
    break;
  }
  EXPECT_NE(validateSchedule(M, R.PG, Bad), "");
}

TEST(Scheduler, RegisterPressureFailsOnTinyFiles) {
  // A machine with 2-register files cannot hold a wide stream loop.
  MachineDescription M = MachineDescription::paperDefault();
  for (auto &Cl : M.Clusters)
    Cl.Registers = 2;
  Loop L = makeStreamLoop("wide", 8, 16, 1.0);
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduleOptions O;
  O.MaxITSteps = 6; // keep the failure fast
  LoopScheduler Sched(M, C, O);
  LoopScheduleResult R = Sched.schedule(L);
  // Either it fails, or it found a (much longer) fitting schedule.
  if (R.Success) {
    EXPECT_TRUE(R.Pressure.fits(M));
    EXPECT_GT(R.Sched.Plan.ITNs, Rational(6));
  }
}

} // namespace
