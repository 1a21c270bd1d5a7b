//===- tests/partition/PartitionerTest.cpp - Multilevel partitioner ---------===//

#include "configsel/Scaling.h"
#include "mcd/DomainPlanner.h"
#include "partition/LoopScheduler.h"
#include "partition/Partitioner.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

using namespace hcvliw;

namespace {

struct PartitionFixture {
  Loop L;
  DDG G;
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C;
  RecurrenceInfo Recs;
  MachinePlan Plan;

  PartitionFixture(Loop TheLoop, bool Heterogeneous, const Rational &IT)
      : L(std::move(TheLoop)) {
    G = DDG::build(L);
    C = HeteroConfig::reference(M);
    if (Heterogeneous) {
      C.Clusters[0].PeriodNs = Rational(9, 10);
      for (unsigned I = 1; I < 4; ++I)
        C.Clusters[I].PeriodNs = Rational(27, 20);
      C.Icn.PeriodNs = Rational(9, 10);
      C.Cache.PeriodNs = Rational(9, 10);
    }
    Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
    DomainPlanner Planner(M, C, FrequencyMenu::continuous());
    auto P = Planner.planForIT(IT);
    EXPECT_TRUE(P.has_value());
    Plan = *P;
  }

  PartitionContext ctx() const {
    PartitionContext Ctx;
    Ctx.L = &L;
    Ctx.G = &G;
    Ctx.M = &M;
    Ctx.Plan = &Plan;
    Ctx.Recs = &Recs;
    Ctx.TripCount = L.TripCount;
    return Ctx;
  }
};

TEST(Partitioner, ProducesCompleteAssignment) {
  PartitionFixture S(makeStreamLoop("s", 5, 16, 1.0), false, Rational(4));
  PartitionerOptions O;
  O.ED2Objective = false;
  auto P = partitionLoop(S.ctx(), O);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->size(), S.G.size());
  for (unsigned N = 0; N < P->size(); ++N)
    EXPECT_LT(P->cluster(N), 4u);
}

TEST(Partitioner, CriticalRecurrenceNotSplitAndHostFeasible) {
  // recMII 12 chain; at IT 10.8 only the fast cluster (II 12) fits it.
  PartitionFixture S(makeChainRecurrenceLoop("r", 1, 2, 1, 3, 16, 1.0), true,
          Rational(54, 5));
  PartitionerOptions O;
  O.ED2Objective = false;
  auto P = partitionLoop(S.ctx(), O);
  ASSERT_TRUE(P.has_value());
  ASSERT_FALSE(S.Recs.Recurrences.empty());
  const Recurrence &R = S.Recs.Recurrences[0];
  unsigned Home = P->cluster(R.Nodes[0]);
  for (unsigned N : R.Nodes)
    EXPECT_EQ(P->cluster(N), Home);
  EXPECT_GE(S.Plan.Clusters[Home].II, R.RecMII);
}

TEST(Partitioner, PrePlacementPicksSlowestFeasible) {
  // recMII 3 recurrence fits everywhere... use one that fits only in
  // clusters with II >= 6 but *all* clusters qualify: it must go to a
  // slow cluster (larger period) when pinning triggers.
  PartitionFixture S(makeWideRecurrenceLoop("r", 2, 1, 2, 16, 1.0), true,
          Rational(54, 5)); // fast II 12, slow II 8; recMII 6
  // recMII 6 < slow II 8: no pinning needed; the balance objective may
  // place it anywhere. Force a tighter IT where slow II < 6.
  DomainPlanner Planner(S.M, S.C, FrequencyMenu::continuous());
  auto Tight = Planner.planForIT(Rational(27, 5)); // fast 6, slow 4
  ASSERT_TRUE(Tight.has_value());
  PartitionContext Ctx = S.ctx();
  Ctx.Plan = &*Tight;
  PartitionerOptions O;
  O.ED2Objective = false;
  auto P = partitionLoop(Ctx, O);
  ASSERT_TRUE(P.has_value());
  const Recurrence &R = S.Recs.Recurrences[0];
  // Only the fast cluster (II 6) accommodates recMII 6.
  for (unsigned N : R.Nodes)
    EXPECT_EQ(P->cluster(N), 0u);
}

TEST(Partitioner, ReturnsNulloptWhenRecurrenceFitsNowhere) {
  PartitionFixture S(makeWideRecurrenceLoop("r", 4, 1, 1, 16, 1.0), true,
          Rational(9, 2)); // recMII 12; fast II 5, slow II 3
  PartitionerOptions O;
  O.ED2Objective = false;
  EXPECT_FALSE(partitionLoop(S.ctx(), O).has_value());
}

TEST(Partitioner, SingleClusterMachineTrivial) {
  MachineDescription M1 = MachineDescription::paperDefault(1, 1);
  Loop L = makeStreamLoop("s", 2, 16, 1.0);
  DDG G = DDG::build(L);
  HeteroConfig C = HeteroConfig::reference(M1);
  RecurrenceInfo Recs = analyzeRecurrences(G, M1.Isa.nodeLatencies(L));
  DomainPlanner Planner(M1, C, FrequencyMenu::continuous());
  auto Plan = Planner.planForIT(Rational(6));
  PartitionContext Ctx;
  Ctx.L = &L;
  Ctx.G = &G;
  Ctx.M = &M1;
  Ctx.Plan = &*Plan;
  Ctx.Recs = &Recs;
  Ctx.TripCount = 16;
  auto P = partitionLoop(Ctx, PartitionerOptions());
  ASSERT_TRUE(P.has_value());
  for (unsigned N = 0; N < P->size(); ++N)
    EXPECT_EQ(P->cluster(N), 0u);
}

TEST(Partitioner, ED2ObjectiveNotWorseThanBalanceUnderED2Score) {
  // Scoring the ED2-refined partition with the ED2 metric must not be
  // worse than scoring the balance-refined one with the same metric.
  PartitionFixture S(makeChainRecurrenceLoop("r", 1, 2, 1, 4, 64, 1.0), true,
          Rational(54, 5));
  ActivityCounts Ref;
  Ref.WeightedIns = 1000;
  Ref.Comms = 20;
  Ref.MemAccesses = 300;
  EnergyModel Energy(EnergyBreakdown(), Ref, 1e5, 4);
  TechnologyModel Tech = TechnologyModel::paperDefault();
  HeteroScaling Scaling = scalingForConfig(S.C, S.M, Tech);

  PartitionContext Ctx = S.ctx();
  Ctx.Energy = &Energy;
  Ctx.Scaling = &Scaling;

  PartitionerOptions EO;
  EO.ED2Objective = true;
  PartitionerOptions BO;
  BO.ED2Objective = false;

  auto PE = partitionLoop(Ctx, EO);
  auto PB = partitionLoop(Ctx, BO);
  ASSERT_TRUE(PE && PB);
  double ScoreE = scorePartition(Ctx, EO, *PE);
  double ScoreB = scorePartition(Ctx, EO, *PB);
  EXPECT_LE(ScoreE, ScoreB * 1.0001);
  EXPECT_TRUE(std::isfinite(ScoreE));
}

TEST(Partitioner, ED2ObjectiveWithoutEnergyModelThrows) {
  // Checked in every build type: the ED2 objective reads both the
  // energy model and the scaling.
  PartitionFixture S(makeStreamLoop("s", 4, 16, 1.0), true, Rational(6));
  ActivityCounts Ref;
  Ref.WeightedIns = 1000;
  Ref.Comms = 20;
  Ref.MemAccesses = 300;
  EnergyModel Energy(EnergyBreakdown(), Ref, 1e5, 4);
  PartitionContext Ctx = S.ctx();
  Ctx.Energy = &Energy; // no scaling
  PartitionerOptions EO;
  EO.ED2Objective = true;
  Partition P = Partition::allInCluster(S.G.size(), 0);
  EXPECT_THROW(partitionLoop(Ctx, EO), std::invalid_argument);
  EXPECT_THROW(scorePartition(Ctx, EO, P), std::invalid_argument);
  Ctx.Energy = nullptr;
  EXPECT_THROW(partitionLoop(Ctx, EO), std::invalid_argument);
  // The baseline objective needs neither.
  PartitionerOptions BO;
  BO.ED2Objective = false;
  EXPECT_NO_THROW(partitionLoop(Ctx, BO));
  EXPECT_NO_THROW(scorePartition(Ctx, BO, P));
}

TEST(Partitioner, AblationPrePlaceOffStillValid) {
  PartitionFixture S(makeChainRecurrenceLoop("r", 1, 2, 1, 3, 16, 1.0), true,
          Rational(54, 5));
  PartitionerOptions O;
  O.ED2Objective = false;
  O.PrePlaceRecurrences = false;
  auto P = partitionLoop(S.ctx(), O);
  // Refinement may still find a feasible assignment; if it does, it
  // must be complete.
  if (P.has_value()) {
    EXPECT_EQ(P->size(), S.G.size());
  }
}

TEST(LoopSchedulerDriver, ReportsFailureOnImpossibleLoop) {
  // More live values than total registers at any II: driver must give
  // up with a failure string rather than loop forever.
  MachineDescription M = MachineDescription::paperDefault();
  for (auto &Cl : M.Clusters)
    Cl.Registers = 1;
  Loop L = makeStreamLoop("wide", 8, 16, 1.0);
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduleOptions O;
  O.MaxITSteps = 4;
  LoopScheduler Sched(M, C, O);
  LoopScheduleResult R = Sched.schedule(L);
  if (!R.Success) {
    EXPECT_FALSE(R.Failure.empty());
  }
}

TEST(LoopSchedulerDriver, EnergyModelWithoutScalingThrows) {
  // Checked in every build type: an energy model without its scaling
  // would keep the ED2 objective and read a null scaling.
  Loop L = makeStreamLoop("s", 4, 16, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  ActivityCounts Ref;
  Ref.WeightedIns = 1000;
  Ref.Comms = 20;
  Ref.MemAccesses = 300;
  EnergyModel Energy(EnergyBreakdown(), Ref, 1e5, 4);
  HeteroScaling Scaling =
      scalingForConfig(C, M, TechnologyModel::paperDefault());
  LoopScheduler Sched(M, C);
  EXPECT_THROW(Sched.schedule(L, &Energy, nullptr), std::invalid_argument);
  EXPECT_THROW(Sched.schedule(L, nullptr, &Scaling), std::invalid_argument);
  EXPECT_TRUE(Sched.schedule(L, &Energy, &Scaling).Success);
}

TEST(LoopSchedulerDriver, ITStepsCountsIncreases) {
  Loop L = makeWideRecurrenceLoop("r", 8, 2, 2, 16, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success) << R.Failure;
  // The zero-slack wide recurrence cannot schedule at MIT; at least one
  // IT increase must have happened.
  EXPECT_GE(R.ITSteps, 1u);
  EXPECT_GT(R.Sched.Plan.ITNs, R.MITNs);
}

} // namespace
