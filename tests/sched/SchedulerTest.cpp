//===- tests/sched/SchedulerTest.cpp - Modulo scheduler properties ----------===//
//
// Property tests of the heterogeneous modulo scheduler: over random
// loops and machine configurations, every produced schedule must pass
// the independent validator (dependences under the exact cross-domain
// timing rule, modulo resource exclusivity, II*period == IT, register
// pressure) and execute functionally equivalently to sequential code.
// The validator's resource check is held to the sort-and-scan it
// replaced, on random schedules full of conflicts.
//
//===----------------------------------------------------------------------===//

#include "partition/LoopScheduler.h"
#include "sched/HeteroModuloScheduler.h"
#include "sched/ScheduleValidator.h"
#include "sched/TickGraph.h"
#include "vliwsim/PipelinedSimulator.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>

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

/// The validator's resource check as it was before the occupancy
/// table: sort (domain, kind, unit, slot mod II, node) tuples and name
/// the first adjacent pair that shares a cell. Runs the unit-range
/// check first, as the validator does; "" when no cell is shared.
std::string sortAndScanConflict(const MachineDescription &M,
                                const PartitionedGraph &PG,
                                const Schedule &S) {
  using Cell = std::tuple<unsigned, unsigned, unsigned, int64_t, unsigned>;
  std::vector<Cell> Cells;
  for (unsigned N = 0; N < PG.size(); ++N) {
    const PGNode &Node = PG.node(N);
    unsigned Units = Node.Domain == PG.busDomain()
                         ? M.Buses
                         : M.Clusters[Node.Domain].fuCount(Node.Kind);
    if (S.Nodes[N].Unit >= Units)
      return "node " + std::to_string(N) + " on nonexistent unit";
    Cells.emplace_back(Node.Domain, static_cast<unsigned>(Node.Kind),
                       S.Nodes[N].Unit, S.Nodes[N].Slot % S.iiOf(PG, N), N);
  }
  std::sort(Cells.begin(), Cells.end());
  for (size_t I = 1; I < Cells.size(); ++I) {
    const Cell &A = Cells[I - 1], &B = Cells[I];
    if (std::get<0>(A) == std::get<0>(B) && std::get<1>(A) == std::get<1>(B) &&
        std::get<2>(A) == std::get<2>(B) && std::get<3>(A) == std::get<3>(B))
      return "nodes " + std::to_string(std::get<4>(A)) + " and " +
             std::to_string(std::get<4>(B)) + " share a reservation cell";
  }
  return "";
}

/// An edge-free graph over the paper machine's four clusters and bus:
/// \p Kinds[i] = (domain, kind) of node i. With no edges every
/// dependence check passes, so a schedule's verdict is its resources'.
PartitionedGraph edgeFreeGraph(
    const std::vector<std::pair<unsigned, FUKind>> &Kinds) {
  std::vector<PGNode> Nodes;
  for (const auto &[Domain, Kind] : Kinds) {
    PGNode N;
    N.Domain = Domain;
    N.Kind = Kind;
    N.Op = Kind == FUKind::Bus      ? Opcode::Copy
           : Kind == FUKind::FpFU   ? Opcode::FAdd
           : Kind == FUKind::MemPort ? Opcode::Load
                                     : Opcode::IntAdd;
    N.OrigOp = Kind == FUKind::Bus ? -1 : static_cast<int>(Nodes.size());
    Nodes.push_back(N);
  }
  return PartitionedGraph::fromRaw(4, std::move(Nodes), {});
}

// Two copies on the one bus, in the same cell of the bus's modulo
// table: the second a whole II later.
TEST(Scheduler, ValidatorReportsABusConflictAcrossTheIIWrap) {
  MachineDescription M = MachineDescription::paperDefault();
  DomainPlanner Planner(M, HeteroConfig::reference(M),
                        FrequencyMenu::continuous());
  auto Plan = Planner.planForIT(Rational(4));
  ASSERT_TRUE(Plan.has_value());
  PartitionedGraph PG = edgeFreeGraph(
      {{0, FUKind::IntFU}, {4, FUKind::Bus}, {1, FUKind::IntFU},
       {4, FUKind::Bus}});
  Schedule S;
  S.Plan = *Plan;
  S.Nodes.assign(PG.size(), ScheduledNode());
  for (ScheduledNode &N : S.Nodes)
    N.Placed = true;
  S.Nodes[1].Slot = 1;
  S.Nodes[3].Slot = 1 + Plan->Bus.II;
  ValidatorOptions O;
  O.CheckRegisterPressure = false;
  EXPECT_EQ(validateSchedule(M, PG, S, O),
            "nodes 1 and 3 share a reservation cell");
  S.Nodes[3].Slot += 1;
  EXPECT_EQ(validateSchedule(M, PG, S, O), "");
}

// On random edge-free schedules with many conflicts, in every domain
// and kind and at slots past the II, the validator names the pair the
// sort-and-scan names, and reports a nonexistent unit first.
TEST(Scheduler, ValidatorNamesTheSortAndScanConflict) {
  MachineDescription M = MachineDescription::paperDefault(2);
  RNG Rng(0x7ab1e);
  unsigned Conflicts = 0, OnBus = 0, Wrapped = 0, BadUnits = 0;
  const FUKind ClusterKinds[] = {FUKind::IntFU, FUKind::FpFU,
                                 FUKind::MemPort};
  for (unsigned Case = 0; Case < 600; ++Case) {
    HeteroConfig C = configFor(M, Case);
    DomainPlanner Planner(M, C, FrequencyMenu::continuous());
    auto Plan = Planner.planForIT(Rational(Rng.nextInt(4, 40), 2));
    if (!Plan)
      continue;
    unsigned N = static_cast<unsigned>(Rng.nextInt(1, 60));
    std::vector<std::pair<unsigned, FUKind>> Kinds;
    for (unsigned I = 0; I < N; ++I) {
      unsigned D = static_cast<unsigned>(Rng.nextInt(0, 4));
      Kinds.emplace_back(D, D == 4 ? FUKind::Bus
                                   : ClusterKinds[Rng.nextInt(0, 2)]);
    }
    PartitionedGraph PG = edgeFreeGraph(Kinds);
    Schedule S;
    S.Plan = *Plan;
    S.Nodes.assign(N, ScheduledNode());
    for (unsigned I = 0; I < N; ++I) {
      const PGNode &Node = PG.node(I);
      unsigned Units = Node.Domain == 4
                           ? M.Buses
                           : M.Clusters[Node.Domain].fuCount(Node.Kind);
      S.Nodes[I].Placed = true;
      S.Nodes[I].Slot = Rng.nextInt(0, 3 * S.iiOf(PG, I));
      S.Nodes[I].Unit = static_cast<unsigned>(Rng.nextInt(0, Units - 1));
      if (Rng.nextBool(0.002))
        S.Nodes[I].Unit = Units; // the unit-range check reports first
    }
    ValidatorOptions O;
    O.CheckRegisterPressure = false;
    std::string Want = sortAndScanConflict(M, PG, S);
    ASSERT_EQ(validateSchedule(M, PG, S, O), Want) << "case " << Case;
    unsigned A, B;
    BadUnits += Want.find("nonexistent") != std::string::npos;
    if (std::sscanf(Want.c_str(), "nodes %u and %u", &A, &B) == 2) {
      ++Conflicts;
      OnBus += PG.node(A).Domain == 4;
      Wrapped += S.Nodes[A].Slot >= S.iiOf(PG, A) ||
                 S.Nodes[B].Slot >= S.iiOf(PG, B);
    }
  }
  EXPECT_GT(Conflicts, 300u);
  EXPECT_GT(OnBus, 0u);
  EXPECT_GT(Wrapped, 0u);
  EXPECT_GT(BadUnits, 0u);
  std::printf("%u conflicts named (%u on the bus, %u past the II), %u "
              "nonexistent units\n",
              Conflicts, OnBus, Wrapped, BadUnits);
}

} // namespace
