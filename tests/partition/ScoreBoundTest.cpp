//===- tests/partition/ScoreBoundTest.cpp - Refinement lower bound ----------===//
//
// Property test of PartitionBound, the lower bound greedy refinement
// checks before it pays for a pseudo-schedule. On seeded random
// partitions and random single-macro moves it checks that
//
//   - the incrementally kept assignment and tally equal the ones the
//     pseudo-schedule estimator counts from scratch after every move;
//   - bound() <= scorePartition() holds exactly (as doubles), for both
//     objectives, at the MIT (mostly infeasible) and at larger ITs;
//   - when the partition fails a budget check but not the recurrence
//     check, the bound equals the full score (same overflow sum).
//
// The fixtures reach every branch of the graded checks: the no-slots
// capacity case (a machine with one FP-less cluster), capacity, bus
// and register-proxy overflow, the recurrence-infeasible case, and
// feasible partitions; the test asserts each one was seen.
//
//===----------------------------------------------------------------------===//

#include "configsel/Scaling.h"
#include "ir/MinDist.h"
#include "mcd/DomainPlanner.h"
#include "partition/MultilevelGraph.h"
#include "partition/Partitioner.h"
#include "support/RNG.h"
#include "workloads/SpecFPSuite.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

/// IT steps past the MIT each fixture is checked at.
constexpr unsigned ExtraITs = 3;
/// Random starting partitions per (plan, IT), and moves from each.
constexpr unsigned Starts = 3;
constexpr unsigned MovesPerStart = 8;

/// How often each graded check fired on the partitions checked.
struct Coverage {
  unsigned NoSlots = 0, Capacity = 0, Bus = 0, Registers = 0;
  unsigned Recurrence = 0, Feasible = 0, Checked = 0;
};

bool sameTally(const PartitionTally &A, const PartitionTally &B) {
  return A.Counts == B.Counts && A.Comms == B.Comms &&
         A.CopiesIn == B.CopiesIn && A.Defs == B.Defs &&
         A.DefLatency == B.DefLatency;
}

HeteroConfig oneFastThreeSlow(const MachineDescription &M) {
  HeteroConfig C = HeteroConfig::reference(M);
  C.Clusters[0].PeriodNs = Rational(9, 10);
  for (unsigned I = 1; I < C.numClusters(); ++I)
    C.Clusters[I].PeriodNs = Rational(27, 20);
  C.Icn.PeriodNs = Rational(9, 10);
  C.Cache.PeriodNs = Rational(9, 10);
  return C;
}

/// Records which checks the estimate \p Est (with the working set \p PS
/// it left behind) failed.
void cover(const MachineDescription &M, const MachinePlan &Plan,
           const PseudoSchedule &Est, const PseudoScratch &PS,
           bool Recurrence, Coverage &Cov) {
  const PartitionTally &T = PS.Tally;
  bool NoSlots = false, Over = false, Regs = false;
  for (unsigned C = 0; C < M.numClusters(); ++C) {
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      unsigned Cnt = T.Counts[C * NumFUKinds + K];
      if (static_cast<FUKind>(K) == FUKind::Bus || Cnt == 0)
        continue;
      int64_t Slots = PS.Cap[C * NumFUKinds + K];
      NoSlots |= Slots <= 0;
      Over |= Slots > 0 && static_cast<int64_t>(Cnt) > Slots;
    }
    int64_t Budget =
        static_cast<int64_t>(M.Clusters[C].Registers) * Plan.Clusters[C].II;
    Regs |= Budget > 0 && Est.LifetimeProxy[C] > Budget;
  }
  ++Cov.Checked;
  Cov.Feasible += Est.Feasible;
  Cov.NoSlots += NoSlots;
  Cov.Capacity += Over;
  Cov.Registers += Regs;
  Cov.Bus += static_cast<int64_t>(Est.Comms) >
             Plan.Bus.II * static_cast<int64_t>(M.Buses);
  Cov.Recurrence += Recurrence;
}

/// Checks \p B, which must hold \p P, against the estimator and the
/// full score under both objectives.
void checkBound(const PartitionContext &Ctx, PartitionBound &B,
                const Partition &P, Coverage &Cov) {
  ASSERT_EQ(B.clusterOf(), P.ClusterOf);
  PseudoScratch PS;
  PseudoSchedule Est =
      estimatePseudoSchedule(*Ctx.L, *Ctx.G, *Ctx.M, *Ctx.Plan, P, &PS);
  // The incremental tally is the one the estimator counts from scratch.
  ASSERT_TRUE(sameTally(B.tally(), PS.Tally));
  double WithoutRec = 0;
  gradePartitionBudgets(*Ctx.M, *Ctx.Plan, PS.Cap, PS.Tally,
                        /*RecurrenceInfeasible=*/false, WithoutRec);
  bool Recurrence = Est.Overflow != WithoutRec;
  for (bool ED2 : {true, false}) {
    PartitionerOptions O;
    O.ED2Objective = ED2;
    double Bound = B.bound(O);
    double Score = scorePartition(Ctx, O, P);
    EXPECT_LE(Bound, Score) << (ED2 ? "ED2" : "homogeneous");
    // A budget check failed but not the recurrence check: the bound and
    // the score sum the very same overflow terms.
    if (!Est.Feasible && !Recurrence) {
      EXPECT_EQ(Bound, Score) << (ED2 ? "ED2" : "homogeneous");
    }
  }
  cover(*Ctx.M, *Ctx.Plan, Est, PS, Recurrence, Cov);
}

/// Runs the property on \p L / \p M over both plans and the MIT plus
/// ExtraITs further ITs.
void checkFixture(const Loop &L, const MachineDescription &M, uint64_t Seed,
                  Coverage &Cov) {
  SCOPED_TRACE(L.Name);
  DDG G = DDG::build(L);
  std::vector<unsigned> Lat = M.Isa.nodeLatencies(L);
  RecurrenceInfo Recs = analyzeRecurrences(G, Lat);
  std::vector<int64_t> Slack;
  LongestPathScratch Paths;
  computeEdgeSlack(Slack, G, Lat, std::max<int64_t>(Recs.RecMII, 1), Paths);
  unsigned NC = M.numClusters();
  MultilevelGraph ML;
  ML.build(L, G, M, {}, {}, Slack, NC);

  ActivityCounts Ref;
  Ref.WeightedIns = 1000;
  Ref.Comms = 20;
  Ref.MemAccesses = 300;
  EnergyModel Energy(EnergyBreakdown(), Ref, 1e5, NC);
  TechnologyModel Tech = TechnologyModel::paperDefault();
  RNG Rng(Seed);

  for (bool Het : {false, true}) {
    HeteroConfig C = Het ? oneFastThreeSlow(M) : HeteroConfig::reference(M);
    DomainPlanner Planner(M, C, FrequencyMenu::continuous());
    HeteroScaling Scaling = scalingForConfig(C, M, Tech);
    Rational IT = Planner.computeMIT(Recs.RecMII, L.opCountsByFU());
    for (unsigned Step = 0; Step <= ExtraITs;
         ++Step, IT = Planner.nextIT(IT)) {
      auto Plan = Planner.planForIT(IT);
      if (!Plan)
        continue;
      PartitionContext Ctx;
      Ctx.L = &L;
      Ctx.G = &G;
      Ctx.M = &M;
      Ctx.Plan = &*Plan;
      Ctx.Recs = &Recs;
      Ctx.Energy = &Energy;
      Ctx.Scaling = &Scaling;
      Ctx.TripCount = L.TripCount;

      // Starting points: random macro assignments at random levels,
      // plus the partitioner's own result (feasible when it exists).
      std::vector<Partition> Inits;
      for (unsigned I = 0; I < Starts; ++I) {
        const CoarseLevel &Lvl = ML.level(static_cast<unsigned>(
            Rng.nextInt(0, static_cast<int64_t>(ML.numLevels()) - 1)));
        std::vector<unsigned> MacCl(Lvl.NumMacros);
        for (unsigned &Cl : MacCl)
          Cl = static_cast<unsigned>(Rng.nextInt(0, NC - 1));
        Partition P;
        for (unsigned N = 0; N < G.size(); ++N)
          P.ClusterOf.push_back(MacCl[Lvl.MacroOf[N]]);
        Inits.push_back(std::move(P));
      }
      PartitionerOptions Hom;
      Hom.ED2Objective = false;
      if (auto P = partitionLoop(Ctx, Hom))
        Inits.push_back(std::move(*P));

      for (Partition &P : Inits) {
        PartitionBound B;
        B.reset(Ctx, P);
        checkBound(Ctx, B, P, Cov);
        for (unsigned Mv = 0; Mv < MovesPerStart; ++Mv) {
          // One macro of a random level to a random cluster.
          const CoarseLevel &Lvl = ML.level(static_cast<unsigned>(
              Rng.nextInt(0, static_cast<int64_t>(ML.numLevels()) - 1)));
          unsigned Mac = static_cast<unsigned>(
              Rng.nextInt(0, static_cast<int64_t>(Lvl.NumMacros) - 1));
          unsigned To = static_cast<unsigned>(Rng.nextInt(0, NC - 1));
          std::vector<unsigned> Members;
          for (unsigned N = 0; N < G.size(); ++N)
            if (Lvl.MacroOf[N] == Mac) {
              Members.push_back(N);
              P.ClusterOf[N] = To;
            }
          B.move(Members.data(), Members.size(), To);
          checkBound(Ctx, B, P, Cov);
          if (::testing::Test::HasFatalFailure())
            return;
        }
      }
    }
  }
}

MachineDescription bigLoopMachine(unsigned Ops) {
  MachineDescription M = MachineDescription::paperDefault();
  for (auto &Cl : M.Clusters)
    Cl.Registers = bigLoopRegisters(Ops);
  return M;
}

TEST(ScoreBound, NeverAboveTheFullScore) {
  Coverage Cov;
  uint64_t Seed = 0x5eedb0d;
  MachineDescription Paper = MachineDescription::paperDefault();
  // The no-slots branch needs a cluster without some FU kind.
  MachineDescription NoFp = Paper;
  NoFp.Clusters[3].FpFUs = 0;
  for (const BenchmarkProgram &Prog : buildSpecFPSuite())
    for (const Loop &L : Prog.Loops) {
      checkFixture(L, Paper, ++Seed, Cov);
      checkFixture(L, NoFp, ++Seed, Cov);
    }
  for (unsigned Ops : {256u, 512u}) {
    Loop L = makeUnrolledKernelLoop("bound" + std::to_string(Ops), Ops);
    checkFixture(L, bigLoopMachine(Ops), ++Seed, Cov);
    // Paper-sized register files overflow the lifetime proxy.
    checkFixture(L, Paper, ++Seed, Cov);
  }

  EXPECT_GT(Cov.NoSlots, 0u);
  EXPECT_GT(Cov.Capacity, 0u);
  EXPECT_GT(Cov.Bus, 0u);
  EXPECT_GT(Cov.Registers, 0u);
  EXPECT_GT(Cov.Recurrence, 0u);
  EXPECT_GT(Cov.Feasible, 0u);
  std::printf("checked %u partitions: no-slots %u, capacity %u, bus %u, "
              "registers %u, recurrence %u, feasible %u\n",
              Cov.Checked, Cov.NoSlots, Cov.Capacity, Cov.Bus,
              Cov.Registers, Cov.Recurrence, Cov.Feasible);
}

} // namespace
