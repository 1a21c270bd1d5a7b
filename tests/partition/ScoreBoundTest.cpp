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
//     check, the bound equals the full score (same overflow sum);
//   - score(), which runs the pseudo-schedule kernel on the kept
//     assignment and grades the kept tally, equals scorePartition()
//     bit for bit;
//   - before a move out of one cluster, capacityBound() (the moved
//     nodes' capacity terms alone) is <= the bound after the move.
//
// A third test moves random node sets and checks the kept tally
// against a fresh load after every move.
//
// A second test binds one bound in turn to two different loops of
// equal node and edge counts and to two plans of each, so a table or
// grid left over from the previous bind would go unnoticed by sizes
// alone; after every bind and load, score() must still equal
// scorePartition() bit for bit, on feasible and infeasible partitions.
//
// The fixtures reach every branch of the graded checks: the no-slots
// capacity case (a machine with one FP-less cluster), capacity, bus
// and register-proxy overflow, the recurrence-infeasible case, and
// feasible partitions; the test asserts each one was seen.
//
//===----------------------------------------------------------------------===//

#include "configsel/Scaling.h"
#include "ir/LoopDSL.h"
#include "ir/MinDist.h"
#include "mcd/DomainPlanner.h"
#include "partition/MultilevelGraph.h"
#include "partition/Partitioner.h"
#include "support/RNG.h"
#include "workloads/SpecFPSuite.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <cstring>

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
  unsigned CapacityPrefix = 0; ///< moves with a nonzero capacityBound
};

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

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
    EXPECT_EQ(bitsOf(B.score(O)), bitsOf(Score))
        << (ED2 ? "ED2" : "homogeneous");
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

      // One bound per context, as greedy refinement keeps it: bound
      // once, then every start loaded over the previous one's moves.
      PartitionBound B;
      B.bind(Ctx);
      for (Partition &P : Inits) {
        B.load(P);
        checkBound(Ctx, B, P, Cov);
        for (unsigned Mv = 0; Mv < MovesPerStart; ++Mv) {
          // One macro of a random level to a random cluster.
          const CoarseLevel &Lvl = ML.level(static_cast<unsigned>(
              Rng.nextInt(0, static_cast<int64_t>(ML.numLevels()) - 1)));
          unsigned Mac = static_cast<unsigned>(
              Rng.nextInt(0, static_cast<int64_t>(Lvl.NumMacros) - 1));
          unsigned To = static_cast<unsigned>(Rng.nextInt(0, NC - 1));
          std::vector<unsigned> Members;
          unsigned Need[NumFUKinds] = {0};
          bool OneHome = true;
          unsigned From = 0;
          for (unsigned N = 0; N < G.size(); ++N)
            if (Lvl.MacroOf[N] == Mac) {
              if (Members.empty())
                From = P.ClusterOf[N];
              OneHome &= P.ClusterOf[N] == From;
              ++Need[static_cast<unsigned>(fuKindOf(L.Ops[N].Op))];
              Members.push_back(N);
              P.ClusterOf[N] = To;
            }
          // The capacity pre-check applies to a move out of one cluster.
          double CapBound = OneHome && From != To
                                ? B.capacityBound(Need, From, To)
                                : 0.0;
          B.move(Members.data(), Members.size(), To);
          for (bool ED2 : {true, false}) {
            PartitionerOptions O;
            O.ED2Objective = ED2;
            EXPECT_LE(CapBound, B.bound(O));
          }
          Cov.CapacityPrefix += CapBound > 0;
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
  EXPECT_GT(Cov.CapacityPrefix, 0u);
  std::printf("checked %u partitions: no-slots %u, capacity %u, bus %u, "
              "registers %u, recurrence %u, feasible %u; %u moves with a "
              "capacity bound\n",
              Cov.Checked, Cov.NoSlots, Cov.Capacity, Cov.Bus,
              Cov.Registers, Cov.Recurrence, Cov.Feasible,
              Cov.CapacityPrefix);
}

/// One loop of the rebinding test with everything its contexts point
/// at.
struct BindFixture {
  Loop L;
  DDG G;
  RecurrenceInfo Recs;
  std::vector<MachinePlan> Plans;
};

TEST(ScoreBound, RebindingRebuildsTheKernelInput) {
  MachineDescription M = MachineDescription::paperDefault();
  const unsigned NC = M.numClusters();

  // Two different random loops with the same node and edge counts: the
  // first pair the seeded search meets.
  RandomLoopParams Params;
  Params.MinOps = 20;
  Params.MaxOps = 20;
  Params.RecurrenceProb = 0.7;
  std::vector<BindFixture> Fx(2);
  {
    RNG Rng(0xb1d);
    std::vector<Loop> Seen;
    std::vector<DDG> SeenG;
    bool Found = false;
    for (unsigned I = 0; I < 200 && !Found; ++I) {
      Loop L = makeRandomLoop(Rng, Params, "rebind" + std::to_string(I));
      DDG G = DDG::build(L);
      for (size_t J = 0; J < Seen.size() && !Found; ++J)
        if (SeenG[J].size() == G.size() &&
            SeenG[J].numEdges() == G.numEdges()) {
          Fx[0].L = Seen[J];
          Fx[1].L = L;
          Found = true;
        }
      Seen.push_back(std::move(L));
      SeenG.push_back(std::move(G));
    }
    ASSERT_TRUE(Found);
  }

  ActivityCounts Ref;
  Ref.WeightedIns = 1000;
  Ref.Comms = 20;
  Ref.MemAccesses = 300;
  EnergyModel Energy(EnergyBreakdown(), Ref, 1e5, NC);
  TechnologyModel Tech = TechnologyModel::paperDefault();
  HeteroConfig Het = oneFastThreeSlow(M);
  HeteroScaling Scaling = scalingForConfig(Het, M, Tech);
  for (BindFixture &F : Fx) {
    F.G = DDG::build(F.L);
    F.Recs = analyzeRecurrences(F.G, M.Isa.nodeLatencies(F.L));
    // Two plans of the loop: the heterogeneous one at its MIT and two
    // IT steps later.
    DomainPlanner Planner(M, Het, FrequencyMenu::continuous());
    Rational IT = Planner.computeMIT(F.Recs.RecMII, F.L.opCountsByFU());
    for (unsigned Step = 0; Step < 3; ++Step, IT = Planner.nextIT(IT))
      if (Step != 1)
        if (auto Plan = Planner.planForIT(IT))
          F.Plans.push_back(*Plan);
    ASSERT_EQ(F.Plans.size(), 2u) << F.L.Name;
  }
  ASSERT_NE(Fx[0].L.structuralFingerprint(), Fx[1].L.structuralFingerprint());
  ASSERT_EQ(Fx[0].G.size(), Fx[1].G.size());
  ASSERT_EQ(Fx[0].G.numEdges(), Fx[1].G.numEdges());

  // Every (loop, plan) context, kept alive for the bound, visited loop
  // by loop within each plan, then twice more in reverse.
  std::vector<PartitionContext> Ctxs;
  for (unsigned PlanIx = 0; PlanIx < 2; ++PlanIx)
    for (BindFixture &F : Fx) {
      PartitionContext Ctx;
      Ctx.L = &F.L;
      Ctx.G = &F.G;
      Ctx.M = &M;
      Ctx.Plan = &F.Plans[PlanIx];
      Ctx.Recs = &F.Recs;
      Ctx.Energy = &Energy;
      Ctx.Scaling = &Scaling;
      Ctx.TripCount = F.L.TripCount;
      Ctxs.push_back(Ctx);
    }
  std::vector<size_t> Order = {0, 1, 2, 3, 2, 0, 3, 1};

  RNG Rng(0x7ab1e);
  PartitionBound B;
  unsigned Feasible = 0, Infeasible = 0;
  for (size_t Ix : Order) {
    const PartitionContext &Ctx = Ctxs[Ix];
    SCOPED_TRACE(testing::Message() << "context " << Ix);
    B.bind(Ctx);
    std::vector<Partition> Parts;
    for (unsigned C = 0; C < NC; ++C)
      Parts.push_back(Partition::allInCluster(Ctx.G->size(), C));
    for (unsigned I = 0; I < 6; ++I) {
      Partition P;
      for (unsigned N = 0; N < Ctx.G->size(); ++N)
        P.ClusterOf.push_back(static_cast<unsigned>(Rng.nextInt(0, NC - 1)));
      Parts.push_back(std::move(P));
    }
    PartitionerOptions Hom;
    Hom.ED2Objective = false;
    if (auto P = partitionLoop(Ctx, Hom))
      Parts.push_back(std::move(*P));
    for (const Partition &P : Parts) {
      B.load(P);
      for (bool ED2 : {true, false}) {
        PartitionerOptions O;
        O.ED2Objective = ED2;
        double Score = scorePartition(Ctx, O, P);
        EXPECT_EQ(bitsOf(B.score(O)), bitsOf(Score))
            << (ED2 ? "ED2" : "homogeneous");
        Feasible += Score < InfeasiblePartitionScore;
        Infeasible += Score >= InfeasiblePartitionScore;
      }
    }
  }
  EXPECT_GT(Feasible, 0u);
  EXPECT_GT(Infeasible, 0u);
}

// move() keeps the copy tally by (value, cluster) use counts, one moved
// node at a time. After random moves of random node sets (members that
// produce for other members, values that feed themselves, nodes
// already at the target), the kept tally and assignment equal those a
// fresh load of the moved partition counts.
TEST(ScoreBound, MovesKeepTheTallyOfAFreshLoad) {
  MachineDescription M = MachineDescription::paperDefault();
  const unsigned NC = M.numClusters();
  RNG Rng(0x7a11e);
  unsigned Moves = 0, SelfFed = 0, InnerProducer = 0;
  std::vector<Loop> Loops;
  RandomLoopParams Params;
  Params.MinOps = 8;
  Params.MaxOps = 60;
  Params.RecurrenceProb = 0.8;
  for (unsigned I = 0; I < 24; ++I)
    Loops.push_back(makeRandomLoop(Rng, Params, "tally" + std::to_string(I)));
  Loops.push_back(makeUnrolledKernelLoop("tally256", 256));
  // Values that feed themselves across iterations (self value edges).
  Loops.push_back(parseSingleLoop("loop selffed trip=32\n"
                                  "  livein c = 1.5\n"
                                  "  a = fadd a@1 c init=1\n"
                                  "  b = fmul a b@2 init=2\n"
                                  "  d = fadd a b\n"
                                  "  e = fmul d e@1 init=1\n"
                                  "  f = fadd e c\n"
                                  "endloop\n"));
  for (const Loop &L : Loops) {
    SCOPED_TRACE(L.Name);
    DDG G = DDG::build(L);
    RecurrenceInfo Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
    DomainPlanner Planner(M, HeteroConfig::reference(M),
                          FrequencyMenu::continuous());
    auto Plan = Planner.planForIT(
        Planner.computeMIT(Recs.RecMII, L.opCountsByFU()));
    ASSERT_TRUE(Plan.has_value());
    PartitionContext Ctx;
    Ctx.L = &L;
    Ctx.G = &G;
    Ctx.M = &M;
    Ctx.Plan = &*Plan;
    Ctx.Recs = &Recs;
    const unsigned N = G.size();
    Partition P;
    for (unsigned Nd = 0; Nd < N; ++Nd)
      P.ClusterOf.push_back(static_cast<unsigned>(Rng.nextInt(0, NC - 1)));
    PartitionBound B, Fresh;
    B.bind(Ctx);
    Fresh.bind(Ctx);
    B.load(P);
    for (unsigned Mv = 0; Mv < 40; ++Mv) {
      // A random set of distinct nodes: a run of consecutive ids (so
      // producers and their consumers move together) or a scatter.
      std::vector<unsigned> Set;
      std::vector<uint8_t> In(N, 0);
      unsigned Size =
          static_cast<unsigned>(Rng.nextInt(1, std::max(1u, N / 3)));
      unsigned First = static_cast<unsigned>(Rng.nextInt(0, N - 1));
      bool Run = Rng.nextBool(0.5);
      for (unsigned K = 0; K < Size; ++K) {
        unsigned Nd = Run ? (First + K) % N
                          : static_cast<unsigned>(Rng.nextInt(0, N - 1));
        if (!In[Nd]) {
          In[Nd] = 1;
          Set.push_back(Nd);
        }
      }
      unsigned To = static_cast<unsigned>(Rng.nextInt(0, NC - 1));
      for (const DDG::Edge &E : G.edges())
        if (isValueCarrying(E.Kind) && In[E.Dst]) {
          SelfFed += E.Src == E.Dst;
          InnerProducer += E.Src != E.Dst && In[E.Src];
        }
      for (unsigned Nd : Set)
        P.ClusterOf[Nd] = To;
      B.move(Set.data(), Set.size(), To);
      Fresh.load(P);
      ++Moves;
      ASSERT_EQ(B.clusterOf(), P.ClusterOf) << "move " << Mv;
      ASSERT_TRUE(sameTally(B.tally(), Fresh.tally())) << "move " << Mv;
    }
  }
  EXPECT_GT(SelfFed, 0u);
  EXPECT_GT(InnerProducer, 0u);
  std::printf("%u moves: %u self-fed value edges and %u member-to-member "
              "value edges moved\n",
              Moves, SelfFed, InnerProducer);
}

} // namespace
