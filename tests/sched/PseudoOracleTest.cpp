//===- tests/sched/PseudoOracleTest.cpp - Exactness of the pseudo-schedule --===//
//
// Differential test of the pseudo-schedule estimate, whose timing kernel
// (pseudoScheduleAsap) builds no graph and no copy: it folds each
// inter-cluster copy hop into the value edges the copy feeds. The
// oracle, which lives only in this file, is the estimate as it was
// computed on a materialized PartitionedGraph and its TickGraph
// lowering. On seeded random loops, unrolled kernel bodies and a
// hand-written backward chain, under homogeneous and heterogeneous
// plans at the MIT and larger ITs (each also shifted off its period
// grid), and on random, blocked and all-in-one-cluster partitions, it
// checks that
//
//   - every PseudoSchedule field matches the oracle's bit for bit;
//   - the kernel's verdict is the TickGraph fixpoint's, and on a
//     feasible recurrence check the kernel's start of every node
//     equals the fixpoint's, and every copy node of the graph starts
//     where its value's completion reaches the next bus tick (the
//     premise of folding copies into edges);
//   - wherever the FIFO waves that once defined the verdict converge,
//     the fixpoint is theirs too.
//
// The fixtures reach recurrence-infeasible and feasible estimates, and
// fixpoints that need more waves than the loop has nodes (the copies
// count toward the wave limit); the test asserts each one was seen,
// and that the kernel settled some answers in one sweep and some in
// more (a two-node backward chain, whose loop-carried edge raises a
// node already swept, needs a second). A last fixture is a fixpoint
// the waves give up on: the relaxation must find it. The reported
// depth limits D count the loop's nodes only, as the kernel does.
//
// The relaxation's verdict does not depend on visit order
// (sched/AsapFixpoint proves it). The AsapFixpoint tests run the
// scheduler's fixpoint on seeded relabelings of each graph, which
// change the order its sweeps visit nodes and relax edges, and expect
// the same verdict and starts: over the fixtures above, and over a
// seeded sample of two-node recurrences split across two clusters.
//
//===----------------------------------------------------------------------===//

#include "ir/LoopDSL.h"
#include "ir/RecurrenceAnalysis.h"
#include "mcd/DomainPlanner.h"
#include "mcd/PlanGrid.h"
#include "sched/PartitionedGraph.h"
#include "sched/PseudoScheduler.h"
#include "sched/TickGraph.h"
#include "support/RNG.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>

using namespace hcvliw;

namespace {

/// IT steps past the MIT each fixture is checked at.
constexpr unsigned ExtraITs = 2;
/// Random partitions per (loop, plan, IT), per kind (per node, blocked).
constexpr unsigned RandomParts = 3;

struct Coverage {
  unsigned Checked = 0, Feasible = 0, Recurrence = 0, Copies = 0;
  unsigned NoCopies = 0, DeepFixpoint = 0;
  unsigned OffGrid = 0; ///< checks whose IT is off some period's grid
  /// How the kernel settled each check: in one sweep, or in more; and
  /// whether it reached the fixpoint or proved there is none.
  unsigned Swept = 0, Resweeps = 0, Converged = 0, Divergent = 0;
  /// Checks the waves gave up on although a fixpoint exists.
  unsigned WavesGaveUp = 0;
  unsigned MostSweeps = 0;
  uint64_t LargestD = 0;
};

/// The oracle's answer plus what the fixpoint left behind.
struct Oracle {
  PseudoSchedule PS;
  PartitionedGraph PG;
  std::vector<int64_t> Asap; ///< empty when the recurrence check failed
  bool WavesConverged = false;
  unsigned Waves = 0; ///< waves the FIFO waves ran
  uint64_t D = 0;     ///< the kernel's depth limit
};

/// The kernel's depth limit D on \p TG: the start residues mod the
/// hyperperiod, summed over the loop's \p Ops nodes, which
/// PartitionedGraph numbers before the copies (sched/AsapFixpoint).
uint64_t depthLimit(const TickGraph &TG, unsigned Ops) {
  uint64_t D = 0;
  for (unsigned N = 0; N < Ops; ++N)
    D += static_cast<uint64_t>(TG.grid().hyperperiodTicks() /
                               TG.periodTicks(N));
  return D;
}

/// The FIFO waves that defined the ASAP verdict before the order-free
/// relaxation: a worklist in waves, with "still changing in wave N"
/// (N the graph's node count) as the recurrence verdict. That verdict
/// depends on visit order; where the waves converge, their values are
/// the least fixpoint, so they stay as an oracle there.
bool asapWaves(const TickGraph &TG, std::vector<int64_t> &Start,
               unsigned &Waves) {
  const PartitionedGraph &PG = TG.graph();
  unsigned N = PG.size();
  Start.assign(N, 0);
  std::vector<unsigned> Cur(N), Next;
  for (unsigned I = 0; I < N; ++I)
    Cur[I] = I;
  std::vector<uint8_t> InWave(N, 0);
  for (unsigned Wave = 0; Wave <= N; ++Wave) {
    Waves = Wave + 1;
    for (unsigned V : Cur) {
      InWave[V] = 0;
      for (unsigned EIx : PG.outEdges(V)) {
        unsigned Dst = PG.edge(EIx).Dst;
        int64_t Aligned = alignUpToTick(TG.edgeStartBound(EIx, Start[V]),
                                        TG.periodTicks(Dst));
        if (Start[Dst] < Aligned) {
          Start[Dst] = Aligned;
          if (!InWave[Dst]) {
            InWave[Dst] = 1;
            Next.push_back(Dst);
          }
        }
      }
    }
    if (Next.empty())
      return true;
    Cur.swap(Next);
    Next.clear();
  }
  return false;
}

/// The estimate on a materialized PartitionedGraph + TickGraph.
Oracle oracleEstimate(const Loop &L, const DDG &G,
                      const MachineDescription &M, const MachinePlan &Plan,
                      const Partition &P) {
  Oracle O;
  PseudoSchedule &PS = O.PS;
  unsigned NC = M.numClusters();
  PS.WInsPerCluster.assign(NC, 0.0);
  PS.LifetimeProxy.assign(NC, 0);
  PartitionTally T;
  T.clear(NC);
  for (unsigned I = 0; I < G.size(); ++I) {
    unsigned C = P.cluster(I);
    ++T.Counts[C * NumFUKinds + static_cast<unsigned>(fuKindOf(L.Ops[I].Op))];
    PS.WInsPerCluster[C] += M.Isa.energy(L.Ops[I].Op);
    if (L.Ops[I].definesValue()) {
      ++T.Defs[C];
      T.DefLatency[C] += M.Isa.latency(L.Ops[I].Op);
    }
  }

  O.PG = PartitionedGraph::build(L, G, M.Isa, P, NC, M.BusLatency);
  const PartitionedGraph &PG = O.PG;
  T.Comms = PS.Comms = PG.numCopies();
  for (unsigned N = G.size(); N < PG.size(); ++N)
    for (unsigned EIx : PG.outEdges(N)) {
      unsigned Dst = PG.node(PG.edge(EIx).Dst).Domain;
      if (Dst != PG.busDomain()) {
        ++T.CopiesIn[Dst];
        break;
      }
    }

  auto TG = TickGraph::build(PG, Plan);
  EXPECT_TRUE(TG.has_value());
  bool RecurrenceInfeasible = !TG->computeAsapTicksInto(O.Asap);
  std::vector<int64_t> Restated;
  O.WavesConverged = asapWaves(*TG, Restated, O.Waves);
  if (O.WavesConverged) {
    EXPECT_FALSE(RecurrenceInfeasible) << "the waves found a fixpoint";
    EXPECT_EQ(Restated, O.Asap);
  }
  O.D = depthLimit(*TG, G.size());
  if (RecurrenceInfeasible) {
    O.Asap.clear();
  } else {
    int64_t End = 0;
    for (unsigned N = 0; N < PG.size(); ++N)
      End = std::max(End, O.Asap[N] + static_cast<int64_t>(
                                          PG.node(N).LatencyCycles) *
                                          TG->periodTicks(N));
    PS.ItLengthNs = TG->grid().toNs(End);
  }

  for (unsigned C = 0; C < NC; ++C) {
    int64_t Spread = std::min<int64_t>(Plan.Clusters[C].II / 2, 4);
    PS.LifetimeProxy[C] = T.DefLatency[C] +
                          static_cast<int64_t>(T.Defs[C]) * Spread +
                          static_cast<int64_t>(T.CopiesIn[C]) * (Spread + 1);
  }
  std::vector<int64_t> Cap;
  slotCapacityInto(Cap, M, Plan);
  const char *Reason = gradePartitionBudgets(M, Plan, Cap, T,
                                             RecurrenceInfeasible, PS.Overflow);
  PS.Reason = Reason ? Reason : "";
  PS.Feasible = Reason == nullptr;
  return O;
}

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

/// Checks the estimate of \p P against the oracle; \p S is shared by
/// every call of the test, so reuse across loop sizes is covered too.
void checkPartition(const Loop &L, const DDG &G, const MachineDescription &M,
                    const MachinePlan &Plan, const Partition &P,
                    PseudoScratch &S, Coverage &Cov) {
  PseudoSchedule Got;
  estimatePseudoScheduleInto(Got, L, G, M, Plan, P, &S);
  Oracle Want = oracleEstimate(L, G, M, Plan, P);
  const PseudoSchedule &W = Want.PS;

  EXPECT_EQ(Got.Feasible, W.Feasible);
  EXPECT_EQ(Got.Reason, W.Reason);
  EXPECT_EQ(bitsOf(Got.Overflow), bitsOf(W.Overflow));
  EXPECT_EQ(Got.Comms, W.Comms);
  ASSERT_EQ(Got.WInsPerCluster.size(), W.WInsPerCluster.size());
  for (size_t C = 0; C < W.WInsPerCluster.size(); ++C)
    EXPECT_EQ(bitsOf(Got.WInsPerCluster[C]), bitsOf(W.WInsPerCluster[C]));
  EXPECT_EQ(Got.ItLengthNs.num(), W.ItLengthNs.num());
  EXPECT_EQ(Got.ItLengthNs.den(), W.ItLengthNs.den());
  EXPECT_EQ(Got.LifetimeProxy, W.LifetimeProxy);

  // The kernel's own verdict, which the grading above folds into the
  // overflow, on a table and a grid of its own, and its node starts.
  PseudoEdgeTable Table;
  Table.build(L, G, M.Isa);
  PlanGrid Grid = PlanGrid::compute(Plan);
  Rational ItLength;
  PseudoKernelScratch &K = S.Kernel;
  const bool KernelConverged = pseudoScheduleAsap(
      K, Table, Grid, M.BusLatency, P.ClusterOf, ItLength);
  EXPECT_EQ(KernelConverged, !Want.Asap.empty());
  const unsigned N = G.size();
  if (KernelConverged) {
    EXPECT_EQ(K.Asap, std::vector<int64_t>(Want.Asap.begin(),
                                           Want.Asap.begin() + N));
    EXPECT_EQ(ItLength, W.ItLengthNs);
    // The kernel folds each copy into its producer's out-edges, on the
    // premise that a copy starts where its value's completion reaches
    // the next bus tick. Every copy node of the graph starts there.
    for (unsigned Copy = N; Copy < Want.PG.size(); ++Copy) {
      const unsigned V =
          static_cast<unsigned>(Want.PG.node(Copy).CopiedValue);
      const int64_t PV = Grid.clusterPeriodTicks(P.cluster(V));
      EXPECT_EQ(Want.Asap[Copy],
                crossDomainArrival(K.Asap[V] + static_cast<int64_t>(
                                                   Table.NodeLat[V]) *
                                                   PV,
                                   PV, Grid.busPeriodTicks()))
          << "copy " << Copy - N << " of node " << V;
    }
  }

  ++Cov.Checked;
  Cov.Feasible += W.Feasible;
  Cov.Recurrence += Want.Asap.empty();
  Cov.Copies += W.Comms > 0;
  Cov.NoCopies += W.Comms == 0;
  Cov.DeepFixpoint += Want.WavesConverged && Want.Waves > N + 1;
  Cov.WavesGaveUp += !Want.WavesConverged && !Want.Asap.empty();
  EXPECT_GE(K.LastSweeps, 1u);
  Cov.Swept += K.LastSweeps == 1;
  Cov.Resweeps += K.LastSweeps > 1;
  Cov.Converged += KernelConverged;
  Cov.Divergent += !KernelConverged;
  Cov.MostSweeps = std::max(Cov.MostSweeps, K.LastSweeps);
  Cov.LargestD = std::max(Cov.LargestD, Want.D);
  bool OnGrid = Grid.itTicks() % Grid.busPeriodTicks() == 0;
  for (unsigned Cl = 0; Cl < M.numClusters(); ++Cl)
    OnGrid &= Grid.itTicks() % Grid.clusterPeriodTicks(Cl) == 0;
  Cov.OffGrid += !OnGrid;
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

/// Every cluster alone, then random partitions: per node, and in
/// contiguous blocks of random length (few copies, long local chains).
std::vector<Partition> partitionsFor(unsigned Nodes, unsigned NC, RNG &Rng) {
  std::vector<Partition> Out;
  for (unsigned C = 0; C < NC; ++C)
    Out.push_back(Partition::allInCluster(Nodes, C));
  for (unsigned I = 0; I < RandomParts; ++I) {
    Partition P;
    for (unsigned N = 0; N < Nodes; ++N)
      P.ClusterOf.push_back(static_cast<unsigned>(Rng.nextInt(0, NC - 1)));
    Out.push_back(std::move(P));
  }
  for (unsigned I = 0; I < RandomParts; ++I) {
    Partition P;
    while (P.size() < Nodes) {
      unsigned C = static_cast<unsigned>(Rng.nextInt(0, NC - 1));
      unsigned Len = static_cast<unsigned>(Rng.nextInt(1, 16));
      for (unsigned K = 0; K < Len && P.size() < Nodes; ++K)
        P.ClusterOf.push_back(C);
    }
    Out.push_back(std::move(P));
  }
  return Out;
}

/// One (loop, DDG, machine, plan, partition) case of the fixtures.
using CaseFn =
    std::function<void(const Loop &, const DDG &, const MachineDescription &,
                       const MachinePlan &, const Partition &)>;

/// Calls \p Check on \p L on \p M under the homogeneous and the
/// heterogeneous plan, at the MIT and ExtraITs further ITs, plus
/// \p Extra partitions.
void forEachCase(const Loop &L, const MachineDescription &M, RNG &Rng,
                 const CaseFn &Check,
                 const std::vector<Partition> &Extra = {}) {
  SCOPED_TRACE(L.Name);
  DDG G = DDG::build(L);
  RecurrenceInfo Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
  unsigned NC = M.numClusters();
  for (bool Het : {false, true}) {
    SCOPED_TRACE(Het ? "heterogeneous" : "homogeneous");
    HeteroConfig C = Het ? oneFastThreeSlow(M) : HeteroConfig::reference(M);
    DomainPlanner Planner(M, C,
                          Het ? FrequencyMenu::relativeLadder(4)
                              : FrequencyMenu::continuous());
    Rational IT = Planner.computeMIT(Recs.RecMII, L.opCountsByFU());
    for (unsigned Step = 0; Step <= ExtraITs;
         ++Step, IT = Planner.nextIT(IT)) {
      auto Plan = Planner.planForIT(IT);
      if (!Plan)
        continue;
      std::vector<Partition> Parts = partitionsFor(G.size(), NC, Rng);
      Parts.insert(Parts.end(), Extra.begin(), Extra.end());
      // The same plan with an IT off its domains' period grid, so start
      // bounds need rounding up to the consumer's clock.
      MachinePlan OffGrid = *Plan;
      OffGrid.ITNs = Plan->ITNs + Rational(1, 7);
      for (const MachinePlan *Pl : {&*Plan, &OffGrid})
        for (const Partition &P : Parts) {
          Check(L, G, M, *Pl, P);
          if (::testing::Test::HasFatalFailure())
            return;
        }
    }
  }
}

/// A chain of \p Len fmuls, each reading the next one's value from the
/// previous iteration: the dependences run against node order, so the
/// fixpoint advances one link per wave, and with the links alternating
/// clusters each copy adds a wave.
Loop backwardChain(unsigned Len) {
  std::string Text = "loop backward trip=64\n  livein c = 1.5\n";
  for (unsigned I = 0; I + 1 < Len; ++I)
    Text += "  a" + std::to_string(I) + " = fmul a" + std::to_string(I + 1) +
            "@1 c init=1\n";
  Text += "  a" + std::to_string(Len - 1) + " = fmul c c\nendloop\n";
  return parseSingleLoop(Text);
}

/// forEachCase over the seeded random loops, the 256- and 512-op
/// unrolled bodies and a 24-link backward chain whose links alternate
/// clusters, all drawn from \p Rng.
void forEachFixture(RNG &Rng, const CaseFn &Check) {
  MachineDescription Paper = MachineDescription::paperDefault();
  RandomLoopParams Params;
  Params.RecurrenceProb = 0.7;
  for (unsigned I = 0; I < 24; ++I)
    forEachCase(makeRandomLoop(Rng, Params, "rand" + std::to_string(I)),
                Paper, Rng, Check);

  for (unsigned Ops : {256u, 512u}) {
    MachineDescription Big = Paper;
    for (auto &Cl : Big.Clusters)
      Cl.Registers = bigLoopRegisters(Ops);
    forEachCase(makeUnrolledKernelLoop("unrolled" + std::to_string(Ops), Ops),
                Big, Rng, Check);
  }

  Loop Chain = backwardChain(24);
  Partition Alternating;
  for (unsigned N = 0; N < Chain.size(); ++N)
    Alternating.ClusterOf.push_back(N % 2);
  forEachCase(Chain, Paper, Rng, Check, {Alternating});
}

/// A two-node recurrence: \p A (reading \p B's value from the previous
/// iteration) feeds \p B.
Loop twoNodeRecurrence(const char *A, const char *B) {
  return parseSingleLoop(std::string("loop two trip=64\n  livein c = 1.5\n") +
                         "  a = " + A + " b@1 c init=1\n  b = " + B +
                         " a c\nendloop\n");
}

/// The rounding recurrence's plan: two nodes split between a 0.9 ns and
/// a 1.35 ns cluster, a 0.9 ns bus, IT 10.8 ns.
MachinePlan roundingPlan(const MachineDescription &M, const Loop &L,
                         const DDG &G) {
  RecurrenceInfo Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
  DomainPlanner Planner(M, oneFastThreeSlow(M),
                        FrequencyMenu::relativeLadder(4));
  auto Plan =
      Planner.planForIT(Planner.computeMIT(Recs.RecMII, L.opCountsByFU()));
  EXPECT_TRUE(Plan.has_value());
  Plan->Clusters[0].PeriodNs = Rational(9, 10);
  Plan->Clusters[1].PeriodNs = Rational(27, 20);
  Plan->Bus.PeriodNs = Rational(9, 10);
  Plan->ITNs = Rational(54, 5);
  return *Plan;
}

TEST(PseudoOracle, MatchesTheMaterializedGraphEstimate) {
  Coverage Cov;
  PseudoScratch S;
  RNG Rng(0x5eed0dac);
  MachineDescription Paper = MachineDescription::paperDefault();
  CaseFn Check = [&](const Loop &L, const DDG &G,
                     const MachineDescription &M, const MachinePlan &Plan,
                     const Partition &P) {
    checkPartition(L, G, M, Plan, P, S, Cov);
  };
  forEachFixture(Rng, Check);

  // One loop-carried edge against node order that binds at every IT:
  // the node it raises was already swept, so a second sweep is needed.
  unsigned ResweepsBefore = Cov.Resweeps;
  forEachCase(backwardChain(2), Paper, Rng, Check);
  EXPECT_GT(Cov.Resweeps, ResweepsBefore);

  // At this IT tick rounding lets a walk around the cycle raise a node
  // again before the starts settle: the FIFO waves are still changing
  // in wave Total (two nodes, two copies) and called it "recurrence
  // infeasible", yet the least fixpoint exists, and the relaxation
  // must find it.
  {
    SCOPED_TRACE("rounding recurrence");
    Loop L = twoNodeRecurrence("fmul", "add");
    DDG G = DDG::build(L);
    Partition Split;
    Split.ClusterOf = {0, 1};
    unsigned RecurrenceBefore = Cov.Recurrence;
    unsigned GaveUpBefore = Cov.WavesGaveUp;
    checkPartition(L, G, Paper, roundingPlan(Paper, L, G), Split, S, Cov);
    EXPECT_EQ(Cov.Recurrence, RecurrenceBefore);
    EXPECT_EQ(Cov.WavesGaveUp, GaveUpBefore + 1);
    EXPECT_GT(S.Kernel.LastSweeps, 1u);
  }

  EXPECT_GT(Cov.Feasible, 0u);
  EXPECT_GT(Cov.Recurrence, 0u);
  EXPECT_GT(Cov.Copies, 0u);
  EXPECT_GT(Cov.NoCopies, 0u);
  EXPECT_GT(Cov.DeepFixpoint, 0u);
  EXPECT_GT(Cov.OffGrid, 0u);
  EXPECT_GT(Cov.Swept, 0u);
  EXPECT_GT(Cov.Resweeps, 0u);
  EXPECT_GT(Cov.Converged, 0u);
  EXPECT_GT(Cov.Divergent, 0u);
  std::printf("checked %u partitions: feasible %u, recurrence-infeasible "
              "%u, with copies %u, fixpoints past the node count %u; %u "
              "off-grid plans\n",
              Cov.Checked, Cov.Feasible, Cov.Recurrence, Cov.Copies,
              Cov.DeepFixpoint, Cov.OffGrid);
  std::printf("kernel: %u in one sweep, %u in more (at most %u); %u "
              "converged, %u divergent; largest D %llu; the waves gave up "
              "on %u fixpoints\n",
              Cov.Swept, Cov.Resweeps, Cov.MostSweeps, Cov.Converged,
              Cov.Divergent, static_cast<unsigned long long>(Cov.LargestD),
              Cov.WavesGaveUp);
}

/// \p PG with its original nodes and its copies each renumbered by a
/// shuffle drawn from \p Rng, and its edge list shuffled, so the ASAP
/// sweeps visit nodes and relax edges in another order. \p Perm maps
/// each old node id to its new one.
PartitionedGraph relabeled(const PartitionedGraph &PG, RNG &Rng,
                           std::vector<unsigned> &Perm) {
  const unsigned N = PG.size();
  unsigned Ops = 0;
  while (Ops < N && PG.node(Ops).OrigOp >= 0)
    ++Ops;
  std::vector<unsigned> OpIds(Ops), CopyIds(N - Ops);
  std::iota(OpIds.begin(), OpIds.end(), 0u);
  std::iota(CopyIds.begin(), CopyIds.end(), Ops);
  Rng.shuffle(OpIds);
  Rng.shuffle(CopyIds);
  Perm = OpIds;
  Perm.insert(Perm.end(), CopyIds.begin(), CopyIds.end());
  std::vector<PGNode> Nodes(N);
  for (unsigned I = 0; I < N; ++I)
    Nodes[Perm[I]] = PG.node(I);
  std::vector<PGEdge> Edges = PG.edges();
  for (PGEdge &E : Edges) {
    E.Src = Perm[E.Src];
    E.Dst = Perm[E.Dst];
  }
  Rng.shuffle(Edges);
  return PartitionedGraph::fromRaw(PG.numClusters(), std::move(Nodes),
                                   std::move(Edges));
}

/// Runs the scheduler's ASAP fixpoint on \p PG under \p Plan, then on
/// three relabelings drawn from \p Rng, and expects the same verdict
/// and the same start for every node each time. Returns the verdict,
/// with the starts in \p Asap.
bool expectOrderFree(const PartitionedGraph &PG, const MachinePlan &Plan,
                     RNG &Rng, std::vector<int64_t> &Asap) {
  auto TG = TickGraph::build(PG, Plan);
  EXPECT_TRUE(TG.has_value());
  const bool Feasible = TG->computeAsapTicksInto(Asap);
  for (unsigned K = 0; K < 3; ++K) {
    std::vector<unsigned> Perm;
    PartitionedGraph Shuffled = relabeled(PG, Rng, Perm);
    auto TS = TickGraph::build(Shuffled, Plan);
    std::vector<int64_t> Got;
    EXPECT_EQ(TS->computeAsapTicksInto(Got), Feasible) << "relabeling " << K;
    if (!Feasible)
      continue;
    for (unsigned I = 0; I < PG.size(); ++I)
      EXPECT_EQ(Got[Perm[I]], Asap[I]) << "relabeling " << K << " node " << I;
  }
  return Feasible;
}

TEST(AsapFixpoint, OrderFreeOnTheOracleFixtures) {
  RNG Rng(0x5eed0dac);
  RNG Shuffles(0x0dde7);
  unsigned Cases = 0, Divergent = 0;
  std::vector<int64_t> Asap;
  forEachFixture(Rng, [&](const Loop &L, const DDG &G,
                          const MachineDescription &M,
                          const MachinePlan &Plan, const Partition &P) {
    PartitionedGraph PG = PartitionedGraph::build(L, G, M.Isa, P,
                                                  M.numClusters(),
                                                  M.BusLatency);
    ++Cases;
    Divergent += !expectOrderFree(PG, Plan, Shuffles, Asap);
  });
  EXPECT_GT(Divergent, 0u);
  EXPECT_GT(Cases, Divergent);
  std::printf("%u cases in four orders each, %u divergent\n", Cases,
              Divergent);
}

TEST(AsapFixpoint, OrderFreeOnTwoNodeRecurrences) {
  // Two nodes on clusters 0 and 1 with 6 x 6 opcode pairs, 7 periods
  // for each of the two clusters and the bus, and ITs from 2 to 60 ns
  // on a 1/20 ns grid, below and above every pair's cycle: a seeded
  // sample of that space.
  const char *Ops[] = {"add", "mul", "div", "fadd", "fmul", "fdiv"};
  const Rational Periods[] = {Rational(9, 10),  Rational(1),
                              Rational(21, 20), Rational(9, 8),
                              Rational(5, 4),   Rational(27, 20),
                              Rational(7, 5)};
  MachineDescription M = MachineDescription::paperDefault();
  std::vector<Loop> Loops;
  std::vector<DDG> Graphs;
  for (const char *A : Ops)
    for (const char *B : Ops) {
      Loops.push_back(twoNodeRecurrence(A, B));
      Graphs.push_back(DDG::build(Loops.back()));
    }
  Partition Split;
  Split.ClusterOf = {0, 1};
  const MachinePlan Base = roundingPlan(M, Loops[0], Graphs[0]);

  RNG Rng(0x2c1c1e);
  PseudoKernelScratch S;
  PseudoEdgeTable Table;
  unsigned Divergent = 0, WavesGaveUp = 0, MostSweeps = 0;
  uint64_t LargestD = 0;
  constexpr unsigned Samples = 12000;
  std::vector<int64_t> Asap, Restated;
  for (unsigned I = 0; I < Samples; ++I) {
    const size_t Pair = static_cast<size_t>(Rng.nextInt(0, 35));
    MachinePlan Plan = Base;
    Plan.Clusters[0].PeriodNs = Periods[Rng.nextInt(0, 6)];
    Plan.Clusters[1].PeriodNs = Periods[Rng.nextInt(0, 6)];
    Plan.Bus.PeriodNs = Periods[Rng.nextInt(0, 6)];
    Plan.ITNs = Rational(Rng.nextInt(40, 1200), 20);
    SCOPED_TRACE(testing::Message()
                 << "sample " << I << ": ops " << Pair << " IT "
                 << Plan.ITNs.str());
    PartitionedGraph PG = PartitionedGraph::build(
        Loops[Pair], Graphs[Pair], M.Isa, Split, M.numClusters(),
        M.BusLatency);
    const bool Feasible = expectOrderFree(PG, Plan, Rng, Asap);
    Divergent += !Feasible;

    auto TG = TickGraph::build(PG, Plan);
    unsigned Waves = 0;
    if (asapWaves(*TG, Restated, Waves)) {
      EXPECT_TRUE(Feasible);
      EXPECT_EQ(Restated, Asap);
    } else {
      WavesGaveUp += Feasible;
    }
    LargestD = std::max(LargestD, depthLimit(*TG, 2));

    // The kernel, in its own order and with the copy hops folded into
    // its edges, agrees on the two nodes.
    Rational ItLength;
    Table.build(Loops[Pair], Graphs[Pair], M.Isa);
    EXPECT_EQ(pseudoScheduleAsap(S, Table, TG->grid(), M.BusLatency,
                                 Split.ClusterOf, ItLength),
              Feasible);
    if (Feasible) {
      EXPECT_EQ(S.Asap, std::vector<int64_t>(Asap.begin(), Asap.begin() + 2));
    }
    MostSweeps = std::max(MostSweeps, S.LastSweeps);
  }
  EXPECT_GE(WavesGaveUp, 50u);
  EXPECT_GT(Divergent, 0u);
  std::printf("%u two-node plans: %u divergent, %u fixpoints the waves "
              "gave up on; kernel at most %u sweeps, largest D %llu\n",
              Samples, Divergent, WavesGaveUp, MostSweeps,
              static_cast<unsigned long long>(LargestD));
}

} // namespace
