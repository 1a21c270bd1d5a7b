//===- tests/sched/PseudoOracleTest.cpp - Exactness of the pseudo-schedule --===//
//
// Differential test of the pseudo-schedule estimate, whose timing kernel
// (pseudoScheduleAsap) treats the inter-cluster copies as virtual nodes
// instead of building a graph. The oracle, which lives only in this
// file, is the estimate as it was computed on a materialized
// PartitionedGraph and its TickGraph lowering. On seeded random loops,
// unrolled kernel bodies and a hand-written backward chain, under
// homogeneous and heterogeneous plans at the MIT and larger ITs (each
// also shifted off its period grid), and on random, blocked and
// all-in-one-cluster partitions, it checks that
//
//   - every PseudoSchedule field matches the oracle's bit for bit;
//   - the virtual copies are the graph's copy nodes, numbered alike;
//   - on a feasible recurrence check, the ASAP start of every node and
//     copy equals the TickGraph fixpoint's.
//
// The fixtures reach recurrence-infeasible and feasible estimates, and
// fixpoints that need more waves than the loop has nodes (the copies
// count toward the wave limit); the test asserts each one was seen. It
// also asserts that both paths of the kernel ran: answers its in-order
// sweeps certified, after one sweep and after more (a two-node backward
// chain, whose loop-carried edge raises a node already swept, needs a
// second), and answers left to the wave fallback, converged or not. A
// last fixture is a fixpoint the sweeps find but must not certify: the
// waves, whose verdict the kernel keeps, give up on it.
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

using namespace hcvliw;

namespace {

/// IT steps past the MIT each fixture is checked at.
constexpr unsigned ExtraITs = 2;
/// Random partitions per (loop, plan, IT), per kind (per node, blocked).
constexpr unsigned RandomParts = 3;

struct Coverage {
  unsigned Checked = 0, Feasible = 0, Recurrence = 0, Copies = 0;
  unsigned NoCopies = 0, DeepFixpoint = 0;
  unsigned OffGrid = 0; ///< plans whose IT is not a multiple of a period
  /// How the kernel settled each check: certified by its sweeps (and of
  /// those, after more than one sweep), or by the wave fallback, which
  /// converged or gave the recurrence verdict.
  unsigned Swept = 0, Resweeps = 0, WavesConverged = 0, WavesFailed = 0;
};

/// The oracle's answer plus what the fixpoint left behind.
struct Oracle {
  PseudoSchedule PS;
  PartitionedGraph PG;
  std::vector<int64_t> Asap; ///< empty when the recurrence check failed
  unsigned Waves = 0;        ///< waves the fixpoint ran
};

/// The TickGraph ASAP fixpoint restated over its public accessors, to
/// count the waves it runs (the limit is the graph's node count).
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
  EXPECT_EQ(asapWaves(*TG, Restated, O.Waves), !RecurrenceInfeasible);
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

  // The virtual copies are the graph's copy nodes, in the same order.
  const unsigned N = G.size();
  ASSERT_EQ(S.CopyValue.size(), Want.PG.size() - N);
  for (unsigned K = 0; K < S.CopyValue.size(); ++K) {
    const PGNode &Copy = Want.PG.node(N + K);
    EXPECT_EQ(static_cast<int>(S.CopyValue[K]), Copy.CopiedValue) << K;
    unsigned To = Want.PG.edge(Want.PG.outEdges(N + K).begin()[0]).Dst;
    EXPECT_EQ(S.CopyCluster[K], Want.PG.node(To).Domain) << K;
  }
  if (!Want.Asap.empty()) {
    EXPECT_EQ(S.Asap, Want.Asap);
  }

  ++Cov.Checked;
  Cov.Feasible += W.Feasible;
  Cov.Recurrence += Want.Asap.empty();
  Cov.Copies += W.Comms > 0;
  Cov.NoCopies += W.Comms == 0;
  Cov.DeepFixpoint += !Want.Asap.empty() && Want.Waves > N + 1;
  EXPECT_GE(S.LastSweeps, 1u);
  if (S.LastWaves == 0) {
    ++Cov.Swept;
    Cov.Resweeps += S.LastSweeps > 1;
    EXPECT_FALSE(Want.Asap.empty()) << "the sweeps certified a recurrence";
  } else {
    Cov.WavesConverged += !Want.Asap.empty();
    Cov.WavesFailed += Want.Asap.empty();
  }
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

/// Checks \p L on \p M under the homogeneous and the heterogeneous plan,
/// at the MIT and ExtraITs further ITs, plus \p Extra partitions.
void checkLoop(const Loop &L, const MachineDescription &M, RNG &Rng,
               PseudoScratch &S, Coverage &Cov,
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
      for (const MachinePlan *Pl : {&*Plan, &OffGrid}) {
        PlanGrid Grid = PlanGrid::compute(*Pl);
        bool OnGrid = Grid.itTicks() % Grid.busPeriodTicks() == 0;
        for (unsigned Cl = 0; Cl < NC; ++Cl)
          OnGrid &= Grid.itTicks() % Grid.clusterPeriodTicks(Cl) == 0;
        Cov.OffGrid += !OnGrid;
        for (const Partition &P : Parts) {
          checkPartition(L, G, M, *Pl, P, S, Cov);
          if (::testing::Test::HasFatalFailure())
            return;
        }
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

TEST(PseudoOracle, MatchesTheMaterializedGraphEstimate) {
  Coverage Cov;
  PseudoScratch S;
  RNG Rng(0x5eed0dac);
  MachineDescription Paper = MachineDescription::paperDefault();

  RandomLoopParams Params;
  Params.RecurrenceProb = 0.7;
  for (unsigned I = 0; I < 24; ++I)
    checkLoop(makeRandomLoop(Rng, Params, "rand" + std::to_string(I)), Paper,
              Rng, S, Cov);

  for (unsigned Ops : {256u, 512u}) {
    MachineDescription Big = Paper;
    for (auto &Cl : Big.Clusters)
      Cl.Registers = bigLoopRegisters(Ops);
    checkLoop(makeUnrolledKernelLoop("unrolled" + std::to_string(Ops), Ops),
              Big, Rng, S, Cov);
  }

  Loop Chain = backwardChain(24);
  Partition Alternating;
  for (unsigned N = 0; N < Chain.size(); ++N)
    Alternating.ClusterOf.push_back(N % 2);
  checkLoop(Chain, Paper, Rng, S, Cov, {Alternating});

  // One loop-carried edge against node order that binds at every IT:
  // the node it raises was already swept, so a second sweep is needed.
  unsigned ResweepsBefore = Cov.Resweeps;
  checkLoop(backwardChain(2), Paper, Rng, S, Cov);
  EXPECT_GT(Cov.Resweeps, ResweepsBefore);

  // A two-node recurrence split between a fast and a slow cluster, at
  // an IT where tick rounding lets the sweeps settle on a fixpoint
  // along walks longer than the graph (two nodes, two copies) while the
  // waves are still changing in wave Total: the sweeps' answer must be
  // refused so that the verdict stays the waves' "recurrence
  // infeasible".
  {
    SCOPED_TRACE("rounding recurrence");
    Loop L = parseSingleLoop("loop rounding trip=64\n  livein c = 1.5\n"
                             "  a = fmul b@1 c init=1\n  b = add a c\n"
                             "endloop\n");
    DDG G = DDG::build(L);
    RecurrenceInfo Recs = analyzeRecurrences(G, Paper.Isa.nodeLatencies(L));
    DomainPlanner Planner(Paper, oneFastThreeSlow(Paper),
                          FrequencyMenu::relativeLadder(4));
    auto Plan =
        Planner.planForIT(Planner.computeMIT(Recs.RecMII, L.opCountsByFU()));
    ASSERT_TRUE(Plan.has_value());
    Plan->Clusters[0].PeriodNs = Rational(9, 10);
    Plan->Clusters[1].PeriodNs = Rational(27, 20);
    Plan->Bus.PeriodNs = Rational(9, 10);
    Plan->ITNs = Rational(54, 5);
    Partition Split;
    Split.ClusterOf = {0, 1};
    unsigned RecurrenceBefore = Cov.Recurrence;
    checkPartition(L, G, Paper, *Plan, Split, S, Cov);
    EXPECT_EQ(Cov.Recurrence, RecurrenceBefore + 1);
    EXPECT_GT(S.LastWaves, 0u);
  }

  EXPECT_GT(Cov.Feasible, 0u);
  EXPECT_GT(Cov.Recurrence, 0u);
  EXPECT_GT(Cov.Copies, 0u);
  EXPECT_GT(Cov.NoCopies, 0u);
  EXPECT_GT(Cov.DeepFixpoint, 0u);
  EXPECT_GT(Cov.OffGrid, 0u);
  EXPECT_GT(Cov.Swept, 0u);
  EXPECT_GT(Cov.Resweeps, 0u);
  EXPECT_GT(Cov.WavesConverged, 0u);
  EXPECT_GT(Cov.WavesFailed, 0u);
  std::printf("checked %u partitions: feasible %u, recurrence-infeasible "
              "%u, with copies %u, fixpoints past the node count %u; %u "
              "off-grid plans\n",
              Cov.Checked, Cov.Feasible, Cov.Recurrence, Cov.Copies,
              Cov.DeepFixpoint, Cov.OffGrid);
  std::printf("kernel paths: %u certified by the sweeps (%u after more "
              "than one), %u by the waves (%u converged, %u did not)\n",
              Cov.Swept, Cov.Resweeps, Cov.WavesConverged + Cov.WavesFailed,
              Cov.WavesConverged, Cov.WavesFailed);
}

} // namespace
