//===- tests/profiling/ProfilerTest.cpp - Reference profiling ---------------===//

#include "ir/DDG.h"
#include "ir/RecurrenceAnalysis.h"
#include "partition/LoopScheduler.h"
#include "partition/ScheduleScratch.h"
#include "profiling/Profiler.h"
#include "support/RNG.h"
#include "workloads/SpecFPSuite.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

using namespace hcvliw;

namespace {

TEST(Profiler, FieldsArePopulated) {
  MachineDescription M = MachineDescription::paperDefault();
  Profiler Prof(M, 1e6);
  std::vector<Loop> Loops = {makeStreamLoop("s", 5, 32, 0.6),
                             makeChainRecurrenceLoop("r", 1, 2, 1, 3, 32,
                                                     0.4)};
  auto P = Prof.profileProgram("test", Loops);
  ASSERT_TRUE(P.has_value());
  ASSERT_EQ(P->Loops.size(), 2u);

  const LoopProfile &S = P->Loops[0];
  EXPECT_EQ(S.Name, "s");
  EXPECT_EQ(S.RecMII, 0);
  EXPECT_EQ(S.ResMII, 4); // 15 mem ops / 4 ports
  EXPECT_GT(S.IIHom, 0);
  EXPECT_GT(S.PerIter.WeightedIns, 0);
  EXPECT_DOUBLE_EQ(S.PerIter.MemAccesses, 15);
  EXPECT_GT(S.SumLifetimesRef, 0);
  EXPECT_FALSE(S.Components.empty());

  const LoopProfile &R = P->Loops[1];
  EXPECT_EQ(R.RecMII, 12);
  EXPECT_EQ(R.classification(), LoopConstraint::Recurrence);
  EXPECT_EQ(S.classification(), LoopConstraint::Resource);
}

TEST(Profiler, InvocationsRealizeWeights) {
  MachineDescription M = MachineDescription::paperDefault();
  Profiler Prof(M, 2e6);
  std::vector<Loop> Loops = {makeStreamLoop("a", 4, 32, 3.0),
                             makeStreamLoop("b", 4, 32, 1.0)};
  auto P = Prof.profileProgram("w", Loops);
  ASSERT_TRUE(P.has_value());
  // Weights normalize to 0.75 / 0.25 of the 2e6 ns budget.
  EXPECT_NEAR(P->Loops[0].totalRefNs(), 1.5e6, 1);
  EXPECT_NEAR(P->Loops[1].totalRefNs(), 0.5e6, 1);
  EXPECT_NEAR(P->TexecRefNs, 2e6, 1);
  auto Shares = P->shareByConstraint();
  EXPECT_NEAR(Shares[0], 1.0, 1e-9); // all resource-constrained
}

TEST(Profiler, NonPositiveBudgetThrowsInEveryBuild) {
  MachineDescription M = MachineDescription::paperDefault();
  for (double Budget : {0.0, -1.0, std::nan("")})
    EXPECT_THROW(Profiler(M, Budget), std::invalid_argument) << Budget;
  EXPECT_NO_THROW(Profiler(M, 1.0));
}

TEST(Profiler, ClassificationBoundaries) {
  LoopProfile LP;
  LP.ResMII = 10;
  LP.RecMII = 9;
  EXPECT_EQ(LP.classification(), LoopConstraint::Resource);
  LP.RecMII = 10;
  EXPECT_EQ(LP.classification(), LoopConstraint::Borderline);
  LP.RecMII = 12; // 1.2 * resMII < 1.3
  EXPECT_EQ(LP.classification(), LoopConstraint::Borderline);
  LP.RecMII = 13; // exactly 1.3 * resMII
  EXPECT_EQ(LP.classification(), LoopConstraint::Recurrence);
}

TEST(Profiler, ComponentsCoverAllOps) {
  MachineDescription M = MachineDescription::paperDefault();
  Profiler Prof(M);
  std::vector<Loop> Loops = {makeStreamLoop("s", 6, 32, 1.0)};
  auto P = Prof.profileProgram("c", Loops);
  ASSERT_TRUE(P.has_value());
  const LoopProfile &LP = P->Loops[0];
  // 6 independent lanes -> 6 components of 5 ops each.
  EXPECT_EQ(LP.Components.size(), 6u);
  unsigned Total = 0;
  for (const auto &CP : LP.Components) {
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Total += CP.FUCounts[K];
    EXPECT_EQ(CP.RecMII, 0);
  }
  EXPECT_EQ(Total, LP.NumOps);
}

TEST(Profiler, CriticalComponentCarriesRecMII) {
  MachineDescription M = MachineDescription::paperDefault();
  Profiler Prof(M);
  std::vector<Loop> Loops = {
      makeChainRecurrenceLoop("r", 1, 2, 1, 2, 32, 1.0)};
  auto P = Prof.profileProgram("c", Loops);
  ASSERT_TRUE(P.has_value());
  int64_t MaxComp = 0;
  for (const auto &CP : P->Loops[0].Components)
    MaxComp = std::max(MaxComp, CP.RecMII);
  EXPECT_EQ(MaxComp, P->Loops[0].RecMII);
}

/// The profiler's own component analysis before the components moved
/// into the loop analyses of the Figure 5 driver: union-find over the
/// DDG's edges, components numbered by their lowest node, recMII from a
/// fresh recurrence analysis.
std::vector<LoopComponent> oracleComponents(const Loop &L,
                                            const MachineDescription &M) {
  std::vector<LoopComponent> Out;
  DDG G = DDG::build(L);
  RecurrenceInfo Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
  std::vector<unsigned> Root(L.size());
  std::iota(Root.begin(), Root.end(), 0u);
  auto Find = [&Root](unsigned X) {
    while (Root[X] != X)
      X = Root[X] = Root[Root[X]];
    return X;
  };
  for (const auto &E : G.edges()) {
    unsigned A = Find(E.Src), B = Find(E.Dst);
    if (A != B)
      Root[A] = B;
  }
  std::vector<int> CompIx(L.size(), -1);
  for (unsigned N = 0; N < L.size(); ++N) {
    unsigned Rep = Find(N);
    if (CompIx[Rep] < 0) {
      CompIx[Rep] = static_cast<int>(Out.size());
      Out.emplace_back();
    }
    LoopComponent &CP = Out[static_cast<size_t>(CompIx[Rep])];
    ++CP.FUCounts[static_cast<unsigned>(fuKindOf(L.Ops[N].Op))];
    int RecId = Recs.RecurrenceOf[N];
    if (RecId >= 0)
      CP.RecMII = std::max(
          CP.RecMII, Recs.Recurrences[static_cast<size_t>(RecId)].RecMII);
  }
  return Out;
}

void expectSameComponents(const std::vector<LoopComponent> &A,
                          const std::vector<LoopComponent> &B,
                          const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].FUCounts, B[I].FUCounts) << What << " component " << I;
    EXPECT_EQ(A[I].RecMII, B[I].RecMII) << What << " component " << I;
  }
}

TEST(Profiler, StoredComponentsMatchTheOracle) {
  // The components every schedule carries, and the profiler reads from
  // the reference schedule, equal the profiler's former analysis: on
  // every SPECfp loop, on seeded random loops, on multi-component and
  // recurrence loops, on a heterogeneous schedule and on a
  // loop-analysis memo hit.
  MachineDescription M = MachineDescription::paperDefault();
  Profiler Prof(M);
  unsigned MultiComponent = 0, WithRecurrence = 0;
  for (const auto &Prog : buildSpecFPSuite()) {
    auto P = Prof.profileProgram(Prog.Name, Prog.Loops);
    ASSERT_TRUE(P.has_value()) << Prog.Name;
    for (size_t I = 0; I < Prog.Loops.size(); ++I) {
      std::vector<LoopComponent> Want = oracleComponents(Prog.Loops[I], M);
      expectSameComponents(P->Loops[I].Components, Want,
                           Prog.Name + "/" + Prog.Loops[I].Name);
      MultiComponent += Want.size() > 1;
      WithRecurrence += std::any_of(
          Want.begin(), Want.end(),
          [](const LoopComponent &C) { return C.RecMII > 0; });
    }
  }
  // Seeded random loops, straight through the ir helper.
  RNG Rng(0xc0c0);
  RandomLoopParams Params;
  Params.MaxOps = 60;
  for (unsigned I = 0; I < 200; ++I) {
    Loop L = makeRandomLoop(Rng, Params, "rand" + std::to_string(I));
    std::vector<LoopComponent> Want = oracleComponents(L, M);
    DDG G = DDG::build(L);
    expectSameComponents(
        computeLoopComponents(
            L, G, analyzeRecurrences(G, M.Isa.nodeLatencies(L))),
        Want, L.Name);
    MultiComponent += Want.size() > 1;
  }
  EXPECT_GT(MultiComponent, 0u);
  EXPECT_GT(WithRecurrence, 0u);

  HeteroConfig Het = HeteroConfig::reference(M);
  for (unsigned C = 1; C < Het.numClusters(); ++C)
    Het.Clusters[C].PeriodNs = Rational(5, 4);
  ScheduleScratch Scratch;
  for (const Loop &L : {makeStreamLoop("s", 6, 32, 1.0),
                        makeChainRecurrenceLoop("r", 1, 2, 1, 3, 32, 1.0)}) {
    std::vector<LoopComponent> Want = oracleComponents(L, M);
    for (unsigned Run = 0; Run < 2; ++Run) { // the second hits the memo
      LoopScheduleResult R = LoopScheduler(M, Het).schedule(
          L, nullptr, nullptr, &Scratch);
      ASSERT_TRUE(R.Success) << L.Name;
      expectSameComponents(R.Components, Want, L.Name);
    }
  }
}

TEST(Profiler, WholeSuiteProfiles) {
  MachineDescription M = MachineDescription::paperDefault();
  Profiler Prof(M);
  for (const auto &Prog : buildSpecFPSuite()) {
    auto P = Prof.profileProgram(Prog.Name, Prog.Loops);
    ASSERT_TRUE(P.has_value()) << Prog.Name;
    auto Shares = P->shareByConstraint();
    EXPECT_NEAR(Shares[0] + Shares[1] + Shares[2], 1.0, 1e-9) << Prog.Name;
  }
}

} // namespace
