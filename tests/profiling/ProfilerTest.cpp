//===- tests/profiling/ProfilerTest.cpp - Reference profiling ---------------===//

#include "profiling/Profiler.h"
#include "workloads/SpecFPSuite.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <cmath>
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
