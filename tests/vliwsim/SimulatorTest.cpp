//===- tests/vliwsim/SimulatorTest.cpp - Functional + pipelined sims --------===//

#include "ir/LoopDSL.h"
#include "partition/LoopScheduler.h"
#include "vliwsim/PipelinedSimulator.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace hcvliw;

namespace {

TEST(MemoryImage, DeterministicFill) {
  Loop L = parseSingleLoop(R"(
loop t trip=8
  arrays A B
  x = load A
  store B x
endloop
)");
  MemoryImage M1 = MemoryImage::initial(L, 8);
  MemoryImage M2 = MemoryImage::initial(L, 8);
  EXPECT_TRUE(M1 == M2);
  EXPECT_EQ(M1.digest(), M2.digest());
  ASSERT_EQ(M1.Arrays.size(), 2u);
  // Different arrays get different fills.
  EXPECT_NE(M1.Arrays[0][0], M1.Arrays[1][0]);
  // Values live in [0.5, 1.5).
  for (double V : M1.Arrays[0]) {
    EXPECT_GE(V, 0.5);
    EXPECT_LT(V, 1.5);
  }
}

TEST(MemoryImage, NegativeAddressesWrap) {
  EXPECT_EQ(MemoryImage::elementIndex(-1, 10), 9u);
  EXPECT_EQ(MemoryImage::elementIndex(-10, 10), 0u);
  EXPECT_EQ(MemoryImage::elementIndex(23, 10), 3u);
}

TEST(EvalOpcode, Semantics) {
  EXPECT_DOUBLE_EQ(evalOpcode(Opcode::FAdd, 2, 3), 5);
  EXPECT_DOUBLE_EQ(evalOpcode(Opcode::FSub, 2, 3), -1);
  EXPECT_DOUBLE_EQ(evalOpcode(Opcode::FMul, 2, 3), 6);
  EXPECT_DOUBLE_EQ(evalOpcode(Opcode::FDiv, 6, 3), 2);
  EXPECT_DOUBLE_EQ(evalOpcode(Opcode::FDiv, 6, 0), 0); // guarded
  EXPECT_DOUBLE_EQ(evalOpcode(Opcode::FSqrt, -9, 0), 3);
  EXPECT_DOUBLE_EQ(evalOpcode(Opcode::Copy, 7, 0), 7);
}

TEST(FunctionalSim, AccumulatorClosedForm) {
  // s_i = s_{i-1} + 2 with s_{-1} = 10 - 1*1 (init 10, step 1 at iter
  // -1 gives 9): s_i = 9 + 2*(i+1).
  Loop L = parseSingleLoop(R"(
loop acc trip=5
  arrays O
  s = fadd s@1 #2 init=10 step=1
  store O s
endloop
)");
  FunctionalResult R = runFunctional(L, 5);
  EXPECT_DOUBLE_EQ(R.LastValues[0], 9 + 2 * 5);
  // Stored values: O[i] = 9 + 2*(i+1).
  for (int I = 0; I < 5; ++I)
    EXPECT_DOUBLE_EQ(R.Memory.Arrays[0][static_cast<size_t>(I)],
                     9 + 2 * (I + 1));
}

TEST(FunctionalSim, InitStepFunction) {
  // x uses itself at distance 3: first three iterations read the init
  // function Init + Step*iter at iters -3, -2, -1.
  Loop L = parseSingleLoop(R"(
loop init trip=3
  arrays O
  x = fadd x@3 #0 init=100 step=10
  store O x
endloop
)");
  FunctionalResult R = runFunctional(L, 3);
  EXPECT_DOUBLE_EQ(R.Memory.Arrays[0][0], 100 + 10 * -3);
  EXPECT_DOUBLE_EQ(R.Memory.Arrays[0][1], 100 + 10 * -2);
  EXPECT_DOUBLE_EQ(R.Memory.Arrays[0][2], 100 + 10 * -1);
}

TEST(FunctionalSim, StoreToLoadForwardingAcrossIterations) {
  // store A[i+1] = A[i] + 1 creates a running chain through memory.
  Loop L = parseSingleLoop(R"(
loop chain trip=4
  arrays A
  x = load A
  y = fadd x #1
  store A y off=1
endloop
)");
  MemoryImage Init = MemoryImage::initial(L, 4);
  double A0 = Init.Arrays[0][0];
  FunctionalResult R = runFunctional(L, 4);
  // A[4] = A0 + 4 after four iterations of the chain.
  EXPECT_DOUBLE_EQ(R.Memory.Arrays[0][4], A0 + 4);
}

TEST(PipelinedSim, MatchesExecTimeFormula) {
  Loop L = makeStreamLoop("s", 3, 20, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success);
  PipelinedResult Sim = runPipelined(L, R.PG, R.Sched, M, 20);
  ASSERT_TRUE(Sim.Ok) << Sim.Error;
  EXPECT_EQ(Sim.TexecNs, R.Sched.execTimeNs(R.PG, 20));
}

TEST(PipelinedSim, CountsActivity) {
  Loop L = makeStreamLoop("s", 3, 10, 1.0); // 3 lanes: 9 mem, 6 fp
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success);
  PipelinedResult Sim = runPipelined(L, R.PG, R.Sched, M, 10);
  ASSERT_TRUE(Sim.Ok);
  EXPECT_DOUBLE_EQ(Sim.Activity.MemAccesses, 9.0 * 10);
  double WPerIter = 0;
  for (const auto &O : L.Ops)
    WPerIter += M.Isa.energy(O.Op);
  EXPECT_NEAR(Sim.Activity.WeightedIns, WPerIter * 10, 1e-9);
  EXPECT_DOUBLE_EQ(Sim.Activity.Comms,
                   static_cast<double>(R.PG.numCopies()) * 10);
  double ClusterSum = 0;
  for (double W : Sim.WInsPerCluster)
    ClusterSum += W;
  EXPECT_NEAR(ClusterSum, Sim.Activity.WeightedIns, 1e-9);
}

TEST(PipelinedSim, DetectsBrokenTiming) {
  Loop L = parseSingleLoop(R"(
loop t trip=8
  arrays A O
  x = load A
  y = fmul x x
  store O y
endloop
)");
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success);
  // Corrupt: issue the fmul at the load's slot (before data is ready).
  Schedule Bad = R.Sched;
  Bad.Nodes[1].Slot = Bad.Nodes[0].Slot;
  PipelinedResult Sim = runPipelined(L, R.PG, Bad, M, 8);
  EXPECT_FALSE(Sim.Ok);
  EXPECT_NE(Sim.Error.find("before its arrival"), std::string::npos);
}

TEST(MemoryImage, EqualityIsBitwise) {
  Loop L = parseSingleLoop(R"(
loop t trip=4
  arrays A
  x = load A
  store A x
endloop
)");
  MemoryImage M1 = MemoryImage::initial(L, 4);
  MemoryImage M2 = M1;
  double NaN = std::numeric_limits<double>::quiet_NaN();
  M1.Arrays[0][1] = M2.Arrays[0][1] = NaN;
  EXPECT_TRUE(M1 == M2); // the same NaN bits agree
  M2.Arrays[0][2] = M1.Arrays[0][2] + 1;
  EXPECT_FALSE(M1 == M2);
  M2.Arrays[0][2] = M1.Arrays[0][2];
  M1.Arrays[0][3] = 0.0;
  M2.Arrays[0][3] = -0.0; // == as doubles, different bits
  EXPECT_FALSE(M1 == M2);
  EXPECT_TRUE(sameBits(NaN, NaN));
  EXPECT_FALSE(sameBits(0.0, -0.0));
}

TEST(PipelinedSim, SameNaNIsNotADivergence) {
  // s overflows to +inf in iteration 0, so d = s - s is NaN in every
  // iteration, in both simulators: a correct schedule whose final value
  // and stored memory are NaN must pass the oracle.
  Loop L = parseSingleLoop(R"(
loop nan trip=8
  arrays O
  s = fmul s@1 s@1 init=1e200
  d = fsub s s
  store O d
endloop
)");
  MachineDescription M = MachineDescription::paperDefault();
  LoopScheduleResult R =
      LoopScheduler(M, HeteroConfig::reference(M)).schedule(L);
  ASSERT_TRUE(R.Success) << R.Failure;
  FunctionalResult F = runFunctional(L, 8);
  ASSERT_TRUE(std::isnan(F.LastValues[1]));
  ASSERT_TRUE(std::isnan(F.Memory.Arrays[0][7]));
  PipelinedResult P = runPipelined(L, R.PG, R.Sched, M, 8);
  ASSERT_TRUE(P.Ok) << P.Error;
  ASSERT_TRUE(std::isnan(P.LastValues[1]));
  EXPECT_EQ(checkFunctionalEquivalence(L, R.PG, R.Sched, M, 8), "");
}

class EquivalencePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EquivalencePropertyTest, PipelinedEqualsSequential) {
  auto [Seed, Buses] = GetParam();
  RNG Rng(0xabcdef ^ (static_cast<uint64_t>(Seed) << 10));
  RandomLoopParams Params;
  Params.MinOps = 10;
  Params.MaxOps = 34;
  Params.Trip = 40;
  Loop L = makeRandomLoop(Rng, Params, "equiv");

  MachineDescription M =
      MachineDescription::paperDefault(static_cast<unsigned>(Buses));
  HeteroConfig C = HeteroConfig::reference(M);
  // Alternate heterogeneous shapes by seed.
  if (Seed % 2) {
    C.Clusters[0].PeriodNs = Rational(19, 20);
    for (unsigned I = 1; I < 4; ++I)
      C.Clusters[I].PeriodNs = Rational(19, 16); // 0.95 * 5/4
    C.Icn.PeriodNs = Rational(19, 20);
    C.Cache.PeriodNs = Rational(19, 20);
  }
  LoopScheduler Sched(M, C);
  LoopScheduleResult R = Sched.schedule(L);
  ASSERT_TRUE(R.Success) << R.Failure;
  EXPECT_EQ(checkFunctionalEquivalence(L, R.PG, R.Sched, M, 40), "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquivalencePropertyTest,
                         ::testing::Combine(::testing::Range(0, 20),
                                            ::testing::Values(1, 2)));

} // namespace
