//===- tests/machine/MachineTest.cpp - Machine model tests ------------------===//

#include "ir/LoopDSL.h"
#include "machine/MachineDescription.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace hcvliw;

namespace {

TEST(IsaTable, PaperTable1Defaults) {
  IsaTable T;
  EXPECT_EQ(T.latency(Opcode::Load), 2u);
  EXPECT_EQ(T.latency(Opcode::Store), 2u);
  EXPECT_EQ(T.latency(Opcode::IntAdd), 1u);
  EXPECT_EQ(T.latency(Opcode::FAdd), 3u);
  EXPECT_EQ(T.latency(Opcode::IntMul), 2u);
  EXPECT_EQ(T.latency(Opcode::FMul), 6u);
  EXPECT_EQ(T.latency(Opcode::IntDiv), 6u);
  EXPECT_EQ(T.latency(Opcode::FDiv), 18u);
  EXPECT_EQ(T.latency(Opcode::FSqrt), 18u);

  EXPECT_DOUBLE_EQ(T.energy(Opcode::IntAdd), 1.0);
  EXPECT_DOUBLE_EQ(T.energy(Opcode::FAdd), 1.2);
  EXPECT_DOUBLE_EQ(T.energy(Opcode::IntMul), 1.1);
  EXPECT_DOUBLE_EQ(T.energy(Opcode::FMul), 1.5);
  EXPECT_DOUBLE_EQ(T.energy(Opcode::IntDiv), 1.4);
  EXPECT_DOUBLE_EQ(T.energy(Opcode::FDiv), 2.0);
  EXPECT_DOUBLE_EQ(T.energy(Opcode::Load), 1.0);
}

TEST(IsaTable, CopyIsFreePerInstruction) {
  // Copies are charged through the communication term, not E_ins.
  IsaTable T;
  EXPECT_DOUBLE_EQ(T.energy(Opcode::Copy), 0.0);
  EXPECT_EQ(T.latency(Opcode::Copy), 1u);
}

TEST(IsaTable, SetOverrides) {
  IsaTable T;
  T.set(OpCategory::Arith, /*IsFloat=*/true, {4, 1.3});
  EXPECT_EQ(T.latency(Opcode::FAdd), 4u);
  EXPECT_DOUBLE_EQ(T.energy(Opcode::FSub), 1.3);
  // INT arithmetic unaffected.
  EXPECT_EQ(T.latency(Opcode::IntAdd), 1u);
}

TEST(IsaTable, SetRejectsCopyAndZeroLatencyInEveryBuild) {
  IsaTable T;
  EXPECT_THROW(T.set(OpCategory::Copy, /*IsFloat=*/false, {2, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(T.set(OpCategory::Arith, /*IsFloat=*/true, {0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(T.set(OpCategory::Div, /*IsFloat=*/false, {0, 1.4}),
               std::invalid_argument);
  // A rejected set leaves the table as it was.
  EXPECT_EQ(T.latency(Opcode::FAdd), 3u);
  EXPECT_EQ(T.latency(Opcode::IntDiv), 6u);
  EXPECT_EQ(T.latency(Opcode::Copy), 1u);
}

TEST(Machine, PaperDefaultShape) {
  MachineDescription M = MachineDescription::paperDefault();
  EXPECT_EQ(M.numClusters(), 4u);
  EXPECT_EQ(M.Buses, 1u);
  for (const auto &C : M.Clusters) {
    EXPECT_EQ(C.IntFUs, 1u);
    EXPECT_EQ(C.FpFUs, 1u);
    EXPECT_EQ(C.MemPorts, 1u);
    EXPECT_EQ(C.Registers, 16u);
  }
  EXPECT_EQ(M.totalFUs(FUKind::IntFU), 4u);
  EXPECT_EQ(M.totalFUs(FUKind::FpFU), 4u);
  EXPECT_EQ(M.totalFUs(FUKind::MemPort), 4u);
  EXPECT_EQ(M.totalFUs(FUKind::Bus), 1u);
  EXPECT_EQ(M.refFrequency(), Rational(1));
}

TEST(Machine, TwoBusVariant) {
  MachineDescription M = MachineDescription::paperDefault(2);
  EXPECT_EQ(M.Buses, 2u);
  EXPECT_EQ(M.totalFUs(FUKind::Bus), 2u);
}

TEST(Machine, ResMIIByKind) {
  MachineDescription M = MachineDescription::paperDefault();
  Loop L = parseSingleLoop(R"(
loop t trip=4
  arrays A O
  a = load A
  b = load A off=1
  c = load A off=2
  d = load A off=3
  e = load A off=4
  f = fadd a b
  store O f
endloop
)");
  // 6 memory ops over 4 ports -> ceil(6/4) = 2; 1 FP op -> 1.
  EXPECT_EQ(M.computeResMII(L), 2);
}

TEST(Machine, ResMIIAtLeastOne) {
  MachineDescription M = MachineDescription::paperDefault();
  Loop L = parseSingleLoop(R"(
loop t trip=4
  arrays O
  a = fadd #1 #2
  store O a
endloop
)");
  EXPECT_EQ(M.computeResMII(L), 1);
}

TEST(Machine, SingleClusterResMII) {
  MachineDescription M = MachineDescription::paperDefault(1, 1);
  EXPECT_EQ(M.Clusters[0].Registers, 64u);
  Loop L = parseSingleLoop(R"(
loop t trip=4
  arrays A O
  a = load A
  b = load A off=1
  f = fadd a b
  g = fmul f f
  store O g
endloop
)");
  // 3 memory ops on 1 port -> 3.
  EXPECT_EQ(M.computeResMII(L), 3);
}

} // namespace
