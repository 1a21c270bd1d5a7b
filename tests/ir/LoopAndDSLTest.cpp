//===- tests/ir/LoopAndDSLTest.cpp - Loop IR and DSL parser tests -----------===//

#include "TextMutator.h"
#include "ir/LoopBuilder.h"
#include "ir/LoopDSL.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace hcvliw;

namespace {

TEST(Opcode, Categories) {
  EXPECT_EQ(categoryOf(Opcode::Load), OpCategory::Memory);
  EXPECT_EQ(categoryOf(Opcode::FAdd), OpCategory::Arith);
  EXPECT_EQ(categoryOf(Opcode::IntMul), OpCategory::Mul);
  EXPECT_EQ(categoryOf(Opcode::FSqrt), OpCategory::Div);
  EXPECT_EQ(categoryOf(Opcode::Copy), OpCategory::Copy);
}

TEST(Opcode, FUMapping) {
  EXPECT_EQ(fuKindOf(Opcode::Load), FUKind::MemPort);
  EXPECT_EQ(fuKindOf(Opcode::Store), FUKind::MemPort);
  EXPECT_EQ(fuKindOf(Opcode::IntAdd), FUKind::IntFU);
  EXPECT_EQ(fuKindOf(Opcode::FDiv), FUKind::FpFU);
  EXPECT_EQ(fuKindOf(Opcode::Copy), FUKind::Bus);
}

TEST(Opcode, ParseNames) {
  EXPECT_EQ(parseOpcode("fadd"), Opcode::FAdd);
  EXPECT_EQ(parseOpcode("load"), Opcode::Load);
  EXPECT_FALSE(parseOpcode("copy").has_value());
  EXPECT_FALSE(parseOpcode("bogus").has_value());
  for (Opcode Op : {Opcode::IntAdd, Opcode::FMul, Opcode::Store})
    EXPECT_EQ(parseOpcode(opcodeName(Op)), Op);
}

TEST(Opcode, OperandCounts) {
  EXPECT_EQ(numOperandsOf(Opcode::Load), 0u);
  EXPECT_EQ(numOperandsOf(Opcode::Store), 1u);
  EXPECT_EQ(numOperandsOf(Opcode::FSqrt), 1u);
  EXPECT_EQ(numOperandsOf(Opcode::FAdd), 2u);
}

TEST(DSL, ParsesDotProduct) {
  ParsedLoops P = parseLoops(R"(
# comment line
loop dot trip=8 weight=2.5
  arrays A B S
  livein k = 1.5
  x = load A
  y = load B off=1 scale=2
  m = fmul x y
  s = fadd s@1 m init=3 step=0.5
  store S s
endloop
)");
  ASSERT_TRUE(P.ok()) << P.Error;
  ASSERT_EQ(P.Loops.size(), 1u);
  const Loop &L = P.Loops[0];
  EXPECT_EQ(L.Name, "dot");
  EXPECT_EQ(L.TripCount, 8u);
  EXPECT_DOUBLE_EQ(L.Weight, 2.5);
  EXPECT_EQ(L.size(), 5u);
  EXPECT_EQ(L.Arrays.size(), 3u);
  ASSERT_EQ(L.LiveIns.size(), 1u);
  EXPECT_DOUBLE_EQ(L.LiveIns[0].Value, 1.5);

  const Operation &Y = L.Ops[1];
  EXPECT_EQ(Y.Offset, 1);
  EXPECT_EQ(Y.IndexScale, 2);
  const Operation &S = L.Ops[3];
  ASSERT_EQ(S.Operands.size(), 2u);
  EXPECT_EQ(S.Operands[0].Kind, OperandKind::Def);
  EXPECT_EQ(S.Operands[0].Index, 3u);
  EXPECT_EQ(S.Operands[0].Distance, 1u);
  EXPECT_DOUBLE_EQ(S.InitValue, 3);
  EXPECT_DOUBLE_EQ(S.InitStep, 0.5);
}

TEST(DSL, ParsesMultipleLoops) {
  ParsedLoops P = parseLoops(R"(
loop a trip=2
  arrays X
  v = load X
  store X v off=1
endloop
loop b trip=3
  arrays Y
  w = load Y
  store Y w off=2
endloop
)");
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.Loops.size(), 2u);
  EXPECT_EQ(P.Loops[1].Name, "b");
}

TEST(DSL, ImmediateOperands) {
  Loop L = parseSingleLoop(R"(
loop imm trip=2
  arrays O
  v = fadd #1.5 #2.5
  store O v
endloop
)");
  EXPECT_EQ(L.Ops[0].Operands[0].Kind, OperandKind::Immediate);
  EXPECT_DOUBLE_EQ(L.Ops[0].Operands[0].Imm, 1.5);
}

TEST(DSL, ErrorsCarryLineNumbers) {
  ParsedLoops P = parseLoops("loop x trip=4\n  v = bogus a b\nendloop\n");
  EXPECT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("line 2"), std::string::npos);
  EXPECT_NE(P.Error.find("bogus"), std::string::npos);
}

// Operand tokens are read whole: a distance that would wrap, a signed
// or non-numeric distance, an empty name and a partly numeric immediate
// are refused on their own line instead of silently read as another
// value.
TEST(DSL, MalformedOperandTokensAreRefusedWithTheirLine) {
  for (const char *Tok : {"s@4294967297", "s@zz", "s@-3", "s@", "s@+1",
                          "@1", "#1.0zz", "#1e999"}) {
    std::string Text = std::string("loop x trip=4\n  arrays A\n"
                                   "  s = fadd s@1 #1\n"
                                   "  v = fadd s ") +
                       Tok + "\n  store A v\nendloop\n";
    ParsedLoops P = parseLoops(Text);
    EXPECT_FALSE(P.ok()) << Tok;
    EXPECT_NE(P.Error.find("line 4"), std::string::npos) << Tok << ": "
                                                          << P.Error;
    EXPECT_NE(P.Error.find(Tok), std::string::npos) << P.Error;
  }
  // The largest distance still parses, exactly.
  Loop L = parseSingleLoop("loop x trip=4\n  arrays A\n"
                           "  s = fadd s@4294967295 #1\n"
                           "  store A s\nendloop\n");
  EXPECT_EQ(L.Ops[0].Operands[0].Distance, 4294967295u);
}

// A weight scales the loop's share of the program: NaN or inf would
// poison every share, so only finite positive weights are read.
TEST(DSL, NonFiniteOrNonPositiveWeightIsRefused) {
  for (const char *W : {"nan", "inf", "-inf", "0", "-1", "1e999"}) {
    ParsedLoops P = parseLoops(std::string("loop x trip=4 weight=") + W +
                               "\n  arrays A\n  v = load A\n"
                               "  store A v\nendloop\n");
    EXPECT_FALSE(P.ok()) << W;
    EXPECT_NE(P.Error.find("line 1: bad weight"), std::string::npos)
        << W << ": " << P.Error;
  }
}

TEST(DSL, ParseSingleLoopThrowsInEveryBuild) {
  EXPECT_THROW(parseSingleLoop("loop x trip=4\n  v = bogus a b\nendloop\n"),
               std::invalid_argument);
  EXPECT_THROW(parseSingleLoop(""), std::invalid_argument);
  EXPECT_THROW(parseSingleLoop("loop a trip=1\n  arrays X\n  v = load X\n"
                               "  store X v\nendloop\n"
                               "loop b trip=1\n  arrays X\n  v = load X\n"
                               "  store X v\nendloop\n"),
               std::invalid_argument);
}

// Seeded mutations of valid loop texts: every one parses or is refused
// with a line-numbered error, none throws, and every accepted loop
// passes Loop::validate.
TEST(DSL, HostileMutationsParseOrRefuse) {
  const std::vector<std::string> Valid = {
      "# comment line\n"
      "loop dot trip=8 weight=2.5\n"
      "  arrays A B S\n"
      "  livein k = 1.5\n"
      "  x = load A\n"
      "  y = load B off=1 scale=2\n"
      "  m = fmul x y\n"
      "  s = fadd s@1 m init=3 step=0.5\n"
      "  t = fmul s@2 k\n"
      "  store S t\n"
      "endloop\n",
      "loop a trip=2\n"
      "  arrays X\n"
      "  v = load X\n"
      "  w = fadd v #1.5\n"
      "  store X w off=1\n"
      "endloop\n"
      "loop b trip=3\n"
      "  arrays Y\n"
      "  u = load Y scale=4\n"
      "  r = fadd r@3 u\n"
      "  store Y r off=-2\n"
      "endloop\n",
  };
  RNG R(0xd51f022);
  unsigned Accepted = 0, Refused = 0;
  for (unsigned I = 0; I < 2000; ++I) {
    std::string Text = R.pick(Valid);
    for (int64_t M = R.nextInt(1, 3); M > 0; --M)
      Text = mutateText(Text, R);
    ParsedLoops P;
    ASSERT_NO_THROW(P = parseLoops(Text)) << Text;
    if (!P.ok()) {
      ++Refused;
      EXPECT_EQ(P.Error.rfind("line ", 0), 0u) << Text << "\n" << P.Error;
      EXPECT_TRUE(P.Loops.empty());
      continue;
    }
    ++Accepted;
    for (const Loop &L : P.Loops)
      EXPECT_EQ(L.validate(), "") << Text;
  }
  // Both outcomes are exercised, so neither path goes untested.
  EXPECT_GT(Accepted, 200u);
  EXPECT_GT(Refused, 200u);
}

TEST(DSL, RejectsUnknownValue) {
  ParsedLoops P = parseLoops("loop x trip=4\n  arrays A\n  v = fadd q q\n"
                             "  store A v\nendloop\n");
  EXPECT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("unknown value 'q'"), std::string::npos);
}

TEST(DSL, RejectsMissingEndloop) {
  ParsedLoops P = parseLoops("loop x trip=4\n  arrays A\n  v = load A\n");
  EXPECT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("endloop"), std::string::npos);
}

TEST(DSL, RejectsRedefinition) {
  ParsedLoops P = parseLoops(
      "loop x trip=4\n  arrays A\n  v = load A\n  v = load A off=1\n"
      "  store A v\nendloop\n");
  EXPECT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("redefinition"), std::string::npos);
}

TEST(DSL, RejectsWrongOperandCount) {
  ParsedLoops P = parseLoops(
      "loop x trip=4\n  arrays A\n  t = load A\n  v = fadd t\n"
      "  store A v\nendloop\n");
  EXPECT_FALSE(P.ok());
  EXPECT_NE(P.Error.find("wants 2 operands"), std::string::npos);
}

TEST(DSL, RejectsUnknownArray) {
  ParsedLoops P =
      parseLoops("loop x trip=4\n  v = load NOPE\n  store NOPE v\nendloop\n");
  EXPECT_FALSE(P.ok());
}

TEST(Loop, ValidateCatchesSameIterationForwardUse) {
  // op 0 uses op 1 at distance 0: invalid SSA order.
  Loop L;
  L.Name = "bad";
  L.TripCount = 4;
  L.Arrays = {"A"};
  Operation O1;
  O1.Op = Opcode::FAdd;
  O1.Name = "x";
  O1.Operands = {Operand::def(1, 0), Operand::imm(1)};
  Operation O2;
  O2.Op = Opcode::FAdd;
  O2.Name = "y";
  O2.Operands = {Operand::imm(1), Operand::imm(2)};
  L.Ops = {O1, O2};
  EXPECT_NE(L.validate().find("later def"), std::string::npos);
}

TEST(Loop, ValidateBackwardCarriedUseIsFine) {
  Loop L = parseSingleLoop(R"(
loop fwd trip=4
  arrays O
  x = fadd y@1 #1 init=0
  y = fadd x #1
  store O y
endloop
)");
  EXPECT_EQ(L.validate(), "");
}

TEST(Loop, StrRoundTripsThroughParser) {
  Loop L = parseSingleLoop(R"(
loop rt trip=16 weight=3
  arrays A S
  livein c = 2
  x = load A off=-1
  m = fmul x c
  s = fadd s@2 m init=1 step=2
  store S s
endloop
)");
  Loop L2 = parseSingleLoop(L.str());
  EXPECT_EQ(L2.Name, L.Name);
  EXPECT_EQ(L2.TripCount, L.TripCount);
  ASSERT_EQ(L2.size(), L.size());
  for (unsigned I = 0; I < L.size(); ++I) {
    EXPECT_EQ(L2.Ops[I].Op, L.Ops[I].Op);
    EXPECT_EQ(L2.Ops[I].Offset, L.Ops[I].Offset);
    EXPECT_DOUBLE_EQ(L2.Ops[I].InitValue, L.Ops[I].InitValue);
  }
}

TEST(Loop, OpCountsByFU) {
  Loop L = parseSingleLoop(R"(
loop counts trip=4
  arrays A O
  x = load A
  i = add x x
  f = fmul x x
  g = fdiv f x
  store O g
endloop
)");
  auto C = L.opCountsByFU();
  EXPECT_EQ(C[static_cast<unsigned>(FUKind::MemPort)], 2u);
  EXPECT_EQ(C[static_cast<unsigned>(FUKind::IntFU)], 1u);
  EXPECT_EQ(C[static_cast<unsigned>(FUKind::FpFU)], 2u);
  EXPECT_EQ(C[static_cast<unsigned>(FUKind::Bus)], 0u);
}

TEST(LoopBuilder, BuildsValidLoops) {
  LoopBuilder B("built", 8, 2.0);
  unsigned A = B.array("A");
  Operand K = B.liveIn("k", 3.0);
  unsigned X = B.load("x", A);
  unsigned M = B.op(Opcode::FMul, "m", Operand::def(X), K);
  unsigned S = B.unop(Opcode::FSqrt, "s", Operand::def(M));
  B.setInit(S, 1.0, 0.0);
  B.store(A, Operand::def(S), 1);
  Loop L = B.take();
  EXPECT_EQ(L.validate(), "");
  EXPECT_EQ(L.size(), 4u);
  EXPECT_EQ(L.findOp("m"), 1);
  EXPECT_EQ(L.findOp("nope"), -1);
  EXPECT_EQ(L.findLiveIn("k"), 0);
}

} // namespace
