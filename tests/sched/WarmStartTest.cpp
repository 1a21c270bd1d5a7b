//===- tests/sched/WarmStartTest.cpp - Memoized sweep golden digests --------===//
//
// The Figure 5 sweep reuses exact memos through its scratch arena (the
// loop-analysis memo across runs, the coarsening memo across attempts
// and IT steps, the refinement eval stamps), so its results must be
// the ones a sweep that recomputes everything produces. That reference
// is golden data here: FNV digests of every result field (success
// state, failure text and per-IT failure log, MIT, IT steps, effort
// counters, machine plan, slot/unit per node, assignment, register
// pressure), recorded from a build that still ran the cold path beside
// the memoized one and agreed with it. Covered: ~50 random loops x 4
// heterogeneous plans x 2 frequency menus with one arena shared across
// the whole sweep (a stale memo surfaces there), the two-attempt ED2
// flow, and the 320/512-op unrolled kernels whose levels run the
// boundary-FM refinement. The arena itself is inert: a shared arena, a
// fresh arena and no arena give the same results.
//
//===----------------------------------------------------------------------===//

#include "configsel/Scaling.h"
#include "partition/LoopScheduler.h"
#include "partition/ScheduleScratch.h"
#include "support/HashUtil.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <cstdio>

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

void mixInts(FnvHasher &H, const std::vector<int64_t> &V) {
  H.mix(V.size());
  for (int64_t X : V)
    H.mixSigned(X);
}

void mixString(FnvHasher &H, const std::string &S) {
  H.mix(S.size());
  for (char C : S)
    H.mix(static_cast<unsigned char>(C));
}

/// Every result field except the partitioner's effort counters
/// (PartStats), which report work performed and so drop when a memo
/// fires.
void mixResult(FnvHasher &H, const LoopScheduleResult &R) {
  H.mix(R.Success);
  mixString(H, R.Failure);
  H.mixRational(R.MITNs);
  H.mix(R.ITSteps);
  H.mix(R.Placements);
  H.mix(R.Ejections);
  H.mix(R.BudgetUsed);
  H.mixSigned(R.RecMII);
  H.mixSigned(R.ResMII);
  H.mix(R.FailureLog.size());
  for (const ITFailure &F : R.FailureLog) {
    H.mix(F.Step);
    H.mixRational(F.ITNs);
    mixString(H, F.Reason);
    H.mix(F.Count);
  }
  if (!R.Success)
    return;
  H.mixRational(R.Sched.Plan.ITNs);
  H.mix(R.Sched.Nodes.size());
  for (const ScheduledNode &N : R.Sched.Nodes) {
    H.mixSigned(N.Slot);
    H.mix(N.Unit);
  }
  H.mixVector(R.Assignment.ClusterOf);
  mixInts(H, R.Pressure.MaxLive);
  mixInts(H, R.Pressure.SumLifetimes);
}

uint64_t digestResult(const LoopScheduleResult &R) {
  FnvHasher H;
  mixResult(H, R);
  return H.digest();
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016llxull",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Digest of the sweep below per seed, over its 4 plans x 2 menus in
/// order.
constexpr uint64_t PropertyGolden[50] = {
    0x997c72aca3084aacull, 0xc2fe1994d364cc21ull, 0x0c4ef0939c4d2d01ull,
    0x07863eedd4593ddfull, 0x9f589aab2eb8bd72ull, 0x0d6d4c8516461c51ull,
    0x179606de77d0414full, 0xb6b0d9943c76543aull, 0xfcdac4639127ffbaull,
    0x60d8460963da5ddaull, 0xa9b4f6facf358f65ull, 0xd9868fdb90b2af20ull,
    0x872450858824d09full, 0xc5b460f058b005bbull, 0xfdf31c139f26d9ebull,
    0x8f1ab3a6e59d8c12ull, 0x5e0d713e08410dbfull, 0x7cc00ee04e8ba60full,
    0xcac5a4836b8ab96bull, 0x2a8be2f80769160eull, 0x2382870331cb0420ull,
    0x6ed8d4bdf8c551d7ull, 0x32d38a6c115f52c9ull, 0xc70080b1292c3433ull,
    0x1e0139a893e3b481ull, 0x0831b33ee868c3f1ull, 0x4afead6e9d1e98cdull,
    0xfc86594a935be566ull, 0xbbfd039bc5dfa0fbull, 0x071199a03ae33c43ull,
    0x57c7f6d119abb923ull, 0xe038ddafa22e779bull, 0xca76cebf9165d001ull,
    0x8f277c06f960c72bull, 0x6e904df6f85bc98bull, 0x722d7108a8424574ull,
    0x5a2bf50bd4aeedafull, 0x0d553575743eeacfull, 0x2a0766310250a0bdull,
    0xdb8bf5e7baadb9cbull, 0x537168ac085c6c9full, 0x234b2f41f31d4266ull,
    0x97a1cb030d1e9c27ull, 0x2a9c2007e0292596ull, 0x4f138f139b2c967eull,
    0x24905b8fad2ce10cull, 0x0fbf83d63f6e905dull, 0x681157a8e4482202ull,
    0xa437c5f7769a5f3dull, 0x693a4278b3b67592ull};

class WarmStartPropertyTest : public ::testing::TestWithParam<int> {};

// ~50 random loops x 4 plans x 2 menus through the whole Figure 5
// driver. One arena is shared across every (plan, menu) run — exactly
// the reuse pattern of a suite measurement — so stale-memo bugs across
// runs surface here.
TEST_P(WarmStartPropertyTest, FullDriverMatchesGoldenDigests) {
  int Seed = GetParam();
  RNG Rng(static_cast<uint64_t>(Seed) * 52361 + 11);
  RandomLoopParams Params;
  Params.MinOps = 6;
  Params.MaxOps = 40;
  Params.Trip = 24;
  Loop L = makeRandomLoop(Rng, Params, "warmprop");
  ASSERT_EQ(L.validate(), "");

  MachineDescription M = MachineDescription::paperDefault();
  ScheduleScratch Shared;
  FnvHasher Sweep;
  for (unsigned Kind = 0; Kind < 4; ++Kind) {
    HeteroConfig C = configFor(M, Kind);
    for (unsigned MenuKind = 0; MenuKind < 2; ++MenuKind) {
      LoopScheduleOptions O;
      O.Menu = MenuKind ? FrequencyMenu::relativeLadder(4)
                        : FrequencyMenu::continuous();
      std::string Tag = "seed " + std::to_string(Seed) + " kind " +
                        std::to_string(Kind) + " menu " +
                        std::to_string(MenuKind);
      LoopScheduler S(M, C, O);
      LoopScheduleResult R = S.schedule(L, nullptr, nullptr, &Shared);
      mixResult(Sweep, R);

      // The arena is inert: a fresh arena and no arena agree.
      ScheduleScratch Fresh;
      EXPECT_EQ(digestResult(S.schedule(L, nullptr, nullptr, &Fresh)),
                digestResult(R))
          << Tag << " (fresh scratch)";
      EXPECT_EQ(digestResult(S.schedule(L)), digestResult(R))
          << Tag << " (no scratch)";
    }
  }
  EXPECT_EQ(Sweep.digest(), PropertyGolden[Seed])
      << "seed " << Seed << ": " << hex(Sweep.digest());
}

INSTANTIATE_TEST_SUITE_P(Sweep, WarmStartPropertyTest,
                         ::testing::Range(0, 50));

/// Digest of the ED2 case per seed, over its 3 heterogeneous plans.
constexpr uint64_t ED2Golden[12] = {
    0x3791dd440df8ab06ull, 0xa95023ee992632deull, 0xbf1f8fc886fc869eull,
    0x790a8b7e717db453ull, 0x90a4abb1d511e760ull, 0x12d6f4822aef3396ull,
    0xd8bffc50943ceb1eull, 0x5e1384f672a61b0eull, 0x07306901c6db5cceull,
    0xb5f7b3ee5e2d329full, 0xb612991af07ec274ull, 0x415f4e9a5ed0732bull};

// The ED2-objective flow runs two partition attempts per IT step, with
// the energy model and scaling attached; one arena serves every run.
TEST(WarmStart, ED2ObjectiveMatchesGoldenDigests) {
  MachineDescription M = MachineDescription::paperDefault();
  ActivityCounts Ref;
  Ref.WeightedIns = 1000;
  Ref.Comms = 20;
  Ref.MemAccesses = 300;
  EnergyModel Energy(EnergyBreakdown(), Ref, 1e5, 4);
  TechnologyModel Tech = TechnologyModel::paperDefault();

  ScheduleScratch Shared;
  for (int Seed = 0; Seed < 12; ++Seed) {
    RNG Rng(static_cast<uint64_t>(Seed) * 7907 + 3);
    RandomLoopParams Params;
    Params.MinOps = 8;
    Params.MaxOps = 32;
    Params.Trip = 24;
    Loop L = makeRandomLoop(Rng, Params, "warmed2");
    FnvHasher Sweep;
    for (unsigned Kind = 1; Kind < 4; ++Kind) {
      HeteroConfig C = configFor(M, Kind);
      HeteroScaling Scaling = scalingForConfig(C, M, Tech);
      LoopScheduleOptions O;
      O.Menu = FrequencyMenu::relativeLadder(4);
      LoopScheduler S(M, C, O);
      LoopScheduleResult R = S.schedule(L, &Energy, &Scaling, &Shared);
      mixResult(Sweep, R);
      EXPECT_EQ(digestResult(S.schedule(L, &Energy, &Scaling)),
                digestResult(R))
          << "ed2 seed " << Seed << " kind " << Kind << " (no scratch)";
    }
    EXPECT_EQ(Sweep.digest(), ED2Golden[Seed])
        << "ed2 seed " << Seed << ": " << hex(Sweep.digest());
  }
}

/// Digests of the big-loop case per (size, plan kind).
constexpr uint64_t BigLoopGolden[2][2] = {
    {0xa67d14883789dc16ull, 0xdcec87c8a354ed66ull}, // 320 ops
    {0x974e00ee983f5042ull, 0xcc21de1161febf92ull}, // 512 ops
};

// Big loops take paths the random sweep above never reaches: the
// multilevel hierarchy records several coarse levels, refinement runs
// the boundary-FM pass (node counts far above MaxRefineMacros), and
// the IT sweep hits the per-level coarsening memo. Same unrolled-kernel
// fixtures and register-scaled machines as the big-loop e2e tests and
// the size-series bench.
TEST(WarmStart, BigLoopFMPathMatchesGoldenDigests) {
  const unsigned Sizes[2] = {320, 512};
  for (unsigned SizeIx = 0; SizeIx < 2; ++SizeIx) {
    unsigned Ops = Sizes[SizeIx];
    Loop L = makeUnrolledKernelLoop("warmbig", Ops);
    ASSERT_EQ(L.validate(), "");
    MachineDescription M = MachineDescription::paperDefault();
    for (auto &Cl : M.Clusters)
      Cl.Registers = bigLoopRegisters(Ops);

    // One shared arena across both plans, like a suite measurement:
    // the second plan's run sees the first plan's memos.
    ScheduleScratch Shared;
    for (unsigned Kind = 0; Kind < 2; ++Kind) {
      LoopScheduler S(M, configFor(M, Kind));
      LoopScheduleResult R = S.schedule(L, nullptr, nullptr, &Shared);
      std::string Tag =
          "ops " + std::to_string(Ops) + " kind " + std::to_string(Kind);
      ASSERT_TRUE(R.Success) << Tag << ": " << R.Failure;
      EXPECT_EQ(digestResult(R), BigLoopGolden[SizeIx][Kind])
          << Tag << ": " << hex(digestResult(R));
    }
  }
}

// failureSummary says which stage failed at which IT.
TEST(WarmStart, FailureSummaryNamesStageAndIT) {
  // A recMII=9 recurrence on a one-frequency absolute menu whose only
  // plan at the MIT has II=3 everywhere: the pinned recurrence fits no
  // cluster and the single permitted IT step fails in partitioning.
  Loop L = makeWideRecurrenceLoop("tight", 3, 1, 0, 8, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  LoopScheduleOptions O;
  O.Menu = FrequencyMenu::uniform(1, Rational(1, 3));
  O.MaxITSteps = 0;
  LoopScheduleResult R =
      LoopScheduler(M, HeteroConfig::reference(M), O).schedule(L);
  ASSERT_FALSE(R.Success) << R.Failure;
  ASSERT_FALSE(R.FailureLog.empty());
  std::string Summary = R.failureSummary();
  EXPECT_NE(Summary.find("IT+0"), std::string::npos) << Summary;
  EXPECT_NE(Summary.find(R.Failure), std::string::npos) << Summary;
}

} // namespace
