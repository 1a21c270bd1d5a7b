//===- tests/sched/TickDomainTest.cpp - Tick path == Rational path ----------===//
//
// The tick-domain scheduling fast path must be *bit-identical* to the
// retained exact-Rational reference: over random loops and several
// heterogeneous machine plans, the full Figure 5 driver run with
// UseTickGrid on and off must produce the same success state, the same
// machine plan, the same slot/unit for every node, the same register
// pressure, and the same effort counters. The tick path's result is
// also pinned to golden digests, so the sweep stays a regression test
// once the Rational path is retired. Also pins the tick ASAP fixpoint
// against the Rational one and the scheduler's graceful fallback when
// a plan has no valid grid.
//
//===----------------------------------------------------------------------===//

#include "partition/LoopScheduler.h"
#include "sched/TickGraph.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

/// Byte-wise FNV-1a, local so the goldens never move with the
/// library's own hash helpers.
struct Fnv {
  uint64_t H = 1469598103934665603ull;
  void byte(unsigned char B) {
    H ^= B;
    H *= 1099511628211ull;
  }
  void u64(uint64_t V) {
    for (unsigned B = 0; B < 8; ++B)
      byte(static_cast<unsigned char>(V >> (8 * B)));
  }
  void str(const std::string &S) {
    u64(S.size());
    for (char C : S)
      byte(static_cast<unsigned char>(C));
  }
  void vec(const std::vector<int64_t> &V) {
    u64(V.size());
    for (int64_t X : V)
      u64(static_cast<uint64_t>(X));
  }
};

/// Everything the Figure 5 sweep decided: success, failure text, IT
/// steps, scheduler effort, and for a success the IT, every node's slot
/// and unit, and per-cluster MaxLive / SumLifetimes.
uint64_t digestResult(const LoopScheduleResult &R) {
  Fnv D;
  D.u64(R.Success);
  D.str(R.Failure);
  D.u64(R.ITSteps);
  D.u64(R.Placements);
  D.u64(R.Ejections);
  D.u64(R.BudgetUsed);
  if (R.Success) {
    D.u64(static_cast<uint64_t>(R.Sched.Plan.ITNs.num()));
    D.u64(static_cast<uint64_t>(R.Sched.Plan.ITNs.den()));
    D.u64(R.Sched.Nodes.size());
    for (const ScheduledNode &N : R.Sched.Nodes) {
      D.u64(static_cast<uint64_t>(N.Slot));
      D.u64(N.Unit);
    }
    D.vec(R.Pressure.MaxLive);
    D.vec(R.Pressure.SumLifetimes);
  }
  return D.H;
}

/// digestResult of the tick path per (seed, plan kind) of the sweep
/// below, recorded before this table existed.
constexpr uint64_t GoldenDigests[50][4] = {
    {0x53a09b3917691284ull, 0x23bbdcbbeaa4985cull,
     0x6c2333373c0f73d6ull, 0xb07a1997504dfd25ull}, // seed 0
    {0x05cb6001dd7e744full, 0x2a7e51ba319f139eull,
     0xca8ffb9f128c791bull, 0xd7711492f3fc404full}, // seed 1
    {0xe2238240a3539ef9ull, 0xa99985e78d230d7bull,
     0x5f43b0aa9e44b08bull, 0x3ef96f3097dbea9full}, // seed 2
    {0x7a347cb5e01166deull, 0x711f15b1e4858b93ull,
     0xd6701f5016a7ab75ull, 0x3e81fbc1deddddfbull}, // seed 3
    {0x0616e8359db51428ull, 0x56ad7f09f36b0fa4ull,
     0xe0c02b93cb2374e3ull, 0xad36238d464a63aaull}, // seed 4
    {0xee1f33af45041278ull, 0x6be832a810b55c16ull,
     0x8d9f8e23614d230full, 0xfc77316fb90cd48eull}, // seed 5
    {0x1b5f63757cd14a3full, 0x64e8c3d061f207c3ull,
     0x112bc483764271fdull, 0xdc5300e4064278aaull}, // seed 6
    {0x5885d7299dee9d66ull, 0x030de6628d378551ull,
     0xf9307040b895795eull, 0x3da4d9864f6bb833ull}, // seed 7
    {0x4eae7e0661c93f75ull, 0x506d8634b068d9c6ull,
     0x299ecf1b5db3a408ull, 0x896f99a02c40de1cull}, // seed 8
    {0xf54c9c496a0d8827ull, 0x603894e64e758858ull,
     0x5cd315dab533a8cfull, 0xc34b3250dc22c7e9ull}, // seed 9
    {0x5ed01c9df682fde9ull, 0x9a18638669292752ull,
     0x3f3c050dbfe5287dull, 0x5930238b6a5113eaull}, // seed 10
    {0xc3c4f193fc2f7b5eull, 0x10ef0e589721628full,
     0xd3e102cc182d7907ull, 0x8dec53d282e2dd90ull}, // seed 11
    {0x202e4da2d06d3214ull, 0xce7c5894378b1292ull,
     0xc7db16700d9f65f5ull, 0xa2828da40e4a2771ull}, // seed 12
    {0x237d0dc956a4c9e8ull, 0xf7b6f03aea64dc07ull,
     0x0ad5c741c9dbb549ull, 0x44dadcdde0dfe21dull}, // seed 13
    {0x43b4e034ed392c70ull, 0xc41402c2f80b5cd6ull,
     0xb255c949dbee47baull, 0x062c7b14acdc2f88ull}, // seed 14
    {0x782a85b105c5708cull, 0x71b564db1a6d6988ull,
     0x5e16c0cc0c37aca8ull, 0x67eae525f734047eull}, // seed 15
    {0x0f35f459fe656659ull, 0x1d8996601d28946full,
     0x8fe5ce8dfd046dbaull, 0x8857a5ba294f879eull}, // seed 16
    {0x9790f34e19df1058ull, 0xc8d59c949dacf0b6ull,
     0x717657a09764a82full, 0x8c043d1f03f62a49ull}, // seed 17
    {0x27ea8fa4a91779bfull, 0x178b876ef7578f94ull,
     0x2319f854d8732f69ull, 0x02c927b0cec88268ull}, // seed 18
    {0x49bc11e3a801885cull, 0x4facc2418fd940c6ull,
     0xaca2243b92e93697ull, 0x54d48b733afe3ed6ull}, // seed 19
    {0xf1092a0428f0a8b2ull, 0x78ea0cdcb1db51e1ull,
     0x379a4d28ef4fa058ull, 0xdcbb6a83fdf15969ull}, // seed 20
    {0x17f823e6444320a9ull, 0x1728746f9df5bedeull,
     0x3bcab620b4750adcull, 0xf3a730fce4207f2cull}, // seed 21
    {0xf6eecc5b0aff8271ull, 0x555a999e4edeea0cull,
     0x508bd28c026c31a4ull, 0x8915e185efe6deadull}, // seed 22
    {0x9ed0fc08d84c447aull, 0x524bf9bbf609d33bull,
     0xedd49c0a6e184882ull, 0xc74e9c7bf66e1131ull}, // seed 23
    {0x15408a162d004cf0ull, 0x5e388d06ab057867ull,
     0xf8d680ee1355b8f0ull, 0x8c6a75e53bc9ba05ull}, // seed 24
    {0x2f11130be5202c8dull, 0x4276d2cd669c7598ull,
     0xe188b7cac783840bull, 0xbe6f52986f83beeaull}, // seed 25
    {0x95fdf4147a40209full, 0xc6cbc48aae69db02ull,
     0x4fc1dedf683b8f6eull, 0xe9128060c3d495a8ull}, // seed 26
    {0x53bf0307cdb4482aull, 0x1d273d9200305f4aull,
     0xed372f64d8012c2dull, 0x89dae481fc693441ull}, // seed 27
    {0x70907cdefb4adeadull, 0xc79420f6df6fa3c5ull,
     0xb18db9e1e8ba810aull, 0x64f26e68903e996cull}, // seed 28
    {0x538b1779a40bc914ull, 0xd35e06a281c0b7a2ull,
     0x1e1f5dbea7ceeb79ull, 0x38991c20d547a194ull}, // seed 29
    {0x19e2c75dde090554ull, 0x6e59a802f8e38a2full,
     0x194ea628346ce137ull, 0xde9e02c43ee48be2ull}, // seed 30
    {0x7af4c3d3c915054aull, 0xd1a85a76885a258aull,
     0xa42db59e5fd71f03ull, 0x3fdef97e255d0e41ull}, // seed 31
    {0x6510f8156061f5f5ull, 0x4ec471d6d5e8429dull,
     0x991aaebb9cdd8a30ull, 0xbac6b65a91873316ull}, // seed 32
    {0x8f1a80cbc7328646ull, 0x92e0f21191d2a676ull,
     0x24c5e37f7e052c08ull, 0x7eb1f700cef4521cull}, // seed 33
    {0xc386eb6c6a9a1c3bull, 0xc371949fc7fbbce6ull,
     0x13635316f30bfb00ull, 0x6752a7e6d1829701ull}, // seed 34
    {0x94e28964dd6516e2ull, 0x5307442031ec7313ull,
     0xa01778b26aa49665ull, 0x0e46238a8e577a89ull}, // seed 35
    {0xead5b90e702f71ceull, 0x8b155119f0a56851ull,
     0x99a11eccb16040beull, 0x284bef6f7c505fdcull}, // seed 36
    {0xd198bdca850d3188ull, 0x5111f31493a47ebaull,
     0x6413a4c81e84f455ull, 0x5576faf94cc2f9e9ull}, // seed 37
    {0xe47dea9050e847a1ull, 0x3c2b40f0eaed2b68ull,
     0x35c992ec62537920ull, 0x3ab5bc1570dd64daull}, // seed 38
    {0x84065606cea53cbbull, 0x2e0d7eea3b1fb644ull,
     0x6a56498dfbdc48f0ull, 0xbe3643031969c69bull}, // seed 39
    {0x9a17fd5992cecde3ull, 0xbb9573f584ac71d2ull,
     0x6586230861c47e64ull, 0xd957355977ecb895ull}, // seed 40
    {0x437e06c7271e2674ull, 0x93eb77a52608f2aeull,
     0x3dd77089ec81efdcull, 0xb3f42f5b53c2361dull}, // seed 41
    {0x40e717324ecef667ull, 0x5f691c834ea8c759ull,
     0xba548afd621b385cull, 0x2692c8811ac71aa0ull}, // seed 42
    {0x216507b2218fa23eull, 0x506f3a209194b028ull,
     0xd0c73201643cffbcull, 0x035d64b617e28c93ull}, // seed 43
    {0x867ee8c9c4dc11fdull, 0x270a6adb0acd7288ull,
     0x79828505e77681eeull, 0xabbc0be6fc9b6bb9ull}, // seed 44
    {0x1bfacb21fdaa8209ull, 0x67ad24eb8c4182a0ull,
     0xd2e744e12bb14024ull, 0x8e077023ddbbc9b5ull}, // seed 45
    {0xe06adfe2c5fbd795ull, 0x61db199700c0c4d5ull,
     0xab5aa0b5807c19b6ull, 0x036f49b9d1d67e4full}, // seed 46
    {0x8db392318b1ca0a4ull, 0x727cf5254748ae55ull,
     0x0e89b155f2946947ull, 0x6241882198256446ull}, // seed 47
    {0x7914e48f1efceca1ull, 0xaafd366593fdbbbaull,
     0x344b9708d68c51e8ull, 0x0322407a28b1c1f0ull}, // seed 48
    {0x4a8f3ae92d4e3be0ull, 0xd77d1179819b31d1ull,
     0x090098824dd4f2ebull, 0x36b3053fdbf84db0ull}, // seed 49
};

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

class TickDomainPropertyTest : public ::testing::TestWithParam<int> {};

// ~50 random loops x 4 plans, scheduled through the whole Figure 5
// driver on both arithmetic paths: slot/unit-identical output.
TEST_P(TickDomainPropertyTest, FullDriverBitIdentical) {
  int Seed = GetParam();
  RNG Rng(static_cast<uint64_t>(Seed) * 104729 + 7);
  RandomLoopParams Params;
  Params.MinOps = 6;
  Params.MaxOps = 40;
  Params.Trip = 24;
  Loop L = makeRandomLoop(Rng, Params, "tickprop");
  ASSERT_EQ(L.validate(), "");

  MachineDescription M = MachineDescription::paperDefault();
  for (unsigned Kind = 0; Kind < 4; ++Kind) {
    HeteroConfig C = configFor(M, Kind);

    LoopScheduleOptions TickOpts;
    TickOpts.Sched.UseTickGrid = true;
    LoopScheduleOptions RatOpts;
    RatOpts.Sched.UseTickGrid = false;

    LoopScheduleResult TR = LoopScheduler(M, C, TickOpts).schedule(L);
    LoopScheduleResult RR = LoopScheduler(M, C, RatOpts).schedule(L);

    ASSERT_EQ(TR.Success, RR.Success)
        << "seed " << Seed << " kind " << Kind << ": " << TR.Failure
        << " vs " << RR.Failure;
    uint64_t Digest = digestResult(TR);
    EXPECT_EQ(Digest, GoldenDigests[Seed][Kind])
        << "seed " << Seed << " kind " << Kind << ": 0x" << std::hex
        << Digest;
    EXPECT_EQ(TR.Failure, RR.Failure);
    EXPECT_EQ(TR.ITSteps, RR.ITSteps) << "seed " << Seed << " kind " << Kind;
    EXPECT_EQ(TR.Placements, RR.Placements);
    EXPECT_EQ(TR.Ejections, RR.Ejections);
    EXPECT_EQ(TR.BudgetUsed, RR.BudgetUsed);
    if (!TR.Success)
      continue;

    EXPECT_EQ(TR.Sched.Plan.ITNs, RR.Sched.Plan.ITNs);
    ASSERT_EQ(TR.Sched.Nodes.size(), RR.Sched.Nodes.size());
    for (unsigned N = 0; N < TR.Sched.Nodes.size(); ++N) {
      EXPECT_EQ(TR.Sched.Nodes[N].Slot, RR.Sched.Nodes[N].Slot)
          << "seed " << Seed << " kind " << Kind << " node " << N;
      EXPECT_EQ(TR.Sched.Nodes[N].Unit, RR.Sched.Nodes[N].Unit)
          << "seed " << Seed << " kind " << Kind << " node " << N;
    }
    EXPECT_EQ(TR.Pressure.MaxLive, RR.Pressure.MaxLive);
    EXPECT_EQ(TR.Pressure.SumLifetimes, RR.Pressure.SumLifetimes);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TickDomainPropertyTest,
                         ::testing::Range(0, 50));

// The tick ASAP fixpoint is the Rational one scaled by ticksPerNs.
TEST(TickDomain, AsapMatchesRationalScaled) {
  RNG Rng(0xa5a5);
  RandomLoopParams Params;
  Params.MinOps = 12;
  Params.MaxOps = 24;
  Loop L = makeRandomLoop(Rng, Params, "asap");
  MachineDescription M = MachineDescription::paperDefault();
  DDG G = DDG::build(L);
  Partition P = Partition::allInCluster(G.size(), 0);
  PartitionedGraph PG = PartitionedGraph::build(L, G, M.Isa, P, 4, 1);

  HeteroConfig C = configFor(M, 1);
  DomainPlanner Planner(M, C, FrequencyMenu::continuous());
  auto Plan = Planner.planForIT(Rational(27, 2));
  ASSERT_TRUE(Plan.has_value());

  auto T = TickGraph::build(PG, *Plan);
  ASSERT_TRUE(T.has_value());
  auto TickAsap = T->computeAsapTicks();
  auto RatAsap = computeAsapTimes(PG, *Plan);
  ASSERT_EQ(TickAsap.has_value(), RatAsap.has_value());
  ASSERT_TRUE(TickAsap.has_value());
  for (unsigned N = 0; N < PG.size(); ++N)
    EXPECT_EQ(T->grid().toNs((*TickAsap)[N]), (*RatAsap)[N]) << "node " << N;
}

// Infeasible recurrences are detected identically on both paths.
TEST(TickDomain, AsapInfeasibilityAgrees) {
  Loop L = makeWideRecurrenceLoop("tight", 1, 1, 0, 8, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  DDG G = DDG::build(L);
  Partition P = Partition::allInCluster(G.size(), 0);
  PartitionedGraph PG = PartitionedGraph::build(L, G, M.Isa, P, 4, 1);
  HeteroConfig C = HeteroConfig::reference(M);
  DomainPlanner Planner(M, C, FrequencyMenu::continuous());
  for (int64_t IT = 2; IT <= 4; ++IT) {
    auto Plan = Planner.planForIT(Rational(IT));
    ASSERT_TRUE(Plan.has_value());
    auto T = TickGraph::build(PG, *Plan);
    ASSERT_TRUE(T.has_value());
    EXPECT_EQ(T->computeAsapTicks().has_value(),
              computeAsapTimes(PG, *Plan).has_value())
        << "IT " << IT;
  }
}

// A plan whose denominator LCM overflows has no grid; the scheduler
// must fall back to the Rational path and still schedule.
TEST(TickDomain, OverflowPlanFallsBackGracefully) {
  RNG Rng(0x77);
  RandomLoopParams Params;
  Params.MinOps = 8;
  Params.MaxOps = 12;
  Loop L = makeRandomLoop(Rng, Params, "fallback");
  MachineDescription M = MachineDescription::paperDefault();
  DDG G = DDG::build(L);
  Partition P = Partition::allInCluster(G.size(), 0);
  PartitionedGraph PG = PartitionedGraph::build(L, G, M.Isa, P, 4, 1);

  HeteroConfig C = HeteroConfig::reference(M);
  DomainPlanner Planner(M, C, FrequencyMenu::continuous());
  auto Plan = Planner.planForIT(Rational(8));
  ASSERT_TRUE(Plan.has_value());
  // Perturb two cluster periods onto coprime ~4e9 denominators: their
  // LCM alone exceeds int64. (The plan is no longer II*period == IT
  // consistent, which the placement loop itself never checks -- only
  // grid validity and path equivalence matter here.)
  Plan->Clusters[1].PeriodNs = Rational(4000000009LL, 4000000007LL);
  Plan->Clusters[2].PeriodNs = Rational(4000000007LL, 4000000009LL);
  ASSERT_FALSE(TickGraph::build(PG, *Plan).has_value());

  SchedulerOptions TickOn;
  SchedulerOptions TickOff;
  TickOff.UseTickGrid = false;
  SchedulerResult A = HeteroModuloScheduler(M, PG, *Plan, TickOn).run();
  SchedulerResult B = HeteroModuloScheduler(M, PG, *Plan, TickOff).run();
  EXPECT_EQ(A.Success, B.Success);
  ASSERT_EQ(A.Sched.Nodes.size(), B.Sched.Nodes.size());
  for (unsigned N = 0; N < A.Sched.Nodes.size(); ++N) {
    EXPECT_EQ(A.Sched.Nodes[N].Slot, B.Sched.Nodes[N].Slot);
    EXPECT_EQ(A.Sched.Nodes[N].Unit, B.Sched.Nodes[N].Unit);
  }
}

} // namespace
