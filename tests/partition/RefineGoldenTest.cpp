//===- tests/partition/RefineGoldenTest.cpp - Refinement golden digests -----===//
//
// Golden partition digests. Every case runs partitionLoop on one loop,
// one plan, one objective and the MIT plus the next few ITs of that
// plan, and folds what the partitioner decided into an FNV digest: the
// node-level assignment (or "no partition"), the exact bits of
// InitialScore and FinalScore, and the accepted greedy and FM move
// counts. The expected values were recorded before the greedy
// refinement learned to reject candidates by a lower bound; that
// optimisation must leave every accept/reject decision, and therefore
// every digest, unchanged.
//
// A second digest folds the effort of the same runs: FM passes,
// pseudo-schedules scored and bound rejections. It was recorded before
// FM kept its cut mass incrementally and before later FM passes started
// from the previous pass's moves only; those must leave the pass
// structure, and therefore this digest, unchanged too.
//
// Fixtures: every SPECfp loop on the paper machine, and the 256- and
// 512-op unrolled bodies on a machine with bigLoopRegisters register
// files; each on the reference plan and on a one-fast/three-slow plan,
// under the ED2 and the homogeneous objective. The flat rung, which
// shares the initial best-fit assignment with the multilevel path, is
// pinned the same way on the SPECfp loops.
//
//===----------------------------------------------------------------------===//

#include "configsel/Scaling.h"
#include "fault/Fault.h"
#include "mcd/DomainPlanner.h"
#include "partition/Partitioner.h"
#include "workloads/SpecFPSuite.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

using namespace hcvliw;

namespace {

/// IT steps past the MIT each case partitions at.
constexpr unsigned ExtraITs = 3;

struct Fnv {
  uint64_t H = 1469598103934665603ull;
  void u64(uint64_t V) {
    for (unsigned B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  void f64(double D) {
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof Bits);
    u64(Bits);
  }
};

HeteroConfig oneFastThreeSlow(const MachineDescription &M) {
  HeteroConfig C = HeteroConfig::reference(M);
  C.Clusters[0].PeriodNs = Rational(9, 10);
  for (unsigned I = 1; I < C.numClusters(); ++I)
    C.Clusters[I].PeriodNs = Rational(27, 20);
  C.Icn.PeriodNs = Rational(9, 10);
  C.Cache.PeriodNs = Rational(9, 10);
  return C;
}

/// What the partitioner decided, and the work it took to decide it.
struct Digests {
  uint64_t Result, Effort;
};

/// Folds every (plan, objective, IT) partition of \p L on \p M into
/// one digest of the results and one of the effort counters. \p Fault,
/// when armed, can force the flat rung.
Digests digestLoop(const Loop &L, const MachineDescription &M,
                   fault::FaultInjector *Fault = nullptr) {
  DDG G = DDG::build(L);
  RecurrenceInfo Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
  ActivityCounts Ref;
  Ref.WeightedIns = 1000;
  Ref.Comms = 20;
  Ref.MemAccesses = 300;
  EnergyModel Energy(EnergyBreakdown(), Ref, 1e5, M.numClusters());
  TechnologyModel Tech = TechnologyModel::paperDefault();

  Fnv D, Work;
  for (bool Het : {false, true}) {
    HeteroConfig C = Het ? oneFastThreeSlow(M) : HeteroConfig::reference(M);
    DomainPlanner Planner(M, C,
                          Het ? FrequencyMenu::relativeLadder(4)
                              : FrequencyMenu::continuous());
    HeteroScaling Scaling = scalingForConfig(C, M, Tech);
    for (bool ED2 : {true, false}) {
      // One scratch per (plan, objective), carried across the IT steps
      // with its coarsening memo, as the Figure 5 driver runs it.
      PartitionScratch Scratch;
      PartitionerOptions O;
      O.ED2Objective = ED2;
      Rational IT = Planner.computeMIT(Recs.RecMII, L.opCountsByFU());
      for (unsigned Step = 0; Step <= ExtraITs;
           ++Step, IT = Planner.nextIT(IT)) {
        auto Plan = Planner.planForIT(IT);
        D.u64(Plan.has_value());
        if (!Plan)
          continue;
        PartitionStats Stats;
        PartitionContext Ctx;
        Ctx.L = &L;
        Ctx.G = &G;
        Ctx.M = &M;
        Ctx.Plan = &*Plan;
        Ctx.Recs = &Recs;
        Ctx.Energy = &Energy;
        Ctx.Scaling = &Scaling;
        Ctx.TripCount = L.TripCount;
        Ctx.Scratch = &Scratch;
        Ctx.Stats = &Stats;
        Ctx.Fault = Fault;
        Ctx.FaultCtx = L.Name;
        std::optional<Partition> P = partitionLoop(Ctx, O);
        D.u64(P.has_value());
        if (P)
          for (unsigned Cl : P->ClusterOf)
            D.u64(Cl);
        D.f64(Stats.InitialScore);
        D.f64(Stats.FinalScore);
        D.u64(Stats.RefineMoves);
        D.u64(Stats.FMMoves);
        Work.u64(Stats.FMPasses);
        Work.u64(Stats.ScoreEvals);
        Work.u64(Stats.BoundRejects);
      }
    }
  }
  return {D.H, Work.H};
}

MachineDescription bigLoopMachine(unsigned Ops) {
  MachineDescription M = MachineDescription::paperDefault();
  for (auto &Cl : M.Clusters)
    Cl.Registers = bigLoopRegisters(Ops);
  return M;
}

TEST(RefineGolden, SpecFPLoopsPartitionUnchanged) {
  // Per program: the digests of its loops, folded in loop order.
  const std::map<std::string, Digests> Expected = {
      {"168.wupwise", {0x30a9fe43c6e4b619ull, 0xbef1606f8996b51eull}},
      {"171.swim", {0x4872bbc510bdd588ull, 0x5335550cc061ab76ull}},
      {"172.mgrid", {0x6cd310690562819dull, 0x62bd7e89a1b481d2ull}},
      {"173.applu", {0x194784a7a76276cfull, 0x3b63dd14c7a0ce83ull}},
      {"178.galgel", {0x92b8db648f23f454ull, 0x4c67f82b971d777eull}},
      {"187.facerec", {0xb05fe4bd8811c33cull, 0x372d64d99f5f7f96ull}},
      {"189.lucas", {0x2511e7880236169cull, 0x35eebfca67c4e5eaull}},
      {"191.fma3d", {0x5517ab9964a1fbb7ull, 0x79566ea05f388380ull}},
      {"200.sixtrack", {0x683a71eef92b3c50ull, 0x9ebc77b4dfa27ad8ull}},
      {"301.apsi", {0xaefb28bd82d14b0aull, 0xa8b0b2783efb04d9ull}},
  };
  MachineDescription M = MachineDescription::paperDefault();
  ASSERT_EQ(specFPProgramNames().size(), Expected.size());
  for (const BenchmarkProgram &Prog : buildSpecFPSuite()) {
    Fnv D, Work;
    for (const Loop &L : Prog.Loops) {
      Digests Got = digestLoop(L, M);
      D.u64(Got.Result);
      Work.u64(Got.Effort);
    }
    auto It = Expected.find(Prog.Name);
    ASSERT_NE(It, Expected.end()) << Prog.Name;
    EXPECT_EQ(D.H, It->second.Result) << Prog.Name << ": 0x" << std::hex
                                      << D.H;
    EXPECT_EQ(Work.H, It->second.Effort)
        << Prog.Name << " effort: 0x" << std::hex << Work.H;
  }
}

TEST(RefineGolden, UnrolledBodiesPartitionUnchanged) {
  const std::map<unsigned, Digests> Expected = {
      {256, {0xbbde8eb8d9a636f9ull, 0x1c14161126361729ull}},
      {512, {0xbe3066a73ca1a17aull, 0x7af611f100a49387ull}}};
  for (const auto &[Ops, Want] : Expected) {
    Digests Got = digestLoop(
        makeUnrolledKernelLoop("golden" + std::to_string(Ops), Ops),
        bigLoopMachine(Ops));
    EXPECT_EQ(Got.Result, Want.Result)
        << Ops << " ops: 0x" << std::hex << Got.Result;
    EXPECT_EQ(Got.Effort, Want.Effort)
        << Ops << " ops effort: 0x" << std::hex << Got.Effort;
  }
}

TEST(RefineGolden, FlatRungPartitionUnchanged) {
  auto Plan = fault::FaultPlan::parse("on part.coarsen every 1 degrade\n");
  ASSERT_TRUE(Plan.has_value());
  fault::FaultInjector Inj;
  Inj.arm(*Plan);
  MachineDescription M = MachineDescription::paperDefault();
  Fnv D, Work;
  for (const BenchmarkProgram &Prog : buildSpecFPSuite())
    for (const Loop &L : Prog.Loops) {
      Digests Got = digestLoop(L, M, &Inj);
      D.u64(Got.Result);
      Work.u64(Got.Effort);
    }
  EXPECT_GT(Inj.injectedDegrades(), 0u);
  EXPECT_EQ(D.H, 0xdc0a6ca56112a175ull) << "0x" << std::hex << D.H;
  EXPECT_EQ(Work.H, 0xcbbc520d82a2e445ull)
      << "effort: 0x" << std::hex << Work.H;
}

} // namespace
