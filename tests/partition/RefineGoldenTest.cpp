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

/// Folds every (plan, objective, IT) partition of \p L on \p M into
/// one digest. \p Fault, when armed, can force the flat rung.
uint64_t digestLoop(const Loop &L, const MachineDescription &M,
                    fault::FaultInjector *Fault = nullptr) {
  DDG G = DDG::build(L);
  RecurrenceInfo Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
  ActivityCounts Ref;
  Ref.WeightedIns = 1000;
  Ref.Comms = 20;
  Ref.MemAccesses = 300;
  EnergyModel Energy(EnergyBreakdown(), Ref, 1e5, M.numClusters());
  TechnologyModel Tech = TechnologyModel::paperDefault();

  Fnv D;
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
      }
    }
  }
  return D.H;
}

MachineDescription bigLoopMachine(unsigned Ops) {
  MachineDescription M = MachineDescription::paperDefault();
  for (auto &Cl : M.Clusters)
    Cl.Registers = bigLoopRegisters(Ops);
  return M;
}

TEST(RefineGolden, SpecFPLoopsPartitionUnchanged) {
  // Per program: the digests of its loops, folded in loop order.
  const std::map<std::string, uint64_t> Expected = {
      {"168.wupwise", 0x30a9fe43c6e4b619ull},
      {"171.swim", 0x4872bbc510bdd588ull},
      {"172.mgrid", 0x6cd310690562819dull},
      {"173.applu", 0x194784a7a76276cfull},
      {"178.galgel", 0x92b8db648f23f454ull},
      {"187.facerec", 0xb05fe4bd8811c33cull},
      {"189.lucas", 0x2511e7880236169cull},
      {"191.fma3d", 0x5517ab9964a1fbb7ull},
      {"200.sixtrack", 0x683a71eef92b3c50ull},
      {"301.apsi", 0xaefb28bd82d14b0aull},
  };
  MachineDescription M = MachineDescription::paperDefault();
  ASSERT_EQ(specFPProgramNames().size(), Expected.size());
  for (const BenchmarkProgram &Prog : buildSpecFPSuite()) {
    Fnv D;
    for (const Loop &L : Prog.Loops)
      D.u64(digestLoop(L, M));
    auto It = Expected.find(Prog.Name);
    ASSERT_NE(It, Expected.end()) << Prog.Name;
    EXPECT_EQ(D.H, It->second) << Prog.Name << ": 0x" << std::hex << D.H;
  }
}

TEST(RefineGolden, UnrolledBodiesPartitionUnchanged) {
  const std::map<unsigned, uint64_t> Expected = {
      {256, 0xbbde8eb8d9a636f9ull}, {512, 0xbe3066a73ca1a17aull}};
  for (const auto &[Ops, Want] : Expected) {
    uint64_t Got = digestLoop(
        makeUnrolledKernelLoop("golden" + std::to_string(Ops), Ops),
        bigLoopMachine(Ops));
    EXPECT_EQ(Got, Want) << Ops << " ops: 0x" << std::hex << Got;
  }
}

#ifndef HCVLIW_NO_FAULT
TEST(RefineGolden, FlatRungPartitionUnchanged) {
  auto Plan = fault::FaultPlan::parse("on part.coarsen every 1 degrade\n");
  ASSERT_TRUE(Plan.has_value());
  fault::FaultInjector Inj;
  Inj.arm(*Plan);
  MachineDescription M = MachineDescription::paperDefault();
  Fnv D;
  for (const BenchmarkProgram &Prog : buildSpecFPSuite())
    for (const Loop &L : Prog.Loops)
      D.u64(digestLoop(L, M, &Inj));
  EXPECT_GT(Inj.injectedDegrades(), 0u);
  EXPECT_EQ(D.H, 0xdc0a6ca56112a175ull) << "0x" << std::hex << D.H;
}
#endif // HCVLIW_NO_FAULT

} // namespace
