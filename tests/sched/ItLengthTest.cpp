//===- tests/sched/ItLengthTest.cpp - Integer it_length -------------------===//
//
// Schedule::itLengthNs takes one integer maximum of Slot + LatencyCycles
// per clock domain (each cluster and the bus) and one Rational multiply
// per domain. It must equal the per-node Rational maximum of readyNs it
// replaced, kept here as the reference:
//
//   - on every schedule of the synthetic SPECfp suite (the reference
//     profile and the heterogeneous and homogeneous measurement
//     configs), read out of a session's ScheduleCache;
//   - in every profile, whose reference it_length and execution time
//     (N - 1) * IT + it_length come from it;
//   - on seeded random loops under random cluster assignments and
//     random heterogeneous plans, where a bus copy is often the last
//     node to complete.
//
//===----------------------------------------------------------------------===//

#include "ir/DDG.h"
#include "partition/LoopScheduler.h"
#include "profiling/Profiler.h"
#include "runtime/Session.h"
#include "runtime/SuiteRunner.h"
#include "support/RNG.h"
#include "workloads/SpecFPSuite.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

/// The latest readyNs over the placed nodes, one Rational per node;
/// \p SkipBus leaves the bus-domain copies out.
Rational referenceItLength(const Schedule &S, const PartitionedGraph &PG,
                           bool SkipBus = false) {
  Rational End(0);
  for (unsigned N = 0; N < PG.size(); ++N) {
    const PGNode &Node = PG.node(N);
    bool Bus = Node.Domain == PG.busDomain();
    if (!S.Nodes[N].Placed || (SkipBus && Bus))
      continue;
    Rational P =
        Bus ? S.Plan.Bus.PeriodNs : S.Plan.Clusters[Node.Domain].PeriodNs;
    End = Rational::max(End, Rational(S.Nodes[N].Slot) * P +
                                 Rational(Node.LatencyCycles) * P);
  }
  return End;
}

TEST(ItLength, EverySpecFPScheduleMatchesThePerNodeReference) {
  Session S(PipelineOptions(), 1);
  SuiteResult R = SuiteRunner(S).run(buildSpecFPSuite());
  ASSERT_TRUE(R.Failures.empty());
  unsigned Checked = 0;
  S.scheduleCache().exportEntries(
      [&](uint64_t Key, const LoopScheduleResult &LR) {
        if (!LR.Success)
          return;
        EXPECT_EQ(LR.Sched.itLengthNs(LR.PG),
                  referenceItLength(LR.Sched, LR.PG))
            << "schedule " << Key;
        ++Checked;
      });
  // The profile, the heterogeneous and the homogeneous measurement of
  // 36 loops, less the schedules they share.
  EXPECT_GE(Checked, 36u);
}

TEST(ItLength, ProfilesDeriveReferenceTimesFromIt) {
  MachineDescription M = MachineDescription::paperDefault();
  const HeteroConfig Ref = HeteroConfig::reference(M);
  Profiler Prof(M);
  for (const BenchmarkProgram &Prog : buildSpecFPSuite()) {
    auto P = Prof.profileProgram(Prog.Name, Prog.Loops);
    ASSERT_TRUE(P.has_value()) << Prog.Name;
    for (size_t I = 0; I < Prog.Loops.size(); ++I) {
      const Loop &L = Prog.Loops[I];
      LoopScheduleResult LR = LoopScheduler(M, Ref).schedule(L);
      ASSERT_TRUE(LR.Success) << L.Name;
      Rational ItLength = referenceItLength(LR.Sched, LR.PG);
      const LoopProfile &LP = P->Loops[I];
      EXPECT_EQ(LP.ItLengthRefNs, ItLength) << L.Name;
      EXPECT_EQ(LP.TexecRefNs,
                Rational(static_cast<int64_t>(L.TripCount) - 1) *
                        LR.Sched.Plan.ITNs +
                    ItLength)
          << L.Name;
      EXPECT_EQ(LP.TexecRefNs, LR.Sched.execTimeNs(LR.PG, L.TripCount))
          << L.Name;
    }
  }
}

TEST(ItLength, RandomSchedulesOnHeterogeneousPlansWithBusCopies) {
  MachineDescription M = MachineDescription::paperDefault();
  const unsigned NC = M.numClusters();
  RNG Rng(0x171e9);
  RandomLoopParams Params;
  Params.MinOps = 6;
  Params.MaxOps = 40;
  unsigned WithCopies = 0, BusDecides = 0;
  for (unsigned Iter = 0; Iter < 400; ++Iter) {
    Loop L = makeRandomLoop(Rng, Params, "itlen" + std::to_string(Iter));
    DDG G = DDG::build(L);
    Partition Part;
    for (unsigned N = 0; N < L.size(); ++N)
      Part.ClusterOf.push_back(
          static_cast<unsigned>(Rng.nextInt(0, NC - 1)));
    PartitionedGraph PG =
        PartitionedGraph::build(L, G, M.Isa, Part, NC, M.BusLatency);

    // Distinct periods per domain, so each domain's own period decides
    // how late its nodes complete.
    auto period = [&] {
      return Rational(Rng.nextInt(3, 17), Rng.nextInt(2, 9));
    };
    Schedule S;
    S.Plan.Clusters.resize(NC);
    for (DomainPlan &D : S.Plan.Clusters)
      D.PeriodNs = period();
    S.Plan.Bus.PeriodNs = period();
    S.Nodes.resize(PG.size());
    for (ScheduledNode &SN : S.Nodes) {
      SN.Placed = Rng.nextInt(0, 7) != 0;
      SN.Slot = Rng.nextInt(0, 40);
    }

    Rational Want = referenceItLength(S, PG);
    EXPECT_EQ(S.itLengthNs(PG), Want) << "iteration " << Iter;
    WithCopies += PG.numCopies() > 0;
    BusDecides += referenceItLength(S, PG, /*SkipBus=*/true) != Want;
  }
  // The draw reaches the bus domain, and in some schedules the bus is
  // the domain that decides it_length.
  EXPECT_GT(WithCopies, 300u);
  EXPECT_GT(BusDecides, 40u);
}

} // namespace
