//===- tests/partition/CoarsenReuseTest.cpp - Cross-run coarsening reuse ----===//
//
// A ScheduleScratch keeps one coarsening level stack across whole
// schedule() runs, reused whenever its CoarsenMemoKey (every
// MultilevelGraph::build input) matches. This pins that the reuse is
// invisible: a sequence of runs on one scratch — a loop on two plans,
// another loop, the first loop again — gives every LoopScheduleResult,
// PartStats included, that the same runs give on fresh scratches; a
// machine whose ISA energies differ rebuilds the stack; and neither an
// injected part.coarsen degrade nor an allocation failure anywhere in
// a run leaves a stack that a later run could wrongly reuse.
//
// The binary replaces the global operator new so the allocation test
// can fail the N-th allocation of a run.
//
//===----------------------------------------------------------------------===//

#include "configsel/Scaling.h"
#include "fault/Fault.h"
#include "partition/LoopScheduler.h"
#include "partition/ScheduleScratch.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

namespace {
/// Allocations since start, and the countdown to the one that fails
/// (negative: none fails).
std::atomic<long> AllocCount{0};
std::atomic<long> FailCountdown{-1};
} // namespace

void *operator new(std::size_t Sz) {
  AllocCount.fetch_add(1, std::memory_order_relaxed);
  if (FailCountdown.load(std::memory_order_relaxed) >= 0 &&
      FailCountdown.fetch_sub(1, std::memory_order_relaxed) == 0)
    throw std::bad_alloc();
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz) { return ::operator new(Sz); }
// The replacements allocate with malloc, so free() is the matching
// deallocator.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
#pragma GCC diagnostic pop

using namespace hcvliw;

namespace {

constexpr unsigned XOps = 160, YOps = 96;

MachineDescription machine() {
  MachineDescription M = MachineDescription::paperDefault();
  for (auto &Cl : M.Clusters)
    Cl.Registers = bigLoopRegisters(XOps);
  return M;
}

/// The two plans of the bigloop benchmark: the reference homogeneous
/// machine on the continuous menu, and one 0.9 ns cluster (with the ICN
/// and cache) beside three 1.35 ns ones on a 4-step ladder.
struct PlanSpec {
  bool Het;
};
constexpr PlanSpec PlanA{false}, PlanB{true};

HeteroConfig configFor(const MachineDescription &M, PlanSpec P) {
  HeteroConfig C = HeteroConfig::reference(M);
  if (P.Het) {
    C.Clusters[0].PeriodNs = Rational(9, 10);
    for (unsigned I = 1; I < C.numClusters(); ++I)
      C.Clusters[I].PeriodNs = Rational(27, 20);
    C.Icn.PeriodNs = Rational(9, 10);
    C.Cache.PeriodNs = Rational(9, 10);
  }
  return C;
}

/// Runs \p L on plan \p P; with \p ED2 the energy objective and its
/// balance-first retry (two partition attempts per IT step).
LoopScheduleResult run(const MachineDescription &M, const Loop &L, PlanSpec P,
                       bool ED2, ScheduleScratch *S,
                       fault::FaultInjector *Fault = nullptr) {
  LoopScheduleOptions O;
  O.Menu = P.Het ? FrequencyMenu::relativeLadder(4)
                 : FrequencyMenu::continuous();
  O.Fault = Fault;
  O.FaultContext = "reuse";
  HeteroConfig C = configFor(M, P);
  LoopScheduler Sched(M, C, O);
  if (!ED2)
    return Sched.schedule(L, nullptr, nullptr, S);
  ActivityCounts Ref;
  Ref.WeightedIns = 1000;
  Ref.Comms = 20;
  Ref.MemAccesses = 300;
  EnergyModel Energy(EnergyBreakdown(), Ref, 1e5, M.numClusters());
  HeteroScaling Scaling =
      scalingForConfig(C, M, TechnologyModel::paperDefault());
  return Sched.schedule(L, &Energy, &Scaling, S);
}

void expectSameStats(const PartitionStats &A, const PartitionStats &B) {
  EXPECT_EQ(A.Runs, B.Runs);
  EXPECT_EQ(A.CoarsenBuilds, B.CoarsenBuilds);
  EXPECT_EQ(A.CoarsenMemoHits, B.CoarsenMemoHits);
  EXPECT_EQ(A.Levels, B.Levels);
  EXPECT_EQ(A.MatchedPairs, B.MatchedPairs);
  EXPECT_EQ(A.RefinePasses, B.RefinePasses);
  EXPECT_EQ(A.RefineMoves, B.RefineMoves);
  EXPECT_EQ(A.FMPasses, B.FMPasses);
  EXPECT_EQ(A.FMMoves, B.FMMoves);
  EXPECT_EQ(A.ScoreEvals, B.ScoreEvals);
  EXPECT_EQ(A.BoundRejects, B.BoundRejects);
  EXPECT_EQ(A.CapacityRejects, B.CapacityRejects);
  EXPECT_EQ(A.FlatFallbacks, B.FlatFallbacks);
  EXPECT_EQ(A.InitialScore, B.InitialScore); // exact doubles
  EXPECT_EQ(A.FinalScore, B.FinalScore);
}

/// Every field of two results, the effort counters included.
void expectSameResult(const LoopScheduleResult &A, const LoopScheduleResult &B,
                      const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(A.Success, B.Success);
  EXPECT_EQ(A.Failure, B.Failure);
  EXPECT_EQ(A.MITNs, B.MITNs);
  EXPECT_EQ(A.ITSteps, B.ITSteps);
  EXPECT_EQ(A.Placements, B.Placements);
  EXPECT_EQ(A.Ejections, B.Ejections);
  EXPECT_EQ(A.BudgetUsed, B.BudgetUsed);
  EXPECT_EQ(A.FallbackRational, B.FallbackRational);
  EXPECT_EQ(A.RecMII, B.RecMII);
  EXPECT_EQ(A.ResMII, B.ResMII);
  ASSERT_EQ(A.FailureLog.size(), B.FailureLog.size());
  for (size_t I = 0; I < A.FailureLog.size(); ++I) {
    EXPECT_EQ(A.FailureLog[I].Step, B.FailureLog[I].Step);
    EXPECT_EQ(A.FailureLog[I].ITNs, B.FailureLog[I].ITNs);
    EXPECT_EQ(A.FailureLog[I].Reason, B.FailureLog[I].Reason);
    EXPECT_EQ(A.FailureLog[I].Count, B.FailureLog[I].Count);
  }
  ASSERT_EQ(A.Components.size(), B.Components.size());
  for (size_t I = 0; I < A.Components.size(); ++I) {
    EXPECT_EQ(A.Components[I].FUCounts, B.Components[I].FUCounts);
    EXPECT_EQ(A.Components[I].RecMII, B.Components[I].RecMII);
  }
  expectSameStats(A.PartStats, B.PartStats);
  EXPECT_EQ(A.Assignment.ClusterOf, B.Assignment.ClusterOf);
  EXPECT_EQ(A.PG.size(), B.PG.size());
  EXPECT_EQ(A.Sched.Plan.ITNs, B.Sched.Plan.ITNs);
  ASSERT_EQ(A.Sched.Nodes.size(), B.Sched.Nodes.size());
  for (size_t I = 0; I < A.Sched.Nodes.size(); ++I) {
    EXPECT_EQ(A.Sched.Nodes[I].Placed, B.Sched.Nodes[I].Placed);
    EXPECT_EQ(A.Sched.Nodes[I].Slot, B.Sched.Nodes[I].Slot);
    EXPECT_EQ(A.Sched.Nodes[I].Unit, B.Sched.Nodes[I].Unit);
  }
  EXPECT_EQ(A.Pressure.MaxLive, B.Pressure.MaxLive);
  EXPECT_EQ(A.Pressure.SumLifetimes, B.Pressure.SumLifetimes);
}

/// Stacks reused on \p S by one run, beyond the run's own memo hits
/// (which reuse the stack of the run's previous attempt): the reuse of
/// a stack an earlier run left behind.
template <typename Fn> uint64_t crossRunReuses(ScheduleScratch &S, Fn Run) {
  uint64_t Before = S.Part.CoarsenReuses;
  LoopScheduleResult R = Run();
  return S.Part.CoarsenReuses - Before - R.PartStats.CoarsenMemoHits;
}

TEST(CoarsenReuse, SharedScratchRunsEqualFreshScratches) {
  MachineDescription M = machine();
  Loop X = makeUnrolledKernelLoop("x", XOps, 0);
  Loop Y = makeUnrolledKernelLoop("y", YOps, 1);
  struct Step {
    const Loop *L;
    PlanSpec P;
    const char *What;
  };
  const Step Seq[] = {{&X, PlanA, "X on A"},
                      {&X, PlanB, "X on B"},
                      {&Y, PlanA, "Y on A"},
                      {&X, PlanA, "X on A again"}};
  for (bool ED2 : {false, true}) {
    ScheduleScratch Shared;
    uint64_t RunHits = 0;
    for (const Step &St : Seq) {
      LoopScheduleResult R = run(M, *St.L, St.P, ED2, &Shared);
      ScheduleScratch Fresh;
      expectSameResult(R, run(M, *St.L, St.P, ED2, &Fresh),
                       std::string(St.What) + (ED2 ? " (ED2)" : ""));
      RunHits += R.PartStats.CoarsenMemoHits;
    }
    // The sequence really reused stacks across runs (X on B reuses the
    // stack of X on A, whose pre-placement groups are the same).
    EXPECT_GT(Shared.Part.CoarsenReuses, RunHits) << ED2;
  }
}

TEST(CoarsenReuse, DifferentIsaEnergiesRebuildTheStack) {
  MachineDescription M = machine();
  MachineDescription Hot = M;
  // FP arithmetic keeps its Table 1 latency but costs more: the DDG,
  // latencies and slack are unchanged, the coarsening weights are not.
  Hot.Isa.set(OpCategory::Arith, /*IsFloat=*/true, {3, 1.25});
  ASSERT_EQ(Hot.Isa.latency(Opcode::FAdd), M.Isa.latency(Opcode::FAdd));
  ASSERT_NE(Hot.Isa.energy(Opcode::FAdd), M.Isa.energy(Opcode::FAdd));
  Loop X = makeUnrolledKernelLoop("x", XOps, 0);

  ScheduleScratch S;
  run(M, X, PlanA, false, &S);
  // Same machine again: the stack is reused.
  EXPECT_GT(crossRunReuses(S, [&] { return run(M, X, PlanA, false, &S); }),
            0u);
  // Other energies: rebuilt, and the result is the fresh one.
  LoopScheduleResult R;
  EXPECT_EQ(crossRunReuses(S,
                           [&] {
                             R = run(Hot, X, PlanA, false, &S);
                             return R;
                           }),
            0u);
  ScheduleScratch Fresh;
  expectSameResult(R, run(Hot, X, PlanA, false, &Fresh), "hot ISA");
}

TEST(CoarsenReuse, DegradedRunsLeaveNoStaleStack) {
  MachineDescription M = machine();
  Loop X = makeUnrolledKernelLoop("x", XOps, 0);
  Loop Y = makeUnrolledKernelLoop("y", YOps, 1);
  // Every coarsening degraded, then only the second partition attempt
  // of the run (the balance-first retry of the ED2 flow).
  for (const char *Rule : {"on part.coarsen every 1 degrade\n",
                           "on part.coarsen occurrence 2 degrade\n"}) {
    auto Plan = fault::FaultPlan::parse(Rule);
    ASSERT_TRUE(Plan.has_value());
    ScheduleScratch Shared;
    run(M, X, PlanA, true, &Shared);
    fault::FaultInjector SharedInj, FreshInj;
    SharedInj.arm(*Plan);
    FreshInj.arm(*Plan);
    ScheduleScratch Fresh;
    LoopScheduleResult R = run(M, X, PlanB, true, &Shared, &SharedInj);
    EXPECT_GT(R.PartStats.FlatFallbacks, 0u) << Rule;
    expectSameResult(R, run(M, X, PlanB, true, &Fresh, &FreshInj),
                     std::string("degraded X on B: ") + Rule);
    for (PlanSpec P : {PlanB, PlanA}) {
      ScheduleScratch Clean;
      expectSameResult(run(M, X, P, true, &Shared),
                       run(M, X, P, true, &Clean),
                       std::string("X after the degraded run: ") + Rule);
    }
    ScheduleScratch Clean;
    expectSameResult(run(M, Y, PlanA, true, &Shared),
                     run(M, Y, PlanA, true, &Clean),
                     std::string("Y after the degraded run: ") + Rule);
  }
}

TEST(CoarsenReuse, AllocationFailureLeavesNoStaleStack) {
  MachineDescription M = machine();
  Loop X = makeUnrolledKernelLoop("x", XOps, 0);
  Loop Y = makeUnrolledKernelLoop("y", YOps, 1);
  LoopScheduleResult RefB, RefA;
  {
    ScheduleScratch Fresh;
    RefB = run(M, X, PlanB, true, &Fresh);
  }
  {
    ScheduleScratch Fresh;
    RefA = run(M, X, PlanA, true, &Fresh);
  }

  // A scratch that holds Y's stack, and X's loop analyses when
  // \p SeenX (else the failing run computes them too). The failure
  // points below stride across the allocations of one run on it.
  auto Warm = [&](bool SeenX) {
    auto S = std::make_unique<ScheduleScratch>();
    if (SeenX)
      run(M, X, PlanA, true, S.get());
    run(M, Y, PlanA, true, S.get());
    return S;
  };
  long Allocs = 0;
  for (bool SeenX : {false, true}) {
    auto S = Warm(SeenX);
    long Before = AllocCount.load();
    run(M, X, PlanB, true, S.get());
    Allocs = std::max(Allocs, AllocCount.load() - Before);
  }
  ASSERT_GT(Allocs, 0);
  const long Stride = std::max(1L, Allocs / 80);

  unsigned Failed = 0, Caught = 0;
  for (long K = 0; K < Allocs; K += Stride) {
    auto S = Warm(K / Stride % 2 == 1);
    LoopScheduleResult Hurt;
    FailCountdown.store(K);
    try {
      Hurt = run(M, X, PlanB, true, S.get());
    } catch (const std::bad_alloc &) {
      ++Failed; // escaped the run: the partitioner did not catch it
    }
    bool Fired = FailCountdown.load() < 0;
    FailCountdown.store(-1);
    if (Fired && Hurt.PartStats.FlatFallbacks > 0)
      ++Caught; // the partitioner caught it and took the flat rung
    // Whatever the failure hit, the scratch gives fresh results after.
    expectSameResult(run(M, X, PlanB, true, S.get()), RefB,
                     "X on B after a failed allocation " + std::to_string(K));
    expectSameResult(run(M, X, PlanA, true, S.get()), RefA,
                     "X on A after a failed allocation " + std::to_string(K));
  }
  // Both paths were exercised: failures that escaped the run and
  // failures inside coarsening or refinement.
  EXPECT_GT(Failed, 0u);
  EXPECT_GT(Caught, 0u);
}

} // namespace
