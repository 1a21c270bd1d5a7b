//===- tests/runtime/WorkerPoolTest.cpp - Worker-pool substrate -------------===//
//
// The pool's determinism contract under contention: every slot runs
// exactly once, slot-indexed writes reproduce the serial result for
// any thread count, RNG streams are a function of the slot (never the
// thread), and nested parallelFor makes progress with every worker
// busy.
//
//===----------------------------------------------------------------------===//

#include "runtime/WorkerPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

using namespace hcvliw;

namespace {

TEST(WorkerPool, ThreadCountResolution) {
  WorkerPool Inline(1);
  EXPECT_EQ(Inline.threads(), 1u);
  WorkerPool Four(4);
  EXPECT_EQ(Four.threads(), 4u);
  WorkerPool Hw(0);
  EXPECT_GE(Hw.threads(), 1u);
}

TEST(WorkerPool, DeterministicSlotIndexedResultsUnderContention) {
  const size_t N = 5000;
  // Serial reference.
  std::vector<uint64_t> Ref(N);
  for (size_t I = 0; I < N; ++I)
    Ref[I] = I * I + 17 * I + 3;

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    WorkerPool Pool(Threads);
    std::vector<uint64_t> Out(N, 0);
    std::vector<std::atomic<int>> Runs(N);
    for (auto &R : Runs)
      R.store(0);
    // Many tiny slots maximize claim contention.
    Pool.parallelFor(N, [&](size_t I) {
      Out[I] = I * I + 17 * I + 3;
      Runs[I].fetch_add(1);
    });
    EXPECT_EQ(Out, Ref) << "threads=" << Threads;
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Runs[I].load(), 1) << "slot " << I << " ran "
                                   << Runs[I].load() << " times";
  }
}

TEST(WorkerPool, RngStreamsDependOnSlotNotSchedule) {
  const size_t N = 257;
  RNG Root(0x5eed);
  // Serial reference: stream I is Root.fork(I).
  std::vector<uint64_t> Ref(N);
  for (size_t I = 0; I < N; ++I) {
    RNG S = Root.fork(I);
    Ref[I] = S.next();
  }
  for (unsigned Threads : {1u, 4u}) {
    WorkerPool Pool(Threads);
    std::vector<uint64_t> Out(N, 0);
    Pool.parallelFor(N, Root, [&](size_t I, RNG &S) { Out[I] = S.next(); });
    EXPECT_EQ(Out, Ref) << "threads=" << Threads;
  }
}

TEST(WorkerPool, NestedParallelForCompletes) {
  // Outer fan-out wider than the pool, each item nesting another job:
  // every worker is busy with an outer item when the nested jobs are
  // submitted, so this deadlocks unless submitters work on their own
  // jobs.
  const size_t Outer = 12, Inner = 64;
  WorkerPool Pool(4);
  std::vector<uint64_t> Sums(Outer, 0);
  Pool.parallelFor(Outer, [&](size_t O) {
    std::vector<uint64_t> Part(Inner, 0);
    Pool.parallelFor(Inner, [&](size_t I) { Part[I] = O * 1000 + I; });
    Sums[O] = std::accumulate(Part.begin(), Part.end(), uint64_t{0});
  });
  for (size_t O = 0; O < Outer; ++O)
    EXPECT_EQ(Sums[O], O * 1000 * Inner + Inner * (Inner - 1) / 2);
}

TEST(WorkerPool, TwoLevelNestingWithStridedLanes) {
  // Few lanes, each processing a strided range, nesting inner jobs on
  // the same pool.
  WorkerPool Pool(3);
  const size_t N = 10, Lanes = 2, Inner = 32;
  std::vector<uint64_t> Out(N, 0);
  Pool.parallelFor(Lanes, [&](size_t Lane) {
    for (size_t I = Lane; I < N; I += Lanes) {
      std::atomic<uint64_t> Sum{0};
      Pool.parallelFor(Inner, [&](size_t J) {
        Sum.fetch_add(I * J, std::memory_order_relaxed);
      });
      Out[I] = Sum.load();
    }
  });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Out[I], I * (Inner * (Inner - 1) / 2));
}

TEST(WorkerPool, ReusableAcrossManyJobs) {
  WorkerPool Pool(4);
  std::atomic<uint64_t> Total{0};
  for (int Job = 0; Job < 50; ++Job)
    Pool.parallelFor(20, [&](size_t I) {
      Total.fetch_add(I + 1, std::memory_order_relaxed);
    });
  EXPECT_EQ(Total.load(), 50u * (20u * 21u / 2));
}

TEST(WorkerPool, EdgeCases) {
  WorkerPool Pool(4);
  bool Ran = false;
  Pool.parallelFor(0, [&](size_t) { Ran = true; }); // empty: no calls
  EXPECT_FALSE(Ran);
  Pool.parallelFor(1, [&](size_t I) { Ran = I == 0; }); // single slot
  EXPECT_TRUE(Ran);
}

} // namespace
