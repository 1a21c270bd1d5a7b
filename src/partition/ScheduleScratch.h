//===- partition/ScheduleScratch.h - Per-worker schedule arenas --*- C++ -*-===//
///
/// \file
/// The per-worker scratch arena of the per-loop scheduling chain. One
/// ScheduleScratch owns every reusable buffer a Figure 5 run touches —
/// the DDG, the per-edge coarsening slack and its longest-path buffers,
/// the partitioner's multilevel stack and pseudo-schedule buffers, the
/// partitioned graph and its tick lowering, the modulo reservation
/// table, the scheduler's ready-list bitset and priority arrays, and
/// the register-pressure accumulators — so the thousands of schedule
/// runs a suite performs stop hitting malloc in steady state.
///
/// Ownership contract (see also README "Performance"):
///
///   - A ScheduleScratch belongs to exactly one thread at a time. The
///     Session-owned ScheduleScratchPool hands each thread its own
///     arena (keyed on the thread's identity), so pool workers and
///     external callers never share one.
///   - Everything inside a scratch is *owned by the scratch* and valid
///     only until the next LoopScheduler::schedule call that uses it.
///     Callers must not hold references into a scratch across schedule
///     calls; results that escape (LoopScheduleResult) are copied or
///     moved out by the driver before it returns.
///   - Scratch contents never carry information between runs: results
///     are bit-identical with and without a scratch, for any pool
///     shape. The warm-start memos inside (coarsening, partitioned
///     graph) are keyed exactly and invalidated per run
///     (beginLoopRun), so they are reuse, not state.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_PARTITION_SCHEDULESCRATCH_H
#define HCVLIW_PARTITION_SCHEDULESCRATCH_H

#include "ir/DDG.h"
#include "ir/MinDist.h"
#include "ir/RecurrenceAnalysis.h"
#include "partition/Partitioner.h"
#include "sched/HeteroModuloScheduler.h"
#include "sched/RegisterPressure.h"
#include "sched/TickGraph.h"

#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace hcvliw {

/// One memoized IT-independent loop analysis: the recurrence summary
/// and the per-edge coarsening slack (computeEdgeSlack at II =
/// max(recMII, 1)), both pure functions of the loop's structure and
/// its node latencies. Keyed by the loop's structural fingerprint plus
/// the exact latency vector (latencies vary by ISA table, fingerprints
/// by loop), so an entry is reusable across machine plans, menus, and
/// whole schedule() runs — the suite pattern of re-scheduling one loop
/// under many configurations pays the analysis once per loop, not
/// once per run.
struct LoopAnalysisMemo {
  uint64_t Fp = 0;
  std::vector<unsigned> Lat;
  RecurrenceInfo Recs;
  std::vector<int64_t> EdgeSlack;
};

/// All reusable storage of one per-loop scheduling run (one thread's
/// arena). See the file header for the ownership contract.
struct ScheduleScratch {
  // Figure 5 driver state (per loop).
  DDG G;
  std::vector<unsigned> Lat;
  std::vector<int64_t> EdgeSlack;
  LongestPathScratch Paths;

  // Per-attempt structures.
  PartitionedGraph PG;
  std::vector<int> PGCopySlots;
  TickGraph Ticks;
  SchedulerScratch Sched;
  PressureScratch Pressure;
  PartitionScratch Part;

  // Warm-start memo: the assignment PG currently materializes. The
  // graph is a pure function of the assignment (the plan plays no
  // part), so an exact match across attempts or IT steps skips the
  // rebuild. Valid for one Figure 5 run only.
  Partition PGAssignment;
  bool PGValid = false;

  /// Cross-run analysis memos (see LoopAnalysisMemo). Bounded and
  /// overwritten round-robin — eviction affects speed only, never
  /// results, since every entry is bit-identical to recomputation.
  /// Deliberately NOT cleared by beginLoopRun: the key is globally
  /// unique (fingerprint + latencies), unlike the per-sweep memos.
  static constexpr unsigned MaxAnalysisMemos = 16;
  std::vector<LoopAnalysisMemo> Analysis;
  unsigned AnalysisNext = 0;

  const LoopAnalysisMemo *findAnalysis(uint64_t Fp,
                                       const std::vector<unsigned> &L) const {
    for (const LoopAnalysisMemo &A : Analysis)
      if (A.Fp == Fp && A.Lat == L)
        return &A;
    return nullptr;
  }

  /// The slot the next memo should be stored into (round-robin once
  /// full; the overwritten entry's buffers are reused in place).
  LoopAnalysisMemo &analysisSlot() {
    if (Analysis.size() < MaxAnalysisMemos) {
      Analysis.emplace_back();
      return Analysis.back();
    }
    LoopAnalysisMemo &A = Analysis[AnalysisNext];
    AnalysisNext = (AnalysisNext + 1) % MaxAnalysisMemos;
    return A;
  }

  /// Invalidates the cross-attempt memos; the driver calls this at the
  /// start of every schedule() run (the memo keys are only unique
  /// within one loop's sweep).
  void beginLoopRun() {
    PGValid = false;
    Part.MLValid = false;
  }
};

/// The Session-owned arena table: one ScheduleScratch per thread that
/// schedules through the session (pool workers and any external caller
/// of runProgram). Thread-keyed so concurrent measurements never share
/// an arena; which arena a thread gets cannot affect results (see the
/// ScheduleScratch contract), so determinism is preserved for any pool
/// shape. Arenas live as long as the pool.
class ScheduleScratchPool {
  mutable std::mutex Mutex;
  std::unordered_map<std::thread::id, std::unique_ptr<ScheduleScratch>>
      PerThread;

public:
  ScheduleScratchPool() = default;
  ScheduleScratchPool(const ScheduleScratchPool &) = delete;
  ScheduleScratchPool &operator=(const ScheduleScratchPool &) = delete;

  /// The calling thread's arena (created on first use). One mutex
  /// acquisition per call; callers acquire once per program
  /// measurement, not per loop.
  ScheduleScratch &forThisThread();

  /// Number of distinct threads that have acquired an arena.
  size_t threadsSeen() const;
};

} // namespace hcvliw

#endif // HCVLIW_PARTITION_SCHEDULESCRATCH_H
