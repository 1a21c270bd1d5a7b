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
///     shape. The memos inside are keyed exactly and survive across
///     runs: the loop analyses (LoopAnalysisMemo) on the loop's
///     structure and latencies, and the partitioner's one coarsening
///     stack (PartitionScratch) on every build input — those two plus
///     the node energies, the pre-placement groups and pins, and the
///     target. They are reuse, not state.
///   - Effort counters never see the arena either: a run counts its
///     first use of a coarsening stack as a build even when an earlier
///     run left it behind (beginLoopRun restarts that ledger), just as
///     a LoopAnalysisMemo hit is invisible to every counter. Only trace
///     args (loop.analyze's memo_hit, loop.schedule's coarsen_reused)
///     show the physical reuse.
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

/// One memoized IT-independent loop analysis: the recurrence summary,
/// the per-edge coarsening slack (computeEdgeSlack at II =
/// max(recMII, 1)) and the weakly-connected components the driver
/// hands out with every result (LoopScheduleResult::Components), all
/// pure functions of the loop's structure and its node latencies.
/// Keyed by the loop's structural fingerprint plus the exact latency
/// vector (latencies vary by ISA table, fingerprints by loop), so an
/// entry is reusable across machine plans, menus, and
/// whole schedule() runs — the suite pattern of re-scheduling one loop
/// under many configurations pays the analysis once per loop, not
/// once per run.
struct LoopAnalysisMemo {
  /// False while the entry is being (re)computed: an exception out of
  /// the analyses leaves no entry whose key matches stale contents.
  bool Valid = false;
  uint64_t Fp = 0;
  std::vector<unsigned> Lat;
  RecurrenceInfo Recs;
  std::vector<int64_t> EdgeSlack;
  std::vector<LoopComponent> Components;
};

/// All reusable storage of one per-loop scheduling run (one thread's
/// arena). See the file header for the ownership contract.
struct ScheduleScratch {
  // Figure 5 driver state (per loop).
  DDG G;
  std::vector<unsigned> Lat;
  LongestPathScratch Paths;
  /// The current IT step's plan grid, recomputed at every step; only
  /// its validity is read (the grid check of the Figure 5 driver).
  PlanGrid Grid;

  // Per-attempt structures.
  PartitionedGraph PG;
  std::vector<int> PGCopySlots;
  TickGraph Ticks;
  SchedulerScratch Sched;
  PressureScratch Pressure;
  PartitionScratch Part;

  /// Cross-run analysis memos (see LoopAnalysisMemo). Bounded and
  /// overwritten round-robin — eviction affects speed only, never
  /// results, since every entry is bit-identical to recomputation.
  /// Not cleared by beginLoopRun: the key (fingerprint + latencies)
  /// is exact across runs, as is the coarsening memo's.
  static constexpr unsigned MaxAnalysisMemos = 16;
  std::vector<LoopAnalysisMemo> Analysis;
  unsigned AnalysisNext = 0;

  const LoopAnalysisMemo *findAnalysis(uint64_t Fp,
                                       const std::vector<unsigned> &L) const {
    for (const LoopAnalysisMemo &A : Analysis)
      if (A.Valid && A.Fp == Fp && A.Lat == L)
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

  /// Starts the effort ledger of a schedule() run: the coarsening
  /// stack kept from earlier runs stays valid (its key covers every
  /// build input), but this run counts it as a build the first time it
  /// uses it (PartitionStats). The driver calls this per run.
  void beginLoopRun() { Part.RunCounted = false; }
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
  /// acquisition per call; callers acquire it per fresh schedule run,
  /// and a schedule-cache hit takes none.
  ScheduleScratch &forThisThread();

  /// Number of distinct threads that have acquired an arena.
  size_t threadsSeen() const;
};

} // namespace hcvliw

#endif // HCVLIW_PARTITION_SCHEDULESCRATCH_H
