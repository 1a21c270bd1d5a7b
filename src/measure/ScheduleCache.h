//===- measure/ScheduleCache.h - Memoized per-loop schedules -----*- C++ -*-===//
///
/// \file
/// Memoizes whole per-loop scheduling runs (the Figure 5 driver's
/// LoopScheduleResult: partition, machine plan, modulo schedule,
/// register pressure) so the pipeline — the reference profile and the
/// measurements alike, both through ScheduleMeasurer::scheduleLoop —
/// never schedules the same (loop, machine plan) pair twice. A Session
/// owns one instance, so schedules are reused
///
///   - across the profile, the two step-4 measurements and the
///     frontier measurement of one program (the estimated ED2 argmin is
///     always on the frontier, so FrontierMeasurer re-measures it for
///     free),
///   - across repeated runProgram calls on the same program, and
///   - across *programs* containing structurally identical loops (the
///     synthetic SPECfp suite shares many generator parameters).
///
/// Key contract (mirrors EvalCache's structural keying, one level
/// lower): the caller — ScheduleMeasurer::loopScheduleKey — hashes
/// *everything* LoopScheduler::schedule reads: the loop's structural
/// fingerprint (ops, operands, addressing, trip count; names and
/// profile weights excluded), every domain period of the HeteroConfig,
/// the frequency menu, the partitioner/scheduler options and the IT
/// budget, and — for ED2-objective runs only — the energy-model units
/// and the per-domain scaling factors (the homogeneous baseline
/// objective reads neither, so baseline schedules hit across designs
/// that differ only in voltage). Equal keys therefore hash equal
/// scheduling inputs, and since the Figure 5 driver is a pure,
/// deterministic function of those inputs, a cached result is
/// bit-identical to recomputation.
///
/// The cache is a MemoTable (support/MemoTable.h) of shared, immutable
/// results: a hit hands out the pointer and a miss stores the pointer
/// its caller already holds, so no result is copied into or out of the
/// map. Scheduler and partitioner effort is
/// not kept here: the session MetricsRegistry is the one work ledger
/// (ScheduleMeasurer records it per fresh run).
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_MEASURE_SCHEDULECACHE_H
#define HCVLIW_MEASURE_SCHEDULECACHE_H

#include "partition/LoopScheduler.h"
#include "support/MemoTable.h"

#include <cstdint>

namespace hcvliw {

/// Whole per-loop scheduling runs keyed by
/// ScheduleMeasurer::loopScheduleKey.
using ScheduleCache = MemoTable<uint64_t, LoopScheduleResult>;

/// One scheduling run as the cache holds and hands it out.
using SharedSchedule = ScheduleCache::Ptr;

} // namespace hcvliw

#endif // HCVLIW_MEASURE_SCHEDULECACHE_H
