//===- partition/LoopScheduler.h - Figure 5 driver ---------------*- C++ -*-===//
///
/// \file
/// The top-level per-loop code-generation flow of the paper's Figure 5:
///
///   compute MIT -> IT := MIT -> select IIs & frequencies -> partition
///   the DDG -> schedule; on any failure (synchronization, partitioning,
///   scheduling, register pressure) increase the IT and retry.
///
/// Everything after the frequency selection runs on the plan's integer
/// tick grid (mcd/PlanGrid.h). The driver checks the grid once per IT
/// step, right after the plan is chosen: a plan with no grid is one
/// more infeasible IT step (PlanGrid::NoGridReason in the FailureLog),
/// so no consumer downstream ever sees a grid-less plan.
///
/// The same driver serves homogeneous machines (every domain at one
/// frequency, baseline [2][3] objective) and heterogeneous ones (ED2
/// objective, Section 4 extensions).
///
/// The sweep is one path. It reuses exact memos in its scratch arena:
/// the IT-independent loop analysis (LoopAnalysisMemo, across whole
/// schedule() runs; it also yields the loop's weakly-connected
/// components, which every result carries for the profiler) and the
/// coarsening level stack (across attempts and IT steps while its
/// inputs are unchanged); the partitioner also skips re-scoring
/// refinement candidates that cannot have changed.
/// Each memo fires only on an exact input match, so results never
/// depend on the arena; tests/sched/WarmStartTest pins the results as
/// golden digests.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_PARTITION_LOOPSCHEDULER_H
#define HCVLIW_PARTITION_LOOPSCHEDULER_H

#include "partition/Partitioner.h"
#include "sched/HeteroModuloScheduler.h"
#include "sched/RegisterPressure.h"
#include "sched/ScheduleValidator.h"

namespace hcvliw {

namespace fault {
class FaultInjector;
}

struct ScheduleScratch;

/// What a caller varies per sweep. The placement loop's budget and slot
/// cap (HeteroModuloScheduler.cpp) and the partitioner's refinement
/// limits (Partitioner.cpp) are constants: every run uses one value.
struct LoopScheduleOptions {
  FrequencyMenu Menu = FrequencyMenu::continuous();
  PartitionerOptions Part;
  /// IT growth attempts before giving up.
  unsigned MaxITSteps = 64;
  /// Hard ceiling on scheduler effort for one schedule() run, in
  /// BudgetUsed units (placement-loop iterations); 0 = unlimited. When
  /// the accumulated budget crosses the ceiling the sweep stops with
  /// an "effort deadline exhausted" failure — a *deterministic* per-loop
  /// deadline (effort, never wall clock), so every thread count and
  /// every machine gives up at the same point. Changes results when it
  /// fires, hence part of the schedule-cache key (loopScheduleKey).
  uint64_t EffortDeadline = 0;
  /// Optional fault injector (armed test/chaos runs only; null in
  /// production). Fault site: "sched.place", before every scheduler
  /// run. Injection changes results by design; callers must not mix
  /// armed runs with shared caches (ScheduleMeasurer bypasses the
  /// ScheduleCache while armed).
  fault::FaultInjector *Fault = nullptr;
  /// Context string for fault sites: the program name; per-loop sites
  /// use FaultContext + "/" + Loop::Name, which is a serial execution
  /// stream, so occurrence counts are thread-count invariant.
  std::string FaultContext;
};

/// One failed (IT step, attempt) of the Figure 5 sweep; consecutive
/// identical failures at one step are folded into Count.
struct ITFailure {
  unsigned Step = 0; ///< IT growths past the MIT when this failed
  Rational ITNs;     ///< the IT attempted
  std::string Reason;
  unsigned Count = 1;
};

struct LoopScheduleResult {
  bool Success = false;
  std::string Failure;

  Schedule Sched;
  PartitionedGraph PG;
  Partition Assignment;
  RegisterPressureResult Pressure;

  Rational MITNs;
  unsigned ITSteps = 0; ///< times the IT was increased past the MIT

  /// Scheduler effort over the whole Figure 5 run (every attempt at
  /// every IT step, failed ones included): placements made, nodes
  /// ejected, and placement-loop iterations consumed. Deterministic for
  /// fixed inputs, so cached results carry identical counters.
  uint64_t Placements = 0;
  uint64_t Ejections = 0;
  uint64_t BudgetUsed = 0;

  /// IT steps refused because the plan had no tick grid (logged with
  /// PlanGrid::NoGridReason). The name predates that meaning: such a
  /// plan used to fall back to a Rational scheduler path. Cached
  /// results carry it, so the sched.fallback_rational metric is
  /// identical with or without the schedule cache.
  unsigned FallbackRational = 0;

  /// Every failed (IT step, attempt) of the sweep, in order — the
  /// per-IT failure aggregation SuiteFailure records surface.
  std::vector<ITFailure> FailureLog;

  /// Partitioner effort over the whole sweep (coarsening levels,
  /// matched pairs, refinement passes/moves; PartitionStats). They
  /// report work *performed*, so the memos lower them without moving
  /// any other field.
  PartitionStats PartStats;

  /// Reference-machine classification stats (Table 2): recurrence- and
  /// resource-constrained MII of the loop.
  int64_t RecMII = 0;
  int64_t ResMII = 0;
  /// The loop's weakly-connected DDG components with their internal
  /// recMII (computeLoopComponents; memoized with the loop analyses).
  /// Like RecMII/ResMII a pure function of (loop, ISA latencies), set
  /// on failed runs too; the profiler reads them from the reference
  /// schedule instead of re-analyzing the loop.
  std::vector<LoopComponent> Components;

  /// Human-readable digest of FailureLog: which stage failed at which
  /// IT, most recent \p MaxEntries steps, earlier ones summarized.
  std::string failureSummary(size_t MaxEntries = 4) const;
};

class LoopScheduler {
  const MachineDescription &Machine;
  HeteroConfig Config;
  LoopScheduleOptions Opts;
  DomainPlanner Planner; ///< fixed per (machine, config, menu)

public:
  LoopScheduler(const MachineDescription &M, const HeteroConfig &C,
                const LoopScheduleOptions &O = LoopScheduleOptions());

  /// Schedules \p L; \p Energy / \p Scaling enable the ED2 partitioning
  /// objective (both or neither: one without the other throws
  /// std::invalid_argument). \p Scratch provides the per-worker
  /// arena (reusable buffers + exact memos); when null a local
  /// arena serves this one call. Results are bit-identical for any
  /// scratch (ScheduleScratch contract). \p Trace, when enabled,
  /// records a "loop.schedule:<name>" span per run, one "loop.analyze"
  /// span for its IT-independent analyses (args nodes, edges, memo_hit)
  /// and one "loop.itstep" span per IT step (observation only; the
  /// schedule never depends on it).
  LoopScheduleResult schedule(const Loop &L,
                              const EnergyModel *Energy = nullptr,
                              const HeteroScaling *Scaling = nullptr,
                              ScheduleScratch *Scratch = nullptr,
                              obs::Tracer *Trace = nullptr) const;
};

} // namespace hcvliw

#endif // HCVLIW_PARTITION_LOOPSCHEDULER_H
