//===- measure/ScheduleMeasurer.h - Measured-schedule evaluation -*- C++ -*-===//
///
/// \file
/// The measurement stage of the paper's evaluation (step 4 of the
/// HeterogeneousPipeline), extracted into its own layer so it can be
/// driven by more callers than the once-per-program pipeline: the
/// frontier measurer fans it across Pareto points, the oracle ablation
/// across ranked candidates, and benches across option sweeps.
///
/// Measuring one HeteroConfig for a program means, per loop: partition
/// the DDG, run the heterogeneous modulo scheduler (the Figure 5
/// driver with the ED2-objective partitioning on heterogeneous
/// machines, the [2][3] baseline objective on homogeneous ones),
/// validate the schedule, optionally re-execute it on the MCD
/// simulator as a functional check, and accumulate measured
/// time/energy/ED2 from the resulting schedules.
///
/// Per-loop scheduling runs are memoized through an optional
/// ScheduleCache (session-owned), keyed on everything the Figure 5
/// driver reads — see ScheduleCache.h for the key contract. Cached
/// results are bit-identical to recomputation, so measurement with and
/// without a cache (and for any concurrency) produces identical
/// ConfigRunResults.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_MEASURE_SCHEDULEMEASURER_H
#define HCVLIW_MEASURE_SCHEDULEMEASURER_H

#include "measure/ScheduleCache.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "power/EnergyModel.h"
#include "profiling/ProfileData.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hcvliw {

namespace fault {
class FaultInjector;
}

/// Measured behaviour of one loop under one configuration.
struct LoopRunStat {
  std::string Name;
  double ITNs = 0;
  double TexecNs = 0; ///< all invocations
  unsigned Comms = 0; ///< per iteration
  /// True when this loop took the analytic-estimate rung (reference-
  /// profile numbers instead of a measured schedule) — either because
  /// scheduling failed with MeasureOptions::AnalyticFallback set, or
  /// because an armed injector degraded "measure.loop".
  bool Degraded = false;
};

/// One unschedulable loop, with the Figure 5 sweep's aggregated per-IT
/// failure reasons (which stage failed at which IT) — the detail
/// SuiteFailure records surface.
struct LoopScheduleFailure {
  std::string Loop;
  std::string Detail; ///< LoopScheduleResult::failureSummary()
};

/// Measured behaviour of one configuration on one program.
struct ConfigRunResult {
  bool Ok = false;
  double TexecNs = 0;
  double Energy = 0;
  double ED2 = 0;
  unsigned Failures = 0; ///< loops that could not be scheduled
  /// Parallel detail for every failed loop, in loop order.
  std::vector<LoopScheduleFailure> FailureDetails;
  std::vector<LoopRunStat> Loops;
  /// This measurement's ScheduleCache statistics (both zero when no
  /// cache was attached).
  uint64_t ScheduleHits = 0;
  uint64_t ScheduleMisses = 0;
  /// Scheduler effort summed over every loop's Figure 5 run (failed
  /// loops included). Cached results carry the counters of their
  /// original computation, so these are bit-identical with and without
  /// a cache; future perf work attributes wins through them.
  uint64_t SchedPlacements = 0;
  uint64_t SchedEjections = 0;
  uint64_t SchedBudgetUsed = 0;
  uint64_t SchedITSteps = 0;
  /// Graceful-degradation ledger (all zero on a healthy run; every
  /// rung fires only on an exception, an injected degrade, or an
  /// exhausted effort deadline, so the healthy path stays
  /// bit-identical to the historical output). Deterministic, and
  /// carried by cached schedule results where applicable, so the
  /// counts match with and without the schedule cache.
  unsigned DegradedLoops = 0;   ///< loops on the analytic-estimate rung
  unsigned ColdReplays = 0;     ///< warm sweeps replayed cold after a throw
  unsigned FlatPartitions = 0;  ///< partition runs on the flat rung
  /// Scheduler runs that silently fell back from the tick grid to the
  /// Rational path (summed LoopScheduleResult::FallbackRational; the
  /// sched.fallback_rational metric).
  unsigned FallbackRational = 0;
};

/// The measurement-stage knobs a ScheduleMeasurer runs under; derived
/// from PipelineOptions by the pipeline and the frontier measurer.
struct MeasureOptions {
  /// Menu heterogeneous (ED2-objective) scheduling negotiates (II,
  /// freq) pairs from; homogeneous baselines always run continuous.
  FrequencyMenu Menu = FrequencyMenu::continuous();
  PartitionerOptions Part;
  SchedulerOptions Sched;
  /// IT growth attempts per loop before the loop counts as a
  /// measurement failure (Figure 5 retries).
  unsigned MaxITSteps = 64;
  /// When nonzero, every measured schedule (cache hits included) is
  /// re-executed on the MCD simulator for min(trip, this) iterations
  /// and compared bit-for-bit against sequential execution; a
  /// divergence counts as a loop failure with its detail recorded.
  uint64_t SimCheckIterations = 0;
  /// Per-loop effort deadline in scheduler BudgetUsed units (0 = off);
  /// see LoopScheduleOptions::EffortDeadline. Deterministic — never
  /// wall clock — and part of loopScheduleKey.
  uint64_t EffortDeadline = 0;
  /// Degrade a loop whose Figure 5 sweep fails (including by effort
  /// deadline) to the analytic reference-profile estimate instead of
  /// counting a measurement failure. Off by default: the healthy
  /// pipeline keeps its historical failure reporting.
  bool AnalyticFallback = false;
  /// Optional fault injector (armed test/chaos runs only; null in
  /// production). Sites here: "measure.config" (point, context =
  /// program name) and "measure.loop" (degrade, context =
  /// "<program>/<loop>"). While the injector is *armed*, measure()
  /// bypasses the ScheduleCache: cross-program cache sharing is
  /// timing-dependent, and a hit would skip the very scheduling run
  /// whose fault-site occurrence counters must advance — bypassing
  /// keeps every injected failure replayable at any thread count.
  fault::FaultInjector *Fault = nullptr;
};

class ScheduleScratchPool;

class ScheduleMeasurer {
  const MachineDescription &Machine;
  MeasureOptions Opts;
  ScheduleCache *Cache; ///< may be null: schedule every loop directly
  ScheduleScratchPool *Scratches; ///< may be null: one local arena per call
  obs::Tracer *Trace;             ///< may be null: no span recording
  obs::MetricsRegistry *Metrics;  ///< may be null: no metric recording

public:
  /// \p Cache, when given, must be used with one machine only (the
  /// schedule key does not re-hash the machine; a Session owns one
  /// cache per machine). \p Scratches, when given, supplies the
  /// per-worker ScheduleScratch arenas (Session-owned); measure() then
  /// schedules allocation-free in steady state. \p Trace / \p Metrics
  /// attach the observability layer (spans per config and per loop,
  /// the stage.loop_schedule.ms histogram, cache counters) —
  /// observation only. Results are bit-identical with or without any
  /// of the four.
  ScheduleMeasurer(const MachineDescription &M, const MeasureOptions &O,
                   ScheduleCache *Cache = nullptr,
                   ScheduleScratchPool *Scratches = nullptr,
                   obs::Tracer *Trace = nullptr,
                   obs::MetricsRegistry *Metrics = nullptr);

  const MachineDescription &machine() const { return Machine; }
  const MeasureOptions &options() const { return Opts; }

  /// Schedules every loop of the program under \p Config and evaluates
  /// measured time/energy/ED2. \p ED2Objective selects the
  /// heterogeneous flow (restricted menu, ED2-guided partitioning);
  /// homogeneous baselines pass false. Pure function of its inputs:
  /// bit-identical for any thread count, with or without the cache.
  ConfigRunResult measure(const ProgramProfile &Profile,
                          const std::vector<Loop> &Loops,
                          const HeteroConfig &Config,
                          const HeteroScaling &Scaling,
                          const EnergyModel &Energy,
                          bool ED2Objective) const;

  /// The ScheduleCache key of one loop's scheduling run under this
  /// measurer's options: hashes everything LoopScheduler::schedule
  /// reads (see ScheduleCache.h for the contract).
  uint64_t loopScheduleKey(const Loop &L, const HeteroConfig &Config,
                           const HeteroScaling &Scaling,
                           const EnergyModel &Energy,
                           bool ED2Objective) const;
};

} // namespace hcvliw

#endif // HCVLIW_MEASURE_SCHEDULEMEASURER_H
