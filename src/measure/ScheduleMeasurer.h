//===- measure/ScheduleMeasurer.h - Measured-schedule evaluation -*- C++ -*-===//
///
/// \file
/// The one production entry point to the Figure 5 loop scheduler:
/// both the reference-machine profile (profiling/Profiler, pipeline
/// step 1) and the measurement stage (step 4, also fanned across
/// frontier points, oracle candidates and bench sweeps) schedule every
/// loop through ScheduleMeasurer::scheduleLoop — a lookup in the
/// optional session ScheduleCache (see ScheduleCache.h for the key
/// contract), else a fresh run on the thread's scratch arena. Cached
/// results are bit-identical to recomputation, so results are identical
/// with and without a cache and for any concurrency.
///
/// measure() evaluates one HeteroConfig for a program on top of it:
/// schedule every loop (ED2-objective partitioning on heterogeneous
/// machines, the [2][3] baseline objective on homogeneous ones),
/// optionally re-execute the schedule on the MCD simulator as a
/// functional check, and accumulate measured time/energy/ED2.
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
  unsigned FlatPartitions = 0;  ///< partition runs on the flat rung
  /// IT steps refused because the plan had no tick grid (summed
  /// LoopScheduleResult::FallbackRational; the sched.fallback_rational
  /// metric).
  unsigned FallbackRational = 0;
};

/// One measurement's ScheduleCache lookups (both zero when no cache was
/// attached). A diagnostic beside the result, never part of it: in a
/// session cache shared by concurrent programs, which program reaches a
/// shared entry first depends on thread timing, so these counts differ
/// between runs whose ConfigRunResults are bit-identical.
struct ScheduleLookups {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
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
  /// "<program>/<loop>"). While the injector is *armed*, scheduleLoop
  /// bypasses the ScheduleCache, so every injected failure replays at
  /// any thread count.
  fault::FaultInjector *Fault = nullptr;
};

class ScheduleScratchPool;

class ScheduleMeasurer {
  const MachineDescription &Machine;
  MeasureOptions Opts;
  ScheduleCache *Cache; ///< may be null: schedule every loop directly
  ScheduleScratchPool *Scratches; ///< may be null: a local arena per run
  obs::Tracer *Trace;             ///< may be null: no span recording
  obs::MetricsRegistry *Metrics;  ///< may be null: no metric recording

public:
  /// \p Cache, when given, must be used with one machine only (the
  /// schedule key does not re-hash the machine; a Session owns one
  /// cache per machine). \p Scratches, when given, supplies the
  /// per-worker ScheduleScratch arenas (Session-owned); fresh runs then
  /// schedule allocation-free in steady state. \p Trace / \p Metrics
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

  /// Schedules every loop of the program under \p Config and evaluates
  /// measured time/energy/ED2. \p ED2Objective selects the
  /// heterogeneous flow (restricted menu, ED2-guided partitioning);
  /// homogeneous baselines pass false. Pure function of its inputs:
  /// bit-identical for any thread count, with or without the cache.
  /// The cache lookups it made go to \p Lookups when non-null.
  /// Each loop's schedule lookup is keyed from its profile's LoopFP
  /// (the fingerprint the Profiler hashed), so a pass hashes each loop
  /// once; \p Profile must be the one the Profiler built for \p Loops.
  /// Throws std::invalid_argument when \p Profile has another loop
  /// count or a loop another op count, and when a successful cached
  /// schedule assigns another number of ops than its loop has (an
  /// entry that does not belong to the loop it is keyed by).
  ConfigRunResult measure(const ProgramProfile &Profile,
                          const std::vector<Loop> &Loops,
                          const HeteroConfig &Config,
                          const HeteroScaling &Scaling,
                          const EnergyModel &Energy, bool ED2Objective,
                          ScheduleLookups *Lookups = nullptr) const;

  /// One loop's Figure 5 run under \p Config: a cache hit builds no
  /// scheduler and takes no arena; a miss runs fresh, and a throw out
  /// of the sweep propagates. \p Program is the fault context;
  /// \p Scaling / \p Energy may be null under the baseline objective.
  /// Adds the run's effort and degradation counters to \p Tally, and
  /// the cache hit or miss to \p Lookups; a fresh run's effort also
  /// goes to the metrics registry. The result is the cache's own
  /// immutable entry, never a copy. \p LoopFP is L's structural
  /// fingerprint, as for loopScheduleKey.
  SharedSchedule scheduleLoop(const Loop &L, const HeteroConfig &Config,
                              const HeteroScaling *Scaling,
                              const EnergyModel *Energy, bool ED2Objective,
                              const std::string &Program,
                              ConfigRunResult &Tally,
                              ScheduleLookups &Lookups,
                              uint64_t LoopFP) const;

  /// The ScheduleCache key of one loop's scheduling run under this
  /// measurer's options: hashes everything LoopScheduler::schedule
  /// reads (see ScheduleCache.h for the contract). The loop enters as
  /// \p LoopFP, its Loop::structuralFingerprint, which the caller has
  /// already computed (the Profiler's, carried as
  /// LoopProfile::LoopFP). Throws std::invalid_argument when the ED2
  /// objective is in effect and \p Scaling or \p Energy is null.
  uint64_t loopScheduleKey(uint64_t LoopFP, const HeteroConfig &Config,
                           const HeteroScaling *Scaling,
                           const EnergyModel *Energy,
                           bool ED2Objective) const;
};

} // namespace hcvliw

#endif // HCVLIW_MEASURE_SCHEDULEMEASURER_H
