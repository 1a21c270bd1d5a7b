//===- core/HeterogeneousPipeline.h - Whole-paper pipeline -------*- C++ -*-===//
///
/// \file
/// The end-to-end flow the paper evaluates, for one program:
///
///   1. profile the program on the reference homogeneous machine,
///   2. build the Section 3.1 energy model from the profile,
///   3. select the heterogeneous configuration minimizing estimated ED2
///      (Section 3.3) and the optimum homogeneous baseline (Section 5.1),
///   4. *measure* both: schedule every loop with the Figure 5 driver
///      (ED2-objective partitioning on the heterogeneous machine, the
///      [2][3] baseline objective on the homogeneous one), optionally
///      re-execute schedules on the MCD simulator as a functional check,
///      and evaluate time/energy/ED2 from the measured schedules,
///   5. report heterogeneous ED2 normalized to the homogeneous optimum
///      (the quantity plotted in Figure 6).
///
/// All baseline assumptions (bus count, energy shares, leakage shares,
/// frequency-menu size, ablation knobs) are PipelineOptions fields; the
/// Figure 7/8/9 benches are parameter sweeps over them. The pipeline
/// runs only inside a Session (runtime/Session.h), which builds the
/// machine and menu from those options and owns the worker pool and
/// caches every stage runs on.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_CORE_HETEROGENEOUSPIPELINE_H
#define HCVLIW_CORE_HETEROGENEOUSPIPELINE_H

#include "explore/ConfigurationSelector.h"
#include "measure/ScheduleMeasurer.h"
#include "partition/Partitioner.h"
#include "profiling/Profiler.h"
#include "workloads/SpecFPSuite.h"

#include <optional>

namespace hcvliw {

struct PipelineOptions {
  unsigned Buses = 1;
  unsigned NumClusters = 4;
  /// Frequencies each domain supports: nullopt = any frequency
  /// (Figure 7 sweeps {16, 8, 4}).
  std::optional<unsigned> MenuSize;
  EnergyBreakdown Breakdown;
  TechnologyModel Tech = TechnologyModel::paperDefault();
  DesignSpaceOptions Space = DesignSpaceOptions::paperDefault();
  /// Partitioner knobs (ablations disable recurrence pre-placement or
  /// the ED2 refinement objective).
  PartitionerOptions Part;
  /// Measurement-stage IT growth attempts per loop (Figure 5 retries);
  /// a loop exhausting them counts as a measurement failure.
  unsigned MaxITSteps = 64;
  /// When nonzero, every measured schedule is re-executed on the MCD
  /// simulator for min(trip, this) iterations and compared bit-for-bit
  /// against sequential execution.
  uint64_t SimCheckIterations = 0;
  /// Per-loop effort deadline for the measurement stage, in scheduler
  /// BudgetUsed units (0 = off). Effort — never wall clock — so the
  /// same loops hit the deadline on every machine and thread count;
  /// see LoopScheduleOptions::EffortDeadline.
  uint64_t LoopEffortDeadline = 0;
  /// Degrade a loop whose Figure 5 sweep fails (including by effort
  /// deadline) to the analytic reference-profile estimate instead of
  /// failing the measurement — the last graceful-degradation rung
  /// (MeasureOptions::AnalyticFallback). Degraded loops are flagged on
  /// LoopRunStat::Degraded and counted in ConfigRunResult.
  bool DegradeToEstimate = false;
};

// LoopRunStat / ConfigRunResult — the measured-schedule result types —
// live in measure/ScheduleMeasurer.h since the measurement stage was
// extracted into src/measure/; re-exported here for source
// compatibility.

struct ProgramRunResult {
  std::string Name;
  ProgramProfile Profile;
  SelectedDesign HetDesign; ///< estimates behind the selection
  SelectedDesign HomDesign;
  ConfigRunResult HetMeasured;
  ConfigRunResult HomMeasured;
  /// Measured heterogeneous ED2 / measured optimum-homogeneous ED2
  /// (Figure 6's y-axis).
  double ED2Ratio = 1.0;
};

/// Where a failed runProgram gave up.
enum class PipelineStage { Profiling, Selection, Measurement };

const char *pipelineStageName(PipelineStage S);

/// Structured failure record: stage plus a human-readable reason (the
/// SuiteRunner surfaces these instead of dropping failed programs).
struct PipelineError {
  PipelineStage Stage = PipelineStage::Profiling;
  std::string Reason;
  /// Wall time the failing stage ran before giving up, so
  /// timeout-shaped failures (a stage that ground away for seconds)
  /// read differently from logic failures (instant). Diagnostic only —
  /// never part of any result or cache contract.
  double StageWallMs = 0;
};

class Session;

/// The pipeline of one Session: a view over the session's options,
/// machine, menu, worker pool and caches. Selections memoize through
/// the session EvalCache (loop timing across programs, whole selections
/// across repeated runs), measurements through its ScheduleCache.
class HeterogeneousPipeline {
  Session &S;

public:
  explicit HeterogeneousPipeline(Session &Sess) : S(Sess) {}

  HeterogeneousPipeline(const HeterogeneousPipeline &) = delete;
  HeterogeneousPipeline &operator=(const HeterogeneousPipeline &) = delete;

  const MachineDescription &machine() const;
  const PipelineOptions &options() const;

  /// The frequency menu \p O implies (what the Session builds once).
  static FrequencyMenu menuFor(const PipelineOptions &O);

  /// The measurement-stage knobs \p O implies (what this pipeline's
  /// ScheduleMeasurer runs under).
  static MeasureOptions measureOptionsFor(const PipelineOptions &O);

  /// Full pipeline for one program; std::nullopt when profiling,
  /// selection or measurement fails (a workload bug). On failure,
  /// \p Err (when non-null) records the stage and reason. Safe to call
  /// concurrently from multiple threads.
  ///
  /// Exception containment: a stage that throws (an injected fault, a
  /// bad_alloc, a defect in stage code) is converted into the same
  /// structured failure as a stage that returns one — PipelineError
  /// with the stage, an "exception: <what>" reason, and the stage's
  /// wall time. runProgram itself never throws.
  std::optional<ProgramRunResult>
  runProgram(const BenchmarkProgram &Program,
             PipelineError *Err = nullptr) const;

  /// Schedules and evaluates one already-chosen configuration: a thin
  /// facade over the measure/ layer's ScheduleMeasurer, run under this
  /// pipeline's options (exposed for the oracle ablation and the
  /// tests). Per-loop schedules are memoized through the session
  /// ScheduleCache.
  ConfigRunResult measureConfig(const ProgramProfile &Profile,
                                const std::vector<Loop> &Loops,
                                const HeteroConfig &Config,
                                const HeteroScaling &Scaling,
                                const EnergyModel &Energy,
                                bool ED2Objective) const;
};

} // namespace hcvliw

#endif // HCVLIW_CORE_HETEROGENEOUSPIPELINE_H
