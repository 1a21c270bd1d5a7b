//===- profiling/Profiler.h - Reference homogeneous profiling ----*- C++ -*-===//
///
/// \file
/// Pipeline step 1: schedules every loop of a program on the reference
/// homogeneous machine (the paper's 1 GHz / 1 V / 0.25 V four-cluster
/// design) and extracts the LoopProfile data. Loop weights are realized
/// as invocation counts against a fixed program execution-time budget
/// of 1 ms (1e6 ns), so a loop with weight w contributes a fraction w of
/// the program's reference execution time.
///
/// The profiling policy lives here, not in PipelineOptions: the
/// baseline [2][3] objective under default MeasureOptions, so no
/// measurement knob or ablation changes a profile. Loops schedule
/// through ScheduleMeasurer::scheduleLoop, so given the session cache a
/// profile schedule is an ordinary entry, reused across passes,
/// programs and persisted snapshots. A cached profile costs lookups:
/// the profile reads the loop's components from the reference
/// schedule (LoopScheduleResult::Components), takes it_length once and
/// derives the reference execution time from it, and records the
/// loop's structural fingerprint (LoopProfile::LoopFP) that keyed its
/// lookup, so the measurement stage does not hash the loop again.
///
/// The session's fault injector reaches the profile stage too. Its
/// schedules run under the fault context "profile:<program>", so the
/// per-loop sites see "profile:<program>/<loop>": a plan rule scoped
/// to "<program>/<loop>" still fires only where the measurement stage
/// schedules, and a rule aimed at "profile:..." fails the profile
/// stage. A rule with no context fires in both. Replay: while the
/// injector is armed, the profile stage bypasses the ScheduleCache as
/// the measurement stage does, so an armed run re-profiles every loop
/// instead of reusing cached or snapshot-loaded profile schedules.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_PROFILING_PROFILER_H
#define HCVLIW_PROFILING_PROFILER_H

#include "ir/Loop.h"
#include "machine/MachineDescription.h"
#include "measure/ScheduleMeasurer.h"
#include "profiling/ProfileData.h"

#include <optional>

namespace hcvliw {

class Profiler {
  obs::Tracer *Trace;        ///< may be null: no stage span
  fault::FaultInjector *Fault; ///< may be null: no fault sites
  ScheduleMeasurer Measurer; ///< under the profiling policy above

public:
  /// The optional session resources, as for ScheduleMeasurer; \p Trace
  /// also records one "stage.profile:<program>" span per program, and
  /// \p Fault is consulted at the scheduling sites (see above).
  explicit Profiler(const MachineDescription &M,
                    ScheduleCache *Cache = nullptr,
                    ScheduleScratchPool *Scratches = nullptr,
                    obs::Tracer *Trace = nullptr,
                    obs::MetricsRegistry *Metrics = nullptr,
                    fault::FaultInjector *Fault = nullptr);

  /// std::nullopt when some loop cannot be scheduled on the reference
  /// machine (a workload bug). On failure, \p Err (when non-null)
  /// receives a human-readable reason naming the offending loop.
  std::optional<ProgramProfile>
  profileProgram(const std::string &Name, const std::vector<Loop> &Loops,
                 std::string *Err = nullptr) const;
};

} // namespace hcvliw

#endif // HCVLIW_PROFILING_PROFILER_H
