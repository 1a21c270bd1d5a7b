//===- profiling/Profiler.h - Reference homogeneous profiling ----*- C++ -*-===//
///
/// \file
/// Pipeline step 1: schedules every loop of a program on the reference
/// homogeneous machine (the paper's 1 GHz / 1 V / 0.25 V four-cluster
/// design) and extracts the LoopProfile data. Loop weights are realized
/// as invocation counts against a fixed program execution-time budget,
/// so a loop with weight w contributes a fraction w of the program's
/// reference execution time.
///
/// The profiling policy lives here, not in PipelineOptions: the
/// baseline [2][3] objective under default MeasureOptions, so no
/// measurement knob or ablation changes a profile. Loops schedule
/// through ScheduleMeasurer::scheduleLoop, so given the session cache a
/// profile schedule is an ordinary entry, reused across passes,
/// programs and persisted snapshots.
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
  double ProgramBudgetNs;
  obs::Tracer *Trace;        ///< may be null: no stage span
  ScheduleMeasurer Measurer; ///< under the profiling policy above

public:
  /// The optional session resources, as for ScheduleMeasurer; \p Trace
  /// also records one "stage.profile:<program>" span per program.
  explicit Profiler(const MachineDescription &M,
                    double ProgramBudgetNs = 1e6,
                    ScheduleCache *Cache = nullptr,
                    ScheduleScratchPool *Scratches = nullptr,
                    obs::Tracer *Trace = nullptr,
                    obs::MetricsRegistry *Metrics = nullptr);

  /// std::nullopt when some loop cannot be scheduled on the reference
  /// machine (a workload bug). On failure, \p Err (when non-null)
  /// receives a human-readable reason naming the offending loop.
  std::optional<ProgramProfile>
  profileProgram(const std::string &Name, const std::vector<Loop> &Loops,
                 std::string *Err = nullptr) const;
};

} // namespace hcvliw

#endif // HCVLIW_PROFILING_PROFILER_H
