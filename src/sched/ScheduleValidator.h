//===- sched/ScheduleValidator.h - Schedule invariant checks -----*- C++ -*-===//
///
/// \file
/// Independent re-verification of a finished modulo schedule: every
/// dependence satisfied under the exact cross-domain timing rule
/// (checked on the plan's integer tick grid), no modulo resource
/// conflicts, per-domain II * period == IT, and (optionally) register
/// pressure within each cluster's file. A plan with no tick grid is
/// reported as invalid. Used by the tests and the driver.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_SCHEDULEVALIDATOR_H
#define HCVLIW_SCHED_SCHEDULEVALIDATOR_H

#include "sched/RegisterPressure.h"
#include "sched/Schedule.h"

#include <string>

namespace hcvliw {

class TickGraph;

struct ValidatorOptions {
  bool CheckRegisterPressure = true;
  /// Optional prebuilt tick view of the (PG, S.Plan) pair being
  /// validated: the driver already lowered one for the scheduler, so
  /// passing it here saves a redundant TickGraph build per attempt. A
  /// valid one that lowers another graph throws std::invalid_argument.
  const TickGraph *Ticks = nullptr;
};

/// Returns an empty string when the schedule is valid, else a
/// description of the first violated invariant (PlanGrid::NoGridReason
/// for a plan with no tick grid).
std::string validateSchedule(const MachineDescription &M,
                             const PartitionedGraph &PG, const Schedule &S,
                             const ValidatorOptions &Opts = ValidatorOptions());

} // namespace hcvliw

#endif // HCVLIW_SCHED_SCHEDULEVALIDATOR_H
