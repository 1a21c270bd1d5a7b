//===- sched/RegisterPressure.h - MaxLive computation ------------*- C++ -*-===//
///
/// \file
/// Register pressure of a modulo schedule. Every value (a cluster-local
/// def, or a copy arriving into a cluster) lives from its write time to
/// its last read (reads of consumers d iterations later happen d*IT
/// later). In a modulo schedule a lifetime of L cluster cycles adds
/// floor(L / II) registers at every modulo slot plus one more over
/// L mod II slots; MaxLive is the peak over the II slots and must fit in
/// the cluster's register file. The Section 3.2 estimator uses the
/// coarser "sum of lifetimes <= registers * II" form, also provided.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_REGISTERPRESSURE_H
#define HCVLIW_SCHED_REGISTERPRESSURE_H

#include "sched/Schedule.h"

#include <vector>

namespace hcvliw {

class TickGraph;

struct RegisterPressureResult {
  /// Peak live values per cluster.
  std::vector<int64_t> MaxLive;
  /// Sum of lifetimes (cluster cycles) per cluster.
  std::vector<int64_t> SumLifetimes;

  /// True when every cluster's MaxLive fits its register file.
  bool fits(const MachineDescription &M) const;
};

/// One value's register occupation: [DefSlot, DefSlot + Len) in cluster
/// Home's slot space (exposed for the scratch buffers below).
struct RegLifetime {
  unsigned Home;
  int64_t DefSlot;
  int64_t Len;
};

/// Reusable buffers for computeRegisterPressure: the Figure 5 driver
/// computes pressure once per scheduling attempt, so sweep drivers pass
/// one scratch object instead of reallocating the lifetime list and the
/// per-cluster modulo accumulators every time.
struct PressureScratch {
  std::vector<RegLifetime> Lifetimes;
  /// moduloMaxLiveInto's per-cluster floor(Len / II) sums and its
  /// difference arrays over the II slots.
  std::vector<int64_t> Base;
  std::vector<std::vector<int64_t>> Pressure;
};

/// The peak modulo pressure per cluster of \p Lifetimes under \p Plan's
/// IIs, into \p MaxLive: a lifetime of Len cycles in a cluster of II
/// slots adds floor(Len / II) at every slot plus one over the Len mod II
/// slots from DefSlot mod II on, cyclically. O(lifetimes + sum of IIs).
void moduloMaxLiveInto(std::vector<int64_t> &MaxLive,
                       const std::vector<RegLifetime> &Lifetimes,
                       const MachinePlan &Plan, PressureScratch &Scratch);

/// Computes pressure on the plan's integer tick grid. \p Ticks, when
/// non-null, must be the lowering of (PG, S.Plan) and saves the internal
/// TickGraph build; \p Scratch provides reusable buffers. Throws
/// std::invalid_argument when the plan has no tick grid or \p Ticks
/// lowers another graph.
RegisterPressureResult computeRegisterPressure(const PartitionedGraph &PG,
                                               const Schedule &S,
                                               const TickGraph *Ticks = nullptr,
                                               PressureScratch *Scratch =
                                                   nullptr);

} // namespace hcvliw

#endif // HCVLIW_SCHED_REGISTERPRESSURE_H
