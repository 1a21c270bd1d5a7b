//===- mcd/PlanGrid.h - Integer tick grid of a machine plan -----*- C++ -*-===//
///
/// \file
/// The per-plan tick grid: because the Section 2.2 integrality condition
/// `II_X = IT * f_X` holds for every domain, the initiation time and all
/// running periods of one MachinePlan share a finite common grid. One
/// *tick* is `1 / TicksPerNs` nanoseconds, where TicksPerNs is the LCM
/// of the denominators of the IT, every cluster period, and the bus
/// period. On that grid every clock quantity of the schedule hot path
/// (ASAP/ALAP fixpoints, edge bounds, placement, validation, register
/// pressure) is an exact int64, so the whole per-loop scheduling chain
/// runs on integer div/mod instead of Rational gcd normalization --
/// exactly, since tick arithmetic is Rational arithmetic scaled by one
/// exact common denominator. It is the chain's only clock arithmetic.
///
/// The grid also carries the plan's hyperperiod H: the LCM of the
/// cluster and bus period ticks, so every domain's clock ticks at each
/// multiple of H. The ASAP fixpoint's recurrence verdict counts start
/// residues mod H (sched/AsapFixpoint).
///
/// The lowering can fail: when the LCM (or any lowered quantity, the
/// hyperperiod included) would overflow the headroom needed by
/// schedule-time products, the grid is invalid. The Figure 5 driver
/// (LoopScheduler) refuses such an IT step with NoGridReason and grows
/// the IT, as it does when a domain has no (II, frequency) pair.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_MCD_PLANGRID_H
#define HCVLIW_MCD_PLANGRID_H

#include "mcd/DomainPlanner.h"

#include <cstdint>
#include <vector>

namespace hcvliw {

class PlanGrid {
  int64_t TicksPerNsVal = 0; ///< 0 = invalid grid (overflow)
  int64_t ITTicksVal = 0;
  std::vector<int64_t> ClusterPeriodTicks;
  int64_t BusPeriodTicksVal = 0;
  int64_t HyperTicksVal = 0;

public:
  /// Lowered IT and period ticks stay below this bound so that every
  /// product the scheduler forms (slots x periods, fixpoint horizons,
  /// distance x IT) keeps ample int64 headroom.
  static constexpr int64_t MaxTicks = int64_t(1) << 38;

  /// The failure every scheduling-chain entry point reports for a plan
  /// whose grid is invalid.
  static constexpr const char *NoGridReason =
      "no tick grid: clock periods overflow the int64 grid";

  /// Lowers \p Plan onto its tick grid; the result is invalid when the
  /// denominator LCM, any lowered quantity or the hyperperiod exceeds
  /// MaxTicks.
  static PlanGrid compute(const MachinePlan &Plan);

  /// In-place form of compute: reuses \p G's period buffer (the
  /// pseudo-scheduler lowers one grid per refinement candidate).
  static void computeInto(PlanGrid &G, const MachinePlan &Plan);

  bool valid() const { return TicksPerNsVal > 0; }
  int64_t ticksPerNs() const { return TicksPerNsVal; }
  int64_t itTicks() const { return ITTicksVal; }
  unsigned numClusters() const {
    return static_cast<unsigned>(ClusterPeriodTicks.size());
  }
  int64_t clusterPeriodTicks(unsigned C) const {
    return ClusterPeriodTicks[C];
  }
  int64_t busPeriodTicks() const { return BusPeriodTicksVal; }
  /// The LCM of every cluster period and the bus period, in ticks.
  int64_t hyperperiodTicks() const { return HyperTicksVal; }

  /// Period ticks of domain \p D, where \p BusDomain is the bus id
  /// (PartitionedGraph::busDomain() layout: clusters then bus).
  int64_t periodTicks(unsigned D, unsigned BusDomain) const {
    return D == BusDomain ? BusPeriodTicksVal : ClusterPeriodTicks[D];
  }

  /// Exact lowering of \p R (whose denominator divides TicksPerNs) onto
  /// the grid; only meaningful on a valid grid.
  int64_t toTicks(const Rational &R) const;

  /// The Rational value of \p Ticks (the inverse of toTicks).
  Rational toNs(int64_t Ticks) const {
    return Rational(Ticks, TicksPerNsVal);
  }
};

/// Least common multiple that reports overflow as 0 instead of
/// asserting (the grid lowering treats overflow as "no grid").
int64_t lcm64Checked(int64_t A, int64_t B);

} // namespace hcvliw

#endif // HCVLIW_MCD_PLANGRID_H
