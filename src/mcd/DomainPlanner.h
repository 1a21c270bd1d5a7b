//===- mcd/DomainPlanner.h - Per-domain (II, frequency) plans ----*- C++ -*-===//
///
/// \file
/// Implements the "Select IIs & freqs" box of the paper's Figure 5. For
/// a candidate initiation time IT, every clock domain (clusters, bus,
/// cache) receives an integer II and a running frequency II / IT drawn
/// from its frequency menu and bounded by the voltage-determined fmax:
///
///   II_X = IT * f_X,   f_X <= fmax_X.
///
/// When some domain admits no such pair the IT must be increased
/// ("synchronization problems"); nextIT() yields the smallest useful
/// increase. The minimum initiation time (MIT, Section 2.2) is the
/// larger of recMII * (fastest cluster cycle time) and the smallest IT
/// with enough functional-unit slots for the whole loop body.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_MCD_DOMAINPLANNER_H
#define HCVLIW_MCD_DOMAINPLANNER_H

#include "machine/MachineDescription.h"
#include "mcd/FrequencyMenu.h"
#include "mcd/HeteroConfig.h"

#include <optional>
#include <vector>

namespace hcvliw {

/// One domain's schedule-time clocking for a specific loop.
struct DomainPlan {
  int64_t II = 1;            ///< slots per initiation time
  Rational FreqGHz;          ///< II / IT, <= the domain's fmax
  Rational PeriodNs;         ///< 1 / FreqGHz (the *running* period)
};

/// Clocking of the whole machine for one loop.
struct MachinePlan {
  Rational ITNs;
  std::vector<DomainPlan> Clusters;
  DomainPlan Bus;
  DomainPlan Cache;

  const DomainPlan &cluster(unsigned C) const { return Clusters[C]; }
};

class DomainPlanner {
  const MachineDescription *Machine;
  HeteroConfig Config;
  FrequencyMenu Menu;

public:
  DomainPlanner(const MachineDescription &M, const HeteroConfig &C,
                const FrequencyMenu &Menu);

  const HeteroConfig &config() const { return Config; }
  const FrequencyMenu &menu() const { return Menu; }

  /// (II, freq) for every domain at \p ITNs, or std::nullopt on a
  /// synchronization failure in any domain.
  std::optional<MachinePlan> planForIT(const Rational &ITNs) const;

  /// In-place form of planForIT: overwrites \p Plan (reusing its
  /// Clusters capacity) and returns false on a synchronization failure.
  /// computeMIT probes many candidate ITs; this keeps that search
  /// allocation-free in steady state.
  bool planForITInto(MachinePlan &Plan, const Rational &ITNs) const;

  /// Smallest IT' > ITNs at which any domain gains a slot (the Figure 5
  /// "increase IT" step). Throws std::invalid_argument, in every build
  /// type, when no domain's next slot lies above \p ITNs.
  Rational nextIT(const Rational &ITNs) const;

  /// computeMIT's probe budget, counted from the search's start (see
  /// computeMIT). Real inputs use far fewer: from the capacity start,
  /// at most 2 probes per SPECfp loop on the reference machine and at
  /// most 7 on the 256/512/768-op unrolled bodies, where the walk from
  /// recMIT took up to 223.
  static constexpr unsigned MaxMITProbes = 4096;

  /// MIT = max(recMIT, resMIT): \p RecMII in cycles and per-FU-kind
  /// operation counts of the loop (Loop::opCountsByFU). The search
  /// probes the nextIT() sequence upward from the larger of recMIT (at
  /// least one fastest-cluster cycle) and the capacity bound
  ///
  ///   LB = max_K count_K / sum_C fmax_C * units_{C,K}
  ///
  /// rounded down to a multiple of the fastest cluster's top menu
  /// period (FrequencyMenu::topFrequency), which is a point of that
  /// sequence. Every domain's II is at most IT * fmax, so no IT below
  /// LB has the slots, and the first feasible IT is the one the
  /// one-slot walk from recMIT finds. MaxMITProbes counts the probes
  /// from that start. Throws std::invalid_argument, in every build
  /// type, when MaxMITProbes candidate ITs yield no plan that
  /// synchronizes every domain and has the slots (e.g. cluster periods
  /// whose slot grids almost never align under a relative menu).
  Rational computeMIT(int64_t RecMII,
                      const std::vector<unsigned> &OpCounts) const;

  /// True when every FU kind has enough slots across clusters for
  /// \p OpCounts under \p Plan.
  bool hasCapacity(const MachinePlan &Plan,
                   const std::vector<unsigned> &OpCounts) const;
};

} // namespace hcvliw

#endif // HCVLIW_MCD_DOMAINPLANNER_H
