//===- configsel/TimingEstimator.h - Section 3.2 timing model ----*- C++ -*-===//
///
/// \file
/// Estimates, at configuration-selection time, the initiation time and
/// execution time a loop would achieve on a candidate heterogeneous
/// configuration (Section 3.2): the IT is the smallest value at or above
/// the configuration's MIT that also provides enough bus slots for the
/// reference schedule's communications and enough register-lifetime
/// slots for the reference schedule's lifetimes; the iteration length is
/// the reference cycle count times the slowest cluster cycle time. The
/// paper multiplies by the mean cycle time (its half-fast / half-slow
/// assumption), but the partitioner's ED2 objective pushes
/// non-critical work into the slow clusters, so the slowest period is
/// the honest multiplier; for uniform-frequency candidates the two
/// coincide.
///
/// The estimate is split in two so it is written once: the IT search
/// (estimateLoopTimingCore) yields a scale-free LoopTimingCore, which
/// EvalCache memoizes, and loopTimingAt turns a core into it_length and
/// Texec at the caller's periods. estimateLoopTiming is the two
/// composed at one configuration's own periods.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_CONFIGSEL_TIMINGESTIMATOR_H
#define HCVLIW_CONFIGSEL_TIMINGESTIMATOR_H

#include "mcd/DomainPlanner.h"
#include "profiling/ProfileData.h"

namespace hcvliw {

/// What the Section 3.2 IT search decides. For continuous and
/// relative menus it is scale-free: multiplying every period by s
/// multiplies ITNs by s and leaves the rest unchanged.
struct LoopTimingCore {
  bool Feasible = false;
  Rational ITNs;
  /// Capacity share of each cluster at the estimated IT (the paper's
  /// p_Ci surrogate used by the energy estimate).
  std::vector<double> ClusterShare;
};

struct LoopTimingEstimate : LoopTimingCore {
  double ItLengthNs = 0;
  /// One invocation: (N - 1) * IT + it_length.
  double TexecNs = 0;
};

/// The IT search at the periods of \p C.
LoopTimingCore estimateLoopTimingCore(const LoopProfile &LP,
                                      const MachineDescription &M,
                                      const HeteroConfig &C,
                                      const FrequencyMenu &Menu);

/// The full estimate of \p Core, whose IT is \p ITScale times the IT at
/// the caller's periods (1 when the core was computed at them), with
/// \p SlowestClusterPeriodNs the slowest of the caller's cluster
/// periods.
LoopTimingEstimate loopTimingAt(const LoopProfile &LP,
                                const MachineDescription &M,
                                LoopTimingCore Core, const Rational &ITScale,
                                const Rational &SlowestClusterPeriodNs);

LoopTimingEstimate estimateLoopTiming(const LoopProfile &LP,
                                      const MachineDescription &M,
                                      const HeteroConfig &C,
                                      const FrequencyMenu &Menu);

} // namespace hcvliw

#endif // HCVLIW_CONFIGSEL_TIMINGESTIMATOR_H
