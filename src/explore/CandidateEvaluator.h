//===- explore/CandidateEvaluator.h - One-candidate estimation ---*- C++ -*-===//
///
/// \file
/// Estimates one heterogeneous candidate of the Section 3.3 search:
/// timing over every profiled loop (optionally memoized through an
/// EvalCache), greedy per-component-class supply voltages from the
/// design space's grids, then the Section 3.1 energy and ED2. The
/// ExplorationEngine calls evaluate() once per grid point, from
/// whichever pool thread claims it.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_EXPLORE_CANDIDATEEVALUATOR_H
#define HCVLIW_EXPLORE_CANDIDATEEVALUATOR_H

#include "configsel/DesignSpace.h"
#include "configsel/Scaling.h"
#include "explore/EvalCache.h"
#include "mcd/FrequencyMenu.h"
#include "profiling/ProfileData.h"

#include <atomic>

namespace hcvliw {

/// Per-search cache statistics. The EvalCache's own counters are
/// lifetime totals over every concurrent user; a search that wants its
/// exact private hit/miss contribution passes one of these.
struct CacheCounters {
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
};

class CandidateEvaluator {
  const ProgramProfile &Profile;
  const MachineDescription &Machine;
  const EnergyModel &Energy;
  TechnologyModel Tech;
  AlphaPowerModel Alpha;
  FrequencyMenu Menu;
  const DesignSpaceOptions &Space;
  EvalCache *Cache;        ///< may be null: evaluate timing directly
  CacheCounters *Counters; ///< may be null: no per-search stats

public:
  CandidateEvaluator(const ProgramProfile &P, const MachineDescription &M,
                     const EnergyModel &E, const TechnologyModel &T,
                     const FrequencyMenu &Menu,
                     const DesignSpaceOptions &Space,
                     EvalCache *Cache = nullptr,
                     CacheCounters *Counters = nullptr);

  /// Estimates the candidate with the first NumFastClusters clusters at
  /// \p FastPeriod, the rest at \p SlowPeriod, ICN/cache clocked with
  /// the fast cluster (Section 5); Valid=false when timing is
  /// infeasible or no grid voltage supports a required frequency.
  SelectedDesign evaluate(const Rational &FastPeriod,
                          const Rational &SlowPeriod) const;
};

} // namespace hcvliw

#endif // HCVLIW_EXPLORE_CANDIDATEEVALUATOR_H
