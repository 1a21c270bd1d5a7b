//===- explore/ConfigurationSelector.h - Section 3.3 search ----*- C++ -*-===//
///
/// \file
/// The design-space exploration of Section 3.3 / Section 5: choose the
/// frequencies and voltages of every component of the heterogeneous
/// machine that minimize the *estimated* ED2 of a profiled program.
///
/// Heterogeneous candidates (the paper's evaluation space): one fast
/// cluster cycle time in {0.9, 0.95, 1, 1.05, 1.1} x reference, slow
/// clusters at {1, 1.25, 1.33, 1.5} x the fast cycle time, ICN and cache
/// clocked with the fastest cluster, and per-component supply voltages
/// from the ranges clusters 0.7-1.2 V, ICN 0.8-1.1 V, cache 1.0-1.4 V.
/// Threshold voltages follow from the alpha-power law; energy follows
/// the Section 3.1 model; timing the Section 3.2 estimator.
///
/// The baseline is the *optimum homogeneous* design (Section 5.1): one
/// frequency and one supply voltage for the entire processor, chosen by
/// the same models (its schedule is the reference schedule, so only the
/// cycle time scales the execution time).
///
/// The heterogeneous search runs on the ExplorationEngine
/// (src/explore/): this class is the selection facade — the engine's
/// `ComputeFrontier=false` case, on the pool and cache it is given —
/// while callers wanting the Pareto frontier or serialized reports use
/// the engine directly.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_EXPLORE_CONFIGURATIONSELECTOR_H
#define HCVLIW_EXPLORE_CONFIGURATIONSELECTOR_H

#include "configsel/DesignSpace.h"
#include "configsel/Scaling.h"
#include "configsel/TimingEstimator.h"
#include "explore/ExplorationEngine.h"
#include "mcd/FrequencyMenu.h"
#include "profiling/ProfileData.h"

#include <optional>
#include <vector>

namespace hcvliw {

class WorkerPool;

class ConfigurationSelector {
  const ProgramProfile &Profile;
  const MachineDescription &Machine;
  const EnergyModel &Energy;
  TechnologyModel Tech;
  AlphaPowerModel Alpha;
  DesignSpaceOptions Space;
  ExplorationEngine Engine; ///< holds the frequency menu
  WorkerPool &Pool;
  EvalCache *Cache; ///< null evaluates every candidate directly

  /// The engine's search without frontier bookkeeping.
  ExplorationResult search() const;

public:
  /// Every search this selector runs fans out over \p Pool and
  /// memoizes through \p Cache (in the pipeline, the Session's);
  /// results are bit-identical for any pool size, with or without the
  /// cache.
  ConfigurationSelector(const ProgramProfile &P,
                        const MachineDescription &M, const EnergyModel &E,
                        const TechnologyModel &T, const FrequencyMenu &Menu,
                        const DesignSpaceOptions &Space, WorkerPool &Pool,
                        EvalCache *Cache = nullptr);

  /// Best heterogeneous design by estimated ED2.
  SelectedDesign selectHeterogeneous() const;

  /// All heterogeneous candidates, best first (for the oracle
  /// cross-check ablation).
  std::vector<SelectedDesign> rankHeterogeneous() const;

  /// Best single-(frequency, voltage) homogeneous design (Section 5.1).
  SelectedDesign selectOptimumHomogeneous() const;
};

} // namespace hcvliw

#endif // HCVLIW_EXPLORE_CONFIGURATIONSELECTOR_H
