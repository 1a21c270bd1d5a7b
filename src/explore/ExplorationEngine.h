//===- explore/ExplorationEngine.h - Parallel design-space search -*- C++ -*-===//
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
/// explore() enumerates the heterogeneous candidates of a
/// DesignSpaceOptions grid (fast-factor major, slow-ratio minor — the
/// seed's serial order), fans their evaluation out across a worker
/// pool, memoizes loop timing through an EvalCache, and reduces the
/// results to the ED2 argmin plus the Pareto frontier over (Texec,
/// Energy, ED2).
///
/// The baseline is the *optimum homogeneous* design (Section 5.1,
/// selectOptimumHomogeneous): one frequency and one supply voltage for
/// the entire processor, chosen by the same models (its schedule is the
/// reference schedule, so only the cycle time scales the execution
/// time).
///
/// The engine owns no threads and no cache: explore() runs on the
/// caller's WorkerPool and memoizes through the caller's EvalCache (in
/// production both are a Session's). A null cache evaluates every
/// candidate directly — the reference the memoized path is tested
/// against.
///
/// Determinism: each candidate's result is written to its enumeration
/// slot, every per-candidate computation is a pure function of the
/// candidate, and all reductions (best design, frontier) run serially
/// over the slots afterwards — so the selected design and the frontier
/// are identical for any pool size, with or without the cache.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_EXPLORE_EXPLORATIONENGINE_H
#define HCVLIW_EXPLORE_EXPLORATIONENGINE_H

#include "configsel/DesignSpace.h"
#include "explore/CandidateEvaluator.h"
#include "explore/EvalCache.h"
#include "explore/ParetoFrontier.h"

#include <cstdint>
#include <vector>

namespace hcvliw {

class WorkerPool;

/// One enumerated grid point and (after explore()) its evaluation.
struct ExploreCandidate {
  Rational FastFactor;   ///< fast period / reference period
  Rational SlowRatio;    ///< slow period / fast period
  Rational FastPeriodNs;
  Rational SlowPeriodNs;
  SelectedDesign Design; ///< Valid=false when infeasible
  bool OnFrontier = false;
};

struct ExplorationStats {
  size_t Enumerated = 0; ///< all enumerated candidates are evaluated
  size_t Feasible = 0;
  size_t Infeasible = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  size_t FrontierSize = 0;
  unsigned ThreadsUsed = 1;
  double WallMs = 0;
};

struct ExplorationResult {
  /// All grid points in enumeration order (fast-factor major).
  std::vector<ExploreCandidate> Candidates;
  /// Indices into Candidates, ascending estimated execution time.
  std::vector<size_t> Frontier;
  /// The ED2 argmin (the paper's selected design); Valid=false when the
  /// whole grid is infeasible.
  SelectedDesign Best;
  ExplorationStats Stats;

  /// Valid candidates ordered by ascending estimated ED2 (stable in
  /// enumeration order), the seed's rankHeterogeneous() contract.
  std::vector<SelectedDesign> rankedByED2() const;
};

class ExplorationEngine {
  const ProgramProfile &Profile;
  const MachineDescription &Machine;
  const EnergyModel &Energy;
  TechnologyModel Tech;
  FrequencyMenu Menu;
  DesignSpaceOptions Space;

public:
  ExplorationEngine(const ProgramProfile &P, const MachineDescription &M,
                    const EnergyModel &E, const TechnologyModel &T,
                    const FrequencyMenu &Menu,
                    const DesignSpaceOptions &Space);

  /// The candidate grid in enumeration order, unevaluated.
  std::vector<ExploreCandidate> enumerate() const;

  /// Full heterogeneous search, fanned out over \p Pool. Loop timing is
  /// memoized in \p Cache (long-lived: hits persist across explore()
  /// calls and programs); null evaluates directly. Results are
  /// bit-identical either way — entries are pure functions of (loop
  /// structure, frequency shape). Throws std::invalid_argument when
  /// \p Cache is bound to another machine or menu.
  ExplorationResult explore(WorkerPool &Pool,
                            EvalCache *Cache = nullptr) const;

  /// Best single-(frequency, voltage) homogeneous design (Section 5.1)
  /// over the space's HomogFactors x HomogVddGrid.
  SelectedDesign selectOptimumHomogeneous() const;
};

} // namespace hcvliw

#endif // HCVLIW_EXPLORE_EXPLORATIONENGINE_H
