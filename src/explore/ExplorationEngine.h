//===- explore/ExplorationEngine.h - Parallel design-space search -*- C++ -*-===//
///
/// \file
/// The parallel design-space exploration engine: enumerates the
/// heterogeneous candidates of a DesignSpaceOptions grid (fast-factor
/// major, slow-ratio minor — the seed's serial order), fans their
/// evaluation out across a worker pool, memoizes loop timing through an
/// EvalCache, and reduces the results to the ED2 argmin plus the Pareto
/// frontier over (Texec, Energy, ED2).
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

struct ExploreOptions {
  /// Compute the Pareto frontier and mark dominated candidates. Every
  /// candidate is fully evaluated either way — this is reporting
  /// bookkeeping, not a search-space reduction, so Best never depends
  /// on it.
  bool ComputeFrontier = true;
  /// Memoize loop timing in this long-lived cache (hits persist across
  /// explore() calls and programs); null evaluates directly. Must be
  /// compatibleWith(engine machine, engine menu). Results are
  /// bit-identical either way — entries are pure functions of (loop
  /// structure, frequency shape).
  EvalCache *Cache = nullptr;
};

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

  const DesignSpaceOptions &space() const { return Space; }

  /// The candidate grid in enumeration order, unevaluated.
  std::vector<ExploreCandidate> enumerate() const;

  /// Full search under \p Opts, fanned out over \p Pool. Throws
  /// std::invalid_argument when Opts.Cache is bound to another machine
  /// or menu.
  ExplorationResult explore(WorkerPool &Pool,
                            const ExploreOptions &Opts = ExploreOptions()) const;
};

} // namespace hcvliw

#endif // HCVLIW_EXPLORE_EXPLORATIONENGINE_H
