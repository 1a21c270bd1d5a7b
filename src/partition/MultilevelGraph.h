//===- partition/MultilevelGraph.h - Macro-node coarsening ------*- C++ -*-===//
///
/// \file
/// The coarsening machinery of the multilevel partitioner (Section 4.1,
/// after [2][3] and Karypis-Kumar multilevel schemes). Nodes of the DDG
/// are fused into macro nodes by repeated heavy-edge matching along
/// low-slack (critical) edges; a level is recorded whenever the macro
/// count has shrunk geometrically (to <= 3/4 of the previous recorded
/// level), so the stack has O(log N) levels and refinement sees a
/// meaningfully different granularity at each one. Recurrences enter
/// coarsening pre-fused (the paper does not split recurrences before
/// refinement) and may carry a *pin* to a cluster fixed by the
/// critical-recurrence pre-placement.
///
/// Matching is *balance-bounded*: a merge may not push any per-kind
/// operation count (or the energy weight) of the combined macro past
/// twice the average share of a coarsest-target macro. Without the
/// bound a hub macro absorbs a partner every round and snowballs into
/// a fragment far larger than any cluster can hold — such a macro can
/// never be placed and never be split, which is exactly how the old
/// one-shot coarsening lost every loop beyond ~200 ops. Pre-fused
/// recurrence groups may exceed the bound (they are atomic by
/// construction); they simply stop merging further.
///
/// Levels store flat per-macro arrays plus a CSR macro adjacency
/// (neighbor, DDG-edge multiplicity, minimum node-level slack): the
/// refinement passes walk macro boundaries, and the matching rounds
/// derive their candidate edges from the same structure. Only the
/// finest level folds the DDG's edges; every coarser one contracts the
/// previous level's rows (multiplicities add, slack takes the minimum),
/// and per-macro energy weights are re-summed over member nodes in node
/// order, so each level is the one a fold of the DDG would give, bit
/// for bit. All storage is reused across build() calls, so a sweep
/// coarsens without touching malloc in steady state.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_PARTITION_MULTILEVELGRAPH_H
#define HCVLIW_PARTITION_MULTILEVELGRAPH_H

#include "ir/DDG.h"
#include "machine/MachineDescription.h"
#include "obs/Trace.h"

#include <cstdint>
#include <vector>

namespace hcvliw {

/// One level of the hierarchy: flat per-macro arrays (no per-macro
/// member lists; MacroOf is the node->macro map and Rep the canonical
/// representative) plus the macro-level adjacency in CSR form.
struct CoarseLevel {
  unsigned NumMacros = 0;
  /// Macro id of each DDG node at this level.
  std::vector<unsigned> MacroOf;
  /// Lowest-numbered member node of each macro (canonical
  /// representative; projecting a node-level partition onto macros
  /// reads one node per macro).
  std::vector<unsigned> Rep;
  /// Member count per macro.
  std::vector<unsigned> Size;
  /// Per-FUKind operation counts, flat [macro][NumFUKinds].
  std::vector<unsigned> FUCounts;
  /// Energy-weighted instruction mass (Table 1) per macro.
  std::vector<double> Weight;
  /// Cluster each macro is pinned to, or -1.
  std::vector<int> Pin;

  /// Macro adjacency, CSR over symmetric neighbor lists: for each
  /// neighbor pair the DDG-edge multiplicity between the two macros and
  /// the minimum node-level slack across those edges.
  std::vector<unsigned> AdjStart; ///< [NumMacros + 1]
  std::vector<unsigned> AdjMacro;
  std::vector<unsigned> AdjWeight;
  std::vector<int64_t> AdjSlack;

  unsigned fuCount(unsigned Mac, unsigned K) const {
    return FUCounts[static_cast<size_t>(Mac) * NumFUKinds + K];
  }
};

class MultilevelGraph {
public:
  /// Effort counters of the last build() (observability; the stack
  /// itself never depends on them).
  struct BuildStats {
    unsigned Levels = 0;       ///< recorded levels (finest included)
    unsigned Rounds = 0;       ///< matching rounds run
    unsigned MatchedPairs = 0; ///< pair contractions across all rounds
  };

  /// A matching candidate: the macro pair A < B of one adjacency entry,
  /// with its minimum slack and edge multiplicity.
  struct MatchCand {
    int64_t Slack;
    unsigned Weight;
    unsigned A, B;
  };
  /// Sorts \p Cands, given in (A, B) order, into matching order: slack
  /// ascending, then weight descending, then (A, B). A stable merge
  /// sort through \p Tmp, so a sweep that reuses both buffers sorts
  /// without touching malloc.
  static void sortCandidates(std::vector<MatchCand> &Cands,
                             std::vector<MatchCand> &Tmp);

private:
  std::vector<CoarseLevel> Levels; ///< [0] = finest; reused storage
  unsigned NumLvls = 0;
  BuildStats Stats;

  // Reused working storage (see file header): each node's FU kind and
  // energy weight, two ping-pong work levels for unrecorded matching
  // rounds, the finest level's half-edge buffers, the matching arrays
  // and the row buffers of the level contraction.
  std::vector<uint8_t> NodeKind;
  std::vector<double> NodeEnergy;
  CoarseLevel WorkA, WorkB;
  struct HalfEdge {
    unsigned From, To; ///< macros
    int64_t Slack;
  };
  std::vector<HalfEdge> HE, HESorted;
  std::vector<unsigned> Bucket; ///< counting-pass cursors, per macro
  std::vector<MatchCand> Cands, CandTmp;
  std::vector<int> GroupOfNode;
  std::vector<int> PinOfGroup;
  std::vector<int> NewIdOfMacro;
  std::vector<int> NewPins;
  std::vector<unsigned> KindCap;
  struct RowEntry {
    unsigned To;
    unsigned Weight;
    int64_t Slack;
  };
  std::vector<RowEntry> Row;
  std::vector<unsigned> OldOf; ///< flat [new macro][2] previous macros
  std::vector<unsigned> RowAt; ///< [new macro] its index in Row

  void sumMembers(CoarseLevel &Out) const;
  /// The finest level: the initial grouping, its adjacency folded from
  /// the edges of \p G.
  void makeFinest(CoarseLevel &Out, const DDG &G, unsigned NumGroups,
                  const std::vector<int64_t> &EdgeSlack);
  /// Contracts \p Cur into \p Out along the matching in NewIdOfMacro /
  /// NewPins: the adjacency is merged from \p Cur's rows, not the DDG.
  void contract(const CoarseLevel &Cur, CoarseLevel &Out, unsigned NewCount);
  /// One matching round Cur -> Out; returns contracted pair count.
  unsigned matchRound(const CoarseLevel &Cur, CoarseLevel &Out,
                      unsigned TargetMacros, double WeightCap);
  /// Copies \p Lvl into the next stack slot and returns the slot.
  CoarseLevel *recordLevel(const CoarseLevel &Lvl);

public:
  /// Builds the level stack. \p InitialGroups pre-fuses node sets (one
  /// entry per group; nodes absent from all groups start as singletons)
  /// with optional pins; \p EdgeSlack (computeEdgeSlack, indexed by DDG
  /// edge id) orders contraction candidates (lower = contract first);
  /// \p TargetMacros stops coarsening (>= number of clusters). \p Trace,
  /// when enabled, records one "part.coarsen:<level>" span per recorded
  /// level (observation only; the stack never depends on it). The
  /// result is a pure function of (loop, DDG, machine, groups, pins,
  /// slack, target).
  void build(const Loop &TheLoop, const DDG &TheDDG,
             const MachineDescription &TheMachine,
             const std::vector<std::vector<unsigned>> &InitialGroups,
             const std::vector<int> &GroupPins,
             const std::vector<int64_t> &EdgeSlack, unsigned TargetMacros,
             obs::Tracer *Trace = nullptr);

  unsigned numLevels() const { return NumLvls; }
  /// Level 0 is the finest (original grouping), the last the coarsest.
  const CoarseLevel &level(unsigned I) const { return Levels[I]; }
  const CoarseLevel &coarsest() const { return Levels[NumLvls - 1]; }
  const BuildStats &buildStats() const { return Stats; }
};

} // namespace hcvliw

#endif // HCVLIW_PARTITION_MULTILEVELGRAPH_H
