//===- partition/Partitioner.h - Multilevel DDG partitioning ----*- C++ -*-===//
///
/// \file
/// The Section 4.1 graph partitioner. Produces the cluster assignment
/// the heterogeneous modulo scheduler consumes:
///
///  1. *Critical-recurrence pre-placement* (4.1.1): recurrences whose
///     recMII exceeds the II of some cluster are placed, most critical
///     first, in the **slowest** cluster that can still schedule them,
///     keeping energy low while protecting the IT.
///  2. *Coarsening*: multilevel heavy-edge matching along low-slack
///     edges, balance-bounded so no macro outgrows a cluster share
///     (MultilevelGraph.h); recurrences are never split.
///  3. *Initial partition* of the coarsest macros (one per cluster),
///     honoring pins.
///  4. *Refinement* (4.1.2), uncoarsening from the coarsest level to
///     the finest. Levels with at most 48 macros (MaxRefineMacros in
///     Partitioner.cpp) use greedy macro moves scored by the exact
///     pseudo-schedule objective (estimated ED2 for heterogeneous
///     machines, the [2][3] baseline for homogeneous ones).
///     PartitionBound keeps the assignment and the schedule-free
///     tallies incrementally across the moves: a move whose capacity
///     terms, read from the level's per-macro op counts, or whose exact
///     lower bound already rules it out is rejected without a
///     pseudo-schedule, and a move that passes is scored from the
///     bound's own state by the graph-free pseudo-schedule kernel.
///     Finer levels use boundary FM-style passes on a cheap surrogate
///     (capacity overload, cut, weight balance) whose result is only
///     kept when the exact objective did not get worse — so the tracked
///     objective is monotone across the whole uncoarsening, at every
///     granularity.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_PARTITION_PARTITIONER_H
#define HCVLIW_PARTITION_PARTITIONER_H

#include "ir/RecurrenceAnalysis.h"
#include "mcd/DomainPlanner.h"
#include "obs/Trace.h"
#include "partition/MultilevelGraph.h"
#include "power/EnergyModel.h"
#include "sched/Partition.h"
#include "sched/PseudoScheduler.h"

#include <cstdint>
#include <optional>
#include <string_view>

namespace hcvliw {

namespace fault {
class FaultInjector;
}

/// Coarsening memo key: the only MultilevelGraph::build
/// inputs that vary within one Figure 5 run (loop, DDG, machine and
/// per-edge slack are fixed per run; groups and pins follow the plan's
/// IIs, and the target follows the options). An exact key match makes
/// reusing the memoized level stack provably exact.
struct CoarsenMemoKey {
  std::vector<std::vector<unsigned>> Groups;
  std::vector<int> Pins;
  unsigned TargetMacros = 0;

  bool operator==(const CoarsenMemoKey &O) const {
    return TargetMacros == O.TargetMacros && Pins == O.Pins &&
           Groups == O.Groups;
  }
};

/// FNV-1a over every field of CoarsenMemoKey; the memo compares the
/// hash before paying the exact vector comparison.
struct CoarsenMemoKeyHash {
  size_t operator()(const CoarsenMemoKey &K) const {
    uint64_t H = 1469598103934665603ull;
    auto mix = [&H](uint64_t V) {
      H ^= V;
      H *= 1099511628211ull;
    };
    mix(K.TargetMacros);
    mix(K.Pins.size());
    for (int P : K.Pins)
      mix(static_cast<uint64_t>(static_cast<int64_t>(P)));
    mix(K.Groups.size());
    for (const auto &Gp : K.Groups) {
      mix(Gp.size());
      for (unsigned N : Gp)
        mix(N);
    }
    return static_cast<size_t>(H);
  }
};

/// Partitioner effort counters, accumulated across the attempts of a
/// Figure 5 run (observability: they report work *performed*, so the
/// memos lower them; the partition itself never depends on them).
struct PartitionStats {
  uint64_t Runs = 0;            ///< partitionLoop invocations
  uint64_t CoarsenBuilds = 0;   ///< multilevel stacks built
  uint64_t CoarsenMemoHits = 0; ///< stacks reused from the memo
  uint64_t Levels = 0;          ///< recorded levels across all builds
  uint64_t MatchedPairs = 0;    ///< pair contractions across all builds
  uint64_t RefinePasses = 0;    ///< exact greedy passes run
  uint64_t RefineMoves = 0;     ///< exact greedy moves accepted
  uint64_t FMPasses = 0;        ///< boundary FM passes run
  uint64_t FMMoves = 0;         ///< boundary FM moves applied
  /// Full pseudo-schedules scored, and greedy candidates rejected by
  /// PartitionBound without one; CapacityRejects is the subset of
  /// BoundRejects decided by the capacity terms alone
  /// (PartitionBound::capacityBound), before any node moved. Unlike the
  /// counters above, the cache snapshot format (runtime/CachePersist)
  /// does not carry them: a result loaded from a snapshot reports 0.
  uint64_t ScoreEvals = 0;
  uint64_t BoundRejects = 0;
  uint64_t CapacityRejects = 0;
  /// Runs that took the pre-fused flat-partition rung instead of the
  /// multilevel path (forced by an injected part.coarsen degrade or by
  /// an allocation failure inside coarsening). Unlike the effort
  /// counters above this is part of the result contract: the rung
  /// changes the partition, so the count is deterministic and cached
  /// results replay it exactly.
  uint64_t FlatFallbacks = 0;
  /// Exact score of the initial (coarsest) assignment and of the final
  /// refined partition of the most recent run — the refinement
  /// invariant FinalScore <= InitialScore is pinned by MultilevelTest.
  double InitialScore = 0;
  double FinalScore = 0;
};

struct PartitionContext;
struct PartitionerOptions;

/// Exact lower bound on scorePartition, kept incrementally across the
/// single-macro moves of greedy refinement (the METIS/FM incremental
/// gain idea, applied to the exact objective). It tracks the node-level
/// assignment and the PartitionTally of the schedule-free budget
/// checks as integer deltas over the moved nodes and their value
/// edges:
///
///   - when any budget check fails, the bound is
///     InfeasiblePartitionScore * (1 + Ov), with Ov the estimator's
///     overflow sum without the recurrence term;
///   - otherwise it is the feasible score with the iteration length
///     taken as 0, the per-cluster activity re-summed in node order
///     exactly as the estimator sums it.
///
/// Every omitted term is >= 0 and round-to-nearest is monotone, so
/// bound() <= scorePartition() holds exactly, and a candidate whose
/// bound is not below the current score can be rejected without a
/// pseudo-schedule: the greedy decisions are the ones full scoring
/// makes. A candidate that passes is scored by score(), which runs the
/// pseudo-schedule kernel on the kept assignment and grades the kept
/// tally — scorePartition's value, with no partition expanded and no
/// tally recounted.
class PartitionBound {
  const PartitionContext *Ctx = nullptr;
  std::vector<unsigned> ClusterOf;
  PartitionTally Tally;
  std::vector<int64_t> Cap; ///< slotCapacityInto table of the plan
  /// Per node: FU kind, defined-value latency (-1: defines none) and
  /// energy weight.
  std::vector<uint8_t> Kind;
  std::vector<int64_t> DefLat;
  std::vector<double> Energy;
  std::vector<unsigned> NodeLat; ///< ISA latency per node
  /// Value-carrying in-edges as CSR: the sources of node N's value
  /// edges are ValSrc[ValStart[N] .. ValStart[N+1]), with multiplicity.
  std::vector<unsigned> ValStart, ValSrc;
  /// Flat [node][cluster]: value edges from the node into the cluster.
  std::vector<unsigned> Uses;
  /// move() working set: the nodes whose copies may change,
  /// deduplicated by stamp.
  std::vector<unsigned> Touched;
  std::vector<uint64_t> TouchStamp;
  uint64_t Stamp = 0;
  std::vector<double> WIns;
  unsigned MemOps = 0; ///< memory operations of the loop
  PseudoScratch Pseudo; ///< score()'s kernel buffers

  /// Adds (\p Sign = +1) or removes (-1) the copies node \p N produces.
  void countCopies(unsigned N, int Sign);
  /// The objective of the kept assignment given its recurrence verdict
  /// and iteration length (0 and feasible for bound()).
  double grade(const PartitionerOptions &Opts, bool RecurrenceInfeasible,
               double ItLengthNs);

public:
  /// Binds to \p TheCtx, which must stay alive until the next reset,
  /// and loads the node-level assignment \p P.
  void reset(const PartitionContext &TheCtx, const Partition &P);
  /// Moves the distinct nodes \p Nodes[0 .. Count) to cluster \p To.
  void move(const unsigned *Nodes, size_t Count, unsigned To);
  /// Lower bound on scorePartition of the current assignment.
  double bound(const PartitionerOptions &Opts);
  /// scorePartition of the current assignment, bit for bit (one
  /// pseudo-schedule: counted in PartitionStats::ScoreEvals).
  double score(const PartitionerOptions &Opts);
  /// Lower bound on bound() after moving nodes whose per-kind op counts
  /// are \p Need (NumFUKinds entries) from cluster \p From to \p To,
  /// computed without moving them: InfeasiblePartitionScore * (1 + the
  /// capacity terms of every cluster after the move, summed in
  /// gradePartitionBudgets' order), or 0 when no cluster overflows
  /// (every score is >= 0). \p From and \p To must differ.
  double capacityBound(const unsigned *Need, unsigned From,
                       unsigned To) const;

  const std::vector<unsigned> &clusterOf() const { return ClusterOf; }
  const PartitionTally &tally() const { return Tally; }
};

/// Reusable buffers + coarsening memo for partitionLoop. One partition
/// run builds groups, a multilevel coarsening, an initial assignment
/// and hundreds of refinement candidates; the Figure 5 driver runs it
/// up to twice per IT step. A scratch removes the allocation churn and
/// carries the coarsening across attempts and IT steps via an exact
/// CoarsenMemoKey match. The key does not cover the loop: a caller
/// that reuses one scratch for another loop clears MLValid first (the
/// Figure 5 driver does, per run).
struct PartitionScratch {
  // Per-attempt buffers (no information carried between attempts).
  CoarsenMemoKey Key;        ///< this attempt's (groups, pins, target)
  std::vector<int64_t> Free; ///< flat [cluster][kind] slot capacity
  std::vector<double> WInsTmp; ///< scorePartition's scaled-activity buffer
  std::vector<unsigned> ClusterOfMacro;
  std::vector<unsigned> ByWeight;
  std::vector<unsigned> Assign;
  Partition Current;
  Partition Cand;
  PseudoScratch PS;
  /// Greedy refinement's lower bound, and the per-level macro member
  /// lists its moves walk (CSR: the members of macro M are
  /// Members[MemberStart[M] .. MemberStart[M+1]), ascending).
  PartitionBound Bound;
  std::vector<unsigned> MemberStart, Members;
  /// Exact-refinement eval stamps (flat [macro][cluster]): the
  /// accepted-move count at the last evaluation of that move, for the
  /// exact unchanged-candidate skip.
  std::vector<uint64_t> EvalStamp;

  // Boundary FM refinement working set (levels above MaxRefineMacros;
  // all sized per level and reused, so steady state is allocation-free
  // — the "gain buckets in the arena" half of the big-loop work).
  std::vector<int64_t> FMLoad;     ///< flat [cluster][kind] op counts
  std::vector<int64_t> FMCap;      ///< flat [cluster][kind] capacity
  std::vector<double> FMWeight;    ///< [cluster] energy mass
  std::vector<uint8_t> FMLocked;   ///< [macro] moved this pass
  struct FMHeapEntry {
    double Gain;
    unsigned Mac;
  };
  std::vector<FMHeapEntry> FMHeap; ///< binary max-heap storage
  std::vector<int64_t> FMCutTo;    ///< [cluster] cut mass of one macro

  // Coarsening memo, valid for one Figure 5 run (the driver clears
  // MLValid per loop); keyed exactly on CoarsenMemoKey, hash-first.
  MultilevelGraph ML;
  CoarsenMemoKey MemoKey;
  size_t MemoHashVal = 0;
  bool MLValid = false;
};

struct PartitionerOptions {
  /// Score moves by estimated ED2 (the heterogeneous objective); when
  /// false, use the homogeneous baseline objective of [2][3].
  bool ED2Objective = true;
  /// Pre-place critical recurrences (ablation knob of DESIGN.md #2).
  bool PrePlaceRecurrences = true;
};

/// Everything a partitioning run needs to see.
struct PartitionContext {
  const Loop *L = nullptr;
  const DDG *G = nullptr;
  const MachineDescription *M = nullptr;
  const MachinePlan *Plan = nullptr;
  const RecurrenceInfo *Recs = nullptr;
  /// Optional energy scoring (required when ED2Objective is set).
  const EnergyModel *Energy = nullptr;
  const HeteroScaling *Scaling = nullptr;
  uint64_t TripCount = 1;
  /// Optional precomputed coarsening slack, one entry per DDG edge
  /// (computeEdgeSlack(G, Isa latencies, max(RecMII, 1))). It does not
  /// depend on the IT, so drivers retrying IT steps compute it once;
  /// when null the partitioner computes its own.
  const std::vector<int64_t> *EdgeSlack = nullptr;
  /// Optional reusable buffers + coarsening memo; results are
  /// bit-identical with or without one (see PartitionScratch for the
  /// one reuse rule).
  PartitionScratch *Scratch = nullptr;
  /// Optional span tracer ("part.coarsen:<level>" / "part.refine:
  /// <level>" phases); observation only — the assignment never depends
  /// on it.
  obs::Tracer *Trace = nullptr;
  /// Optional effort counters, accumulated (+=) per run; observation
  /// only (see PartitionStats).
  PartitionStats *Stats = nullptr;
  /// Optional fault injector (armed test/chaos runs only; null in
  /// production). The "part.coarsen" degrade site forces the
  /// flat-partition rung; context is FaultCtx ("<program>/<loop>").
  fault::FaultInjector *Fault = nullptr;
  std::string_view FaultCtx;
};

/// Runs the partitioner; std::nullopt when no feasible assignment exists
/// at this IT (the driver must grow the IT). On a machine of more than
/// one cluster, throws std::invalid_argument when \p Opts asks for the
/// ED2 objective and \p Ctx lacks the energy model or the scaling.
std::optional<Partition> partitionLoop(const PartitionContext &Ctx,
                                       const PartitionerOptions &Opts);

/// Every infeasible partition scores at least this much; feasible
/// scores are always below it.
inline constexpr double InfeasiblePartitionScore = 1e24;

/// Scoring helper shared with tests: lower is better; infeasible
/// partitions score >= InfeasiblePartitionScore, graded by violation.
/// Each call runs one pseudo-schedule (PartitionStats::ScoreEvals).
/// Same precondition as partitionLoop for the ED2 objective.
double scorePartition(const PartitionContext &Ctx,
                      const PartitionerOptions &Opts, const Partition &P);

} // namespace hcvliw

#endif // HCVLIW_PARTITION_PARTITIONER_H
