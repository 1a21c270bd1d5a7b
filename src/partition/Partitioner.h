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
///     bound's own state by the copy-free pseudo-schedule kernel.
///     Finer levels use FM-style passes on a cheap surrogate
///     (capacity overload, cut, weight balance) whose result is only
///     kept when the exact objective did not get worse — so the tracked
///     objective is monotone across the whole uncoarsening, at every
///     granularity. PartitionBound::score is the path's one scorer:
///     the bound is loaded with the initial assignment and then follows
///     every greedy move and every FM result it scores.
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
#include <cstring>
#include <optional>
#include <string_view>

namespace hcvliw {

namespace fault {
class FaultInjector;
}

/// Coarsening memo key: every MultilevelGraph::build input. The loop
/// enters as its structural fingerprint and node latencies (the key of
/// LoopAnalysisMemo; together they fix the DDG, the recurrences and the
/// per-edge slack) plus each node's ISA energy (IsaTable::set can change
/// energies without touching latencies); the plan enters through the
/// pre-placement groups and pins, and the options through the target.
/// An exact key match makes reusing the memoized level stack exact,
/// across attempts, IT steps, plans and whole schedule runs.
struct CoarsenMemoKey {
  uint64_t LoopFp = 0;
  std::vector<unsigned> Lat;
  std::vector<double> Energy;
  std::vector<std::vector<unsigned>> Groups;
  std::vector<int> Pins;
  unsigned TargetMacros = 0;

  bool operator==(const CoarsenMemoKey &O) const {
    return LoopFp == O.LoopFp && TargetMacros == O.TargetMacros &&
           Pins == O.Pins && Lat == O.Lat && Energy == O.Energy &&
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
    mix(K.LoopFp);
    mix(K.TargetMacros);
    mix(K.Lat.size());
    for (unsigned V : K.Lat)
      mix(V);
    mix(K.Energy.size());
    for (double E : K.Energy) {
      uint64_t Bits;
      std::memcpy(&Bits, &E, sizeof Bits);
      mix(Bits);
    }
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
/// Figure 5 run (observability; the partition itself never depends on
/// them). They are a pure function of the run: the coarsening counters
/// count per run, as if each run began with an empty memo, so a stack
/// that an earlier run on the same scratch left behind still counts as
/// a build (with its stored MultilevelGraph::BuildStats) the first time
/// a run uses it. Traces show the physical reuse ("coarsen_reused" on
/// the loop.schedule span).
struct PartitionStats {
  uint64_t Runs = 0;            ///< partitionLoop invocations
  /// Level stacks this run used for the first time, or whose key
  /// differed from the previous attempt's.
  uint64_t CoarsenBuilds = 0;
  /// Attempts that reused the stack of the run's previous attempt.
  uint64_t CoarsenMemoHits = 0;
  uint64_t Levels = 0;          ///< recorded levels across all builds
  uint64_t MatchedPairs = 0;    ///< pair contractions across all builds
  uint64_t RefinePasses = 0;    ///< exact greedy passes run
  uint64_t RefineMoves = 0;     ///< exact greedy moves accepted
  uint64_t FMPasses = 0;        ///< FM passes run
  uint64_t FMMoves = 0;         ///< FM moves applied
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
  /// Value-carrying in-edges as CSR: the sources of node N's value
  /// edges are ValSrc[ValStart[N] .. ValStart[N+1]), with multiplicity.
  std::vector<unsigned> ValStart, ValSrc;
  /// Flat [node][cluster]: value edges from the node into the cluster.
  std::vector<unsigned> Uses;
  std::vector<double> WIns;
  unsigned MemOps = 0; ///< memory operations of the loop
  /// score()'s kernel input, built once per bind: the loop's out-edge
  /// table and the plan's tick grid; and the kernel's buffers.
  PseudoEdgeTable Edges;
  PlanGrid Grid;
  PseudoKernelScratch Pseudo;

  /// Adds the copies node \p N produces to the tally.
  void countCopies(unsigned N);
  /// The objective of the kept assignment given its recurrence verdict
  /// and iteration length (0 and feasible for bound()).
  double grade(const PartitionerOptions &Opts, bool RecurrenceInfeasible,
               double ItLengthNs);

public:
  /// Binds to \p TheCtx, which must stay alive until the next bind,
  /// and builds the constants of its loop and plan: per-node kind,
  /// latencies and energy, the value in-edge CSR, the slot capacities,
  /// the kernel's out-edge table and the plan's tick grid. Once per
  /// partition run; every bind rebuilds them all.
  void bind(const PartitionContext &TheCtx);
  /// Loads the node-level assignment \p P and its tallies (after bind;
  /// refinement loads once per run, then moves).
  void load(const Partition &P);
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

/// The FM surrogate objective of one level,
///
///   1e6 * (total per-cluster per-kind capacity overload)
///   + (DDG edges cut between clusters)
///   + 1e-3 * (sum of squared per-cluster energy weights),
///
/// kept incrementally over a macro assignment: per-cluster op counts
/// and energy mass, and each macro's cut mass toward every cluster, so
/// a move's gain costs no walk of the macro's adjacency. It also keeps
/// the state of an exact gate: mayGain(Mac) is false only when no move
/// of Mac can have a positive gain, which holds when all of
///
///   (i)   Mac has no op of a kind its home cluster has over capacity
///         (the move relieves no overload, so its capacity term is
///         <= 0);
///   (ii)  every other cluster holds less of Mac's cut mass than its
///         home (the cut term is an integer <= -1);
///   (iii) 2e-3 * W * (W_home - W_lightest_other - W) < 0.5, with W
///         Mac's energy mass: the weight term of a move to cluster C is
///         -1e-3 * ((W_home - W)^2 + (W_C + W)^2 - W_home^2 - W_C^2)
///         = 2e-3 * W * (W_home - W_C - W), largest at the lightest C.
///
/// Then every move's gain is below -1 + 0.5 + rounding, far below 0.
class FMSurrogate {
  const CoarseLevel *Lvl = nullptr;
  std::vector<unsigned> *Assign = nullptr;
  unsigned NC = 0;
  std::vector<int64_t> Load;   ///< flat [cluster][kind] op counts
  std::vector<int64_t> Cap;    ///< flat [cluster][kind] slot capacity
  std::vector<double> Weight;  ///< [cluster] energy mass
  std::vector<int64_t> Cut;    ///< flat [macro][cluster] cut mass
  /// The gate: per macro, bit K set when it holds an op of FUKind K,
  /// and whether some other cluster holds at least its home's cut mass;
  /// per cluster, the kinds over capacity (same bits) and the least
  /// energy mass among the other clusters.
  std::vector<uint8_t> KindMask;
  std::vector<uint8_t> OverKinds;
  std::vector<double> LightestOther;
  std::vector<uint8_t> CutTied;

  void refreshCluster(unsigned C);
  void refreshLightest();
  void refreshCutTied(unsigned Mac);

public:
  /// Loads \p TheLvl under the macro assignment \p TheAssign (kept by
  /// reference: apply() moves macros in it) with the slot capacity of
  /// \p Plan on \p M.
  void init(const CoarseLevel &TheLvl, std::vector<unsigned> &TheAssign,
            const MachineDescription &M, const MachinePlan &Plan);
  /// False only when no move of \p Mac has a positive gain (exact; see
  /// the class comment).
  bool mayGain(unsigned Mac) const {
    const unsigned Home = (*Assign)[Mac];
    if (KindMask[Mac] & OverKinds[Home])
      return true;
    if (CutTied[Mac])
      return true;
    const double W = Lvl->Weight[Mac];
    return 2e-3 * W * (Weight[Home] - LightestOther[Home] - W) >= 0.5;
  }
  /// The best move of \p Mac: its gain (the surrogate's decrease), and
  /// the cluster in \p BestC (ties: the lowest cluster id).
  double bestMove(unsigned Mac, unsigned &BestC) const;
  /// Moves \p Mac to cluster \p C.
  void apply(unsigned Mac, unsigned C);
};

/// Reusable buffers + coarsening memo for partitionLoop. One partition
/// run builds groups, a multilevel coarsening, an initial assignment
/// and hundreds of refinement candidates; the Figure 5 driver runs it
/// up to twice per IT step. A scratch removes the allocation churn and
/// keeps one level stack, reused on an exact CoarsenMemoKey match —
/// across attempts, IT steps, plans, loops and schedule runs, since the
/// key covers every build input. The effort counters still count per
/// run (see PartitionStats): RunCounted marks the stack as counted in
/// the current run, and the Figure 5 driver clears it per run.
struct PartitionScratch {
  // Per-attempt buffers (no information carried between attempts).
  CoarsenMemoKey Key;        ///< this attempt's (groups, pins, target)
  std::vector<int64_t> Free; ///< flat [cluster][kind] slot capacity
  std::vector<double> WInsTmp; ///< the ED2 score's scaled-activity buffer
  std::vector<unsigned> ClusterOfMacro;
  std::vector<unsigned> ByWeight;
  std::vector<unsigned> Assign;
  std::vector<unsigned> AssignBefore; ///< an FM level's starting Assign
  Partition Current;
  /// The partition path's bound and only scorer, and the per-level
  /// macro member lists its moves walk (CSR: the members of macro M are
  /// Members[MemberStart[M] .. MemberStart[M+1]), ascending).
  PartitionBound Bound;
  std::vector<unsigned> MemberStart, Members;
  /// Exact-refinement eval stamps (flat [macro][cluster]): the
  /// accepted-move count at the last evaluation of that move, for the
  /// exact unchanged-candidate skip.
  std::vector<uint64_t> EvalStamp;

  // FM refinement working set (levels above MaxRefineMacros;
  // all sized per level and reused, so steady state is allocation-free
  // — the "gain buckets in the arena" half of the big-loop work).
  FMSurrogate FM;
  std::vector<uint8_t> FMLocked;   ///< [macro] moved this pass
  struct FMHeapEntry {
    double Gain;
    unsigned Mac;
  };
  std::vector<FMHeapEntry> FMHeap; ///< binary max-heap storage
  std::vector<unsigned> FMMoved;   ///< this pass's moves, for the next

  // Coarsening memo: ML holds the stack of MemoKey while MLValid;
  // keyed exactly on CoarsenMemoKey, hash-first. A build clears MLValid
  // until it completes, and an allocation failure drops the slot, so no
  // partial stack is ever reused.
  MultilevelGraph ML;
  CoarsenMemoKey MemoKey;
  size_t MemoHashVal = 0;
  bool MLValid = false;
  /// The current run has counted ML's stack in PartitionStats (a later
  /// attempt on the same key counts as a memo hit).
  bool RunCounted = false;
  /// Attempts that reused ML without building, over the scratch's life
  /// (trace args only; never a PartitionStats counter).
  uint64_t CoarsenReuses = 0;
};

struct PartitionerOptions {
  /// Score moves by estimated ED2 (the heterogeneous objective); when
  /// false, use the homogeneous baseline objective of [2][3].
  bool ED2Objective = true;
  /// Pre-place critical recurrences (bench_fig6_ed2 --ablation turns
  /// it off to measure what pre-placement buys).
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
  /// Optional precomputed coarsening slack, one entry per DDG edge,
  /// which must equal computeEdgeSlack(G, Isa latencies, max(RecMII, 1))
  /// (the coarsening memo key covers it through the loop and its
  /// latencies). It does not depend on the IT, so drivers retrying IT
  /// steps compute it once; when null the partitioner computes its own.
  const std::vector<int64_t> *EdgeSlack = nullptr;
  /// Optional reusable buffers + coarsening memo; results are
  /// bit-identical with or without one (see PartitionScratch).
  PartitionScratch *Scratch = nullptr;
  /// L->structuralFingerprint() when the caller has it at hand; 0 lets
  /// partitionLoop compute it (the coarsening memo key needs it).
  uint64_t LoopFp = 0;
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

/// The partition objective from the pseudo-schedule estimator: lower
/// is better; infeasible partitions score >= InfeasiblePartitionScore,
/// graded by violation. Each call runs one pseudo-schedule
/// (PartitionStats::ScoreEvals). The reference the tests hold
/// PartitionBound::score to: partitionLoop scores with the bound, which
/// equals it bit for bit. Same precondition as partitionLoop for the
/// ED2 objective.
double scorePartition(const PartitionContext &Ctx,
                      const PartitionerOptions &Opts, const Partition &P);

} // namespace hcvliw

#endif // HCVLIW_PARTITION_PARTITIONER_H
