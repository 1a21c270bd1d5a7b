//===- sched/PseudoScheduler.h - Fast schedule estimates ---------*- C++ -*-===//
///
/// \file
/// Pseudo-schedules (Section 4.1.2, after [3]): a cheap approximation of
/// the schedule a partition would obtain, used to compare candidate
/// partitions during refinement without running the full scheduler.
/// The estimate checks
///   - per-cluster functional-unit capacity at the plan's IIs,
///   - bus capacity against the partition's communication count,
///   - recurrence feasibility through the exact ASAP fixpoint,
///   - a sum-of-lifetimes register proxy (Section 3.2's third bullet),
/// and reports the activity distribution the energy model needs (the
/// paper's p_Ci) plus an it_length approximation from the ASAP times.
///
/// The timing kernel (pseudoScheduleAsap) builds no graph and no copy:
/// it walks a per-loop out-edge table (PseudoEdgeTable) under the
/// cluster assignment and the plan's tick grid. The inter-cluster copy
/// of a value is a pure function of its producer's start, so the kernel
/// folds each copy hop into the cross-cluster value edges it feeds: the
/// producer's visit derives the copy's completion on the bus and each
/// consumer cluster's arrival from it. The kernel runs the one ASAP
/// relaxation of the scheduling chain (sched/AsapFixpoint) over the
/// loop's nodes. So its answer is the scheduler's TickGraph answer on
/// the materialized PartitionedGraph, restricted to the real nodes: the
/// least ASAP fixpoint, or "recurrence infeasible" exactly when none
/// exists, whatever the visit order.
///
/// Partition refinement runs only the kernel, on the tallies
/// PartitionBound keeps (partition/Partitioner). The estimator
/// (estimatePseudoSchedule) computes the whole estimate from scratch:
/// the reference the tests hold that path to.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_PSEUDOSCHEDULER_H
#define HCVLIW_SCHED_PSEUDOSCHEDULER_H

#include "ir/DDG.h"
#include "mcd/PlanGrid.h"
#include "sched/Partition.h"

#include <string>
#include <vector>

namespace hcvliw {

struct PseudoSchedule {
  bool Feasible = false;
  std::string Reason;
  /// Graded infeasibility: total normalized violation over all checks
  /// (0 when feasible). Refinement uses this as a gradient so greedy
  /// moves can walk *out* of an infeasible region instead of stalling
  /// on a flat "infinite" score.
  double Overflow = 0;

  /// Inter-cluster transfers per iteration: one copy per (value,
  /// consuming cluster) pair.
  unsigned Comms = 0;
  /// Energy-weighted instructions per cluster (normalizes to p_Ci).
  std::vector<double> WInsPerCluster;
  /// Approximate time for one iteration to complete.
  Rational ItLengthNs;
  /// Sum-of-lifetimes register proxy per cluster, in cluster cycles.
  std::vector<int64_t> LifetimeProxy;
};

/// The integer tallies the schedule-free checks of a pseudo-schedule
/// read. The estimator counts them from scratch per call; the
/// partitioner's refinement bound keeps them as deltas across candidate
/// moves. Both grade them through gradePartitionBudgets, so the two
/// agree bit for bit.
struct PartitionTally {
  std::vector<unsigned> Counts;    ///< flat [cluster][kind] op counts
  unsigned Comms = 0;              ///< copies, one per (value, cluster)
  std::vector<unsigned> CopiesIn;  ///< [cluster] copies landing there
  std::vector<unsigned> Defs;      ///< [cluster] value-defining ops
  std::vector<int64_t> DefLatency; ///< [cluster] their summed latency

  /// Sizes every per-cluster vector for \p NumClusters, all zero.
  void clear(unsigned NumClusters);
};

/// Slot capacity per IT of every (cluster, FU kind) under \p Plan — the
/// cluster's II times its unit count — into \p Cap, flat
/// [cluster][kind]. The one capacity table the partitioner's placement
/// policies and the budget checks below all read.
void slotCapacityInto(std::vector<int64_t> &Cap, const MachineDescription &M,
                      const MachinePlan &Plan);

/// The capacity term gradePartitionBudgets adds for \p Cnt ops of one
/// FU kind on a cluster with \p Slots slots of it per IT: 0 when they
/// fit, else the overload normalized by the slots, or the whole count
/// when the cluster has no such unit.
inline double capacityOverflow(unsigned Cnt, int64_t Slots) {
  if (Cnt == 0)
    return 0;
  if (Slots <= 0)
    return Cnt;
  if (static_cast<int64_t>(Cnt) <= Slots)
    return 0;
  return (static_cast<double>(Cnt) - static_cast<double>(Slots)) /
         static_cast<double>(Slots);
}

/// Grades the budgets of \p T that need no schedule: per-cluster,
/// per-kind FU capacity at the plan's IIs, bus capacity, and the
/// register lifetime proxy (\p Cap is slotCapacityInto's table for \p M
/// and \p Plan). Each violation adds its normalized size to
/// \p Overflow, in that fixed order; \p RecurrenceInfeasible inserts
/// the recurrence penalty between the bus and the register terms,
/// where the estimator has always summed it. Returns the reason of the
/// first violated check, or nullptr when every check passes.
const char *gradePartitionBudgets(const MachineDescription &M,
                                  const MachinePlan &Plan,
                                  const std::vector<int64_t> &Cap,
                                  const PartitionTally &T,
                                  bool RecurrenceInfeasible, double &Overflow);

/// A loop's dependences as the pseudo-schedule kernel walks them: every
/// node's out-edges in DDG out-edge order, as CSR, each with what the
/// kernel's step reads, plus every node's ISA latency. A pure function
/// of the loop and the ISA latencies, independent of the partition and
/// the plan: refinement builds one per partition run
/// (PartitionBound::bind), the estimator one per call.
struct PseudoEdgeTable {
  struct Edge {
    unsigned Dst;
    unsigned Latency;  ///< edgeLatency, in source-domain cycles
    unsigned Distance; ///< iterations
    bool Value;        ///< value-carrying: crossing clusters needs a copy
  };
  std::vector<unsigned> NodeLat; ///< IsaTable::nodeLatencies
  /// Node V's out-edges are Out[OutStart[V] .. OutStart[V + 1]).
  std::vector<unsigned> OutStart;
  std::vector<Edge> Out;

  /// Rebuilds the table of \p L, whose DDG is \p G, under \p Isa's
  /// latencies (every buffer is reused).
  void build(const Loop &L, const DDG &G, const IsaTable &Isa);
  unsigned size() const { return static_cast<unsigned>(NodeLat.size()); }
};

/// Reusable buffers for the pseudo-schedule kernel. Partition
/// refinement scores one pseudo-schedule per candidate move — hundreds
/// per loop — so with a scratch the whole refinement runs
/// allocation-free in steady state. Contents carry nothing between
/// calls.
struct PseudoKernelScratch {
  /// ASAP start ticks of the nodes, the causal-chain depth of each
  /// start, and per cluster the SweepCluster below.
  std::vector<int64_t> Asap;
  std::vector<uint64_t> Depth;
  struct SweepCluster {
    int64_t Period = 0;
    /// The IT is not a multiple of Period, so a loop-carried bound can
    /// fall between the cluster's ticks and needs rounding up.
    bool OffGrid = false;
  };
  std::vector<SweepCluster> SweepClusters;
  /// The sweeps the last pseudoScheduleAsap call ran. A result for
  /// tests; nothing reads it back.
  unsigned LastSweeps = 0;
};

/// Reusable buffers for the estimator, which rebuilds its kernel input
/// (the loop's out-edge table and the plan's tick grid) on every call.
/// Contents carry nothing between calls.
struct PseudoScratch {
  PseudoKernelScratch Kernel;
  PlanGrid Grid;
  PseudoEdgeTable Edges;
  /// The (value, consuming cluster) pairs already counted as a copy,
  /// flat [value][cluster].
  std::vector<uint8_t> CopySeen;
  PartitionTally Tally;
  std::vector<int64_t> Cap; ///< slotCapacityInto table
};

/// The pseudo-schedule's timing kernel on assignment \p ClusterOf (one
/// cluster per node of \p T) under the plan whose tick grid is
/// \p Grid, with copies taking \p BusLatency bus cycles: runs the exact
/// ASAP fixpoint into \p S and returns false when a recurrence cannot
/// meet the IT (no fixpoint exists). Otherwise writes the iteration
/// length (latest ASAP completion, copies included) to \p ItLengthNs.
/// Throws std::invalid_argument when \p Grid is invalid.
bool pseudoScheduleAsap(PseudoKernelScratch &S, const PseudoEdgeTable &T,
                        const PlanGrid &Grid, unsigned BusLatency,
                        const std::vector<unsigned> &ClusterOf,
                        Rational &ItLengthNs);

/// Estimates the schedule quality of \p P for \p L under \p Plan.
/// \p Scratch provides reusable buffers (optional; identical results).
/// Throws std::invalid_argument when \p Plan has no tick grid.
PseudoSchedule estimatePseudoSchedule(const Loop &L, const DDG &G,
                                      const MachineDescription &M,
                                      const MachinePlan &Plan,
                                      const Partition &P,
                                      PseudoScratch *Scratch = nullptr);

/// In-place form: writes the estimate into \p PS, reusing its vectors
/// (with this plus a scratch, repeated scoring is allocation-free in
/// steady state). Same precondition: a plan with no tick grid throws
/// std::invalid_argument.
void estimatePseudoScheduleInto(PseudoSchedule &PS, const Loop &L,
                                const DDG &G, const MachineDescription &M,
                                const MachinePlan &Plan, const Partition &P,
                                PseudoScratch *Scratch = nullptr);

} // namespace hcvliw

#endif // HCVLIW_SCHED_PSEUDOSCHEDULER_H
